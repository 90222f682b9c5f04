"""Print the size of the package source, `src/gamesem/*.py`: its line
count, and the count of lines that hold code, without docstrings,
comments and blank lines.

A line holds code when a token other than a comment or a line break
starts or continues on it; a docstring (the leading string of a
module, class or function body, found with `ast`) holds none.

Run from the repository root:

    python scripts/src_size.py
"""
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> set[int]:
    """The numbers of the lines of `source` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return lines


def size(source: str) -> tuple[int, int]:
    """(lines, lines that hold code) of `source`."""
    return len(source.splitlines()), len(code_lines(source))


def main() -> None:
    total = code = 0
    for f in sorted(Path("src/gamesem").glob("*.py")):
        n, c = size(f.read_text())
        total += n
        code += c
    print(f"{total} lines, {code} without docstrings, comments and blank lines")


if __name__ == "__main__":
    main()
