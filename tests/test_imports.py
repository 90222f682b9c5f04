"""Every name a module imports is read in that module."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "scripts")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in order of their
    imports.  A name listed in `__all__` is read, and `from __future__`
    imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in read]


def test_the_check_sees_reads_all_and_future():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom a import b, c as d, e\n"
              "__all__ = ['e']\nos.path.join(d)\n")
    assert unused_imports(source) == ["j", "b"]


@pytest.mark.parametrize("path", sorted(p.relative_to(ROOT).as_posix()
                                        for d in DIRS for p in (ROOT / d).rglob("*.py")))
def test_every_imported_name_is_read(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []
