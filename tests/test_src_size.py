import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "src_size", Path(__file__).resolve().parent.parent / "scripts" / "src_size.py")
src_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_size)

SOURCE = '''"""A module docstring
over two lines."""
import os  # a comment after code

# a comment alone


class C:
    """One line."""

    def f(self):
        """Two
        lines."""
        text = """a string
that is not a docstring"""
        return (1,
                2)
'''


def test_docstrings_comments_and_blank_lines_hold_no_code():
    assert src_size.code_lines(SOURCE) == {3, 8, 11, 14, 15, 16, 17}
    assert src_size.size(SOURCE) == (17, 7)
