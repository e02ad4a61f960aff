"""``tools/loc.py``: code lines of Python modules."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parent.parent / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts as code

# a comment line


class Box:
    """Class docstring."""

    def area(self, side):
        """Function docstring."""
        label = """a string that is
not a docstring"""
        return (side *
                # a comment inside a statement
                side)
'''


def test_counts_code_not_blanks_comments_or_docstrings():
    # Code: the import, the class and def lines, the two lines of the
    # assigned string, and the return's two lines with code.
    assert loc.code_lines(SOURCE) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# c\n")
    loc.main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"     7  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'pkg' / 'b.py'}",
                     "     8  total, 2 modules"]
