"""The code-line counter in tools/ skips exactly blank lines, comments
and docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line

# a comment-only line


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self,
          y):
        """Function
        docstring."""
        return (y +
                1)
'''


def test_counts_code_lines_only():
    # import, class, x (two lines), def (two lines), return (two lines)
    assert code_lines.code_lines(SOURCE) == 8


def test_main_prints_per_module_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in out] == ["8", "1", "9"]
    assert out[-1].split()[1] == "total"
