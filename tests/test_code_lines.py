"""``tools/code_lines.py`` counts code lines: no blanks, comments or
docstrings, but every line of a statement or a string that is not one."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""
# A comment.

import os  # code with a trailing comment


def f(x):
    """Function docstring."""

    return (x +
            1)


class C:
    """Class docstring,

    over three lines."""

    text = """a string that is
not a docstring"""
'''


def test_counts_a_fixture_source():
    # import, def, the two lines of return, class, the two of text.
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["7", "a.py"], ["1", "b.py"],
                                                 ["8", "total"]]
