"""The code-line counter in tools/code_lines.py, on a toy source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# Code lines are marked "# code"; the docstrings, comments and blank lines are not.
TOY = '''"""A module docstring,
over two lines."""

import os  # code

# a comment line


def f(x):  # code
    """A function docstring."""
    return (  # code
        x  # code
        + 1  # code
    )  # code


class C:  # code
    """A class docstring,

    with a blank line in it."""

    y = f(  # code
        2)  # code
    S = """a string,  # code
    not a docstring"""  # code
'''


def test_code_lines_counts_the_toy_source():
    assert code_lines.code_lines(TOY) == TOY.count("# code") == 11


def test_code_lines_prints_each_module_and_the_sum(tmp_path, capsys):
    (tmp_path / "toy.py").write_text(TOY)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["empty.py", "0", "toy.py", "11", "total", "11"]
