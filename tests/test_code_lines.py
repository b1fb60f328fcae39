"""tools/code_lines.py counts every line that holds a token, minus blank,
comment-only and docstring lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 9 code lines: the import, the def, both lines of the bracketed statement,
# both lines of the string that is not a docstring, the return, the class
# and its attribute
SOURCE = '''"""A module docstring
over two lines."""

# a comment-only line
import os  # a comment after code


def f(x):
    """A function docstring."""

    total = (x +
             1)
    text = """not a
docstring"""
    return total, text, os


class C:
    """A class docstring."""
    y = 1
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    assert load_tool().code_lines(SOURCE) == 9


def test_prints_each_file_then_the_total(tmp_path, capsys):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text(SOURCE)
    two.write_text("x = 1\n\n\n")
    assert load_tool().main([str(one), str(two)]) == 0
    assert capsys.readouterr().out == f"9 {one}\n1 {two}\n10 total\n"
