"""The line counter behind the size line that ends every test run."""

from conftest import source_size

SNIPPET = '''"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """One-line docstring."""
    s = """a string that is
not a docstring"""
    return x


class C:
    """Class
    docstring."""

    y = 1
'''


def test_source_size_counts_code_lines_only():
    # code lines: import, def, the two string lines, return, class, y = 1
    assert source_size(SNIPPET) == (19, 7)
    assert source_size("") == (0, 0)
