"""The rules of .github/code_lines.py, the counter behind every code-line
figure in CHANGES.md and ROADMAP.md, on synthetic sources."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / ".github" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines_module)


def count(text: str) -> int:
    return code_lines_module.code_lines(text.encode())


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n   \n",
        "# a comment\n    # an indented comment\n",
        '"""Module docstring."""\n',
        '"""Module docstring\n\nover three lines."""\n',
        "#!/usr/bin/env python\n# -*- coding: utf-8 -*-\n",
    ],
    ids=["empty", "blank", "comments", "module-doc", "module-doc-multi", "shebang"],
)
def test_lines_without_code_count_zero(text):
    assert count(text) == 0


def test_class_and_function_docstrings_count_zero():
    text = '''\
"""Module."""


class A:
    """Class docstring,
    two lines."""

    def f(self):
        """Method docstring."""
        return 1


def g():
    """Function
    docstring."""
    # a comment
    pass


async def h():
    """Coroutine docstring."""
    return 2
'''
    # class A, def f, return 1, def g, pass, async def h, return 2
    assert count(text) == 7


def test_a_multi_line_token_counts_each_line_once():
    text = 'x = """one\ntwo\nthree"""\ny = 1; z = 2  # two statements, one line\n'
    assert count(text) == 4
    # a bracketed expression counts each line it spans once
    assert count("total = (\n    1\n    + 2\n)\n") == 4


def test_a_string_that_is_not_a_docstring_counts():
    text = '''\
import os

"""A string after the first statement is an expression, not a docstring."""


def f():
    x = 1
    """Nor is one after a function's first statement,
    however many lines it spans."""
    return x
'''
    # import, the module string, def, x = 1, the two-line string, return
    assert count(text) == 7
