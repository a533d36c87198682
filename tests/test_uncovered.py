"""tools/uncovered.py: which statements it lists, on a small source string.

The traced run of the whole suite is too slow for Tier-1; run
``python tools/uncovered.py`` to see it.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("uncovered", ROOT / "tools" / "uncovered.py")
uncovered = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(uncovered)

SOURCE = '''\
"""Module docstring."""
import os
from sys import argv


class A:
    """Class docstring."""

    x: int = 1

    def f(self, y):
        """Function docstring."""
        if y:
            return (
                y + 1
            )
        "a string that is not a docstring"
        return 0
'''


def test_statement_spans_and_the_ones_that_never_ran():
    # docstrings, the imports, the class and the def are left out
    assert uncovered.statements(SOURCE) == [(9, 9), (13, 16), (14, 16), (17, 17), (18, 18)]
    # a hit on a continuation line counts for the whole statement
    assert uncovered.never_ran(SOURCE, {9, 13, 15, 18}) == [(17, 17)]
    assert uncovered.never_ran(SOURCE, set()) == uncovered.statements(SOURCE)
    compile(uncovered.TRACER, "sitecustomize.py", "exec")
