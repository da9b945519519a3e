"""Checks on the library's source text.

Every invariant must stay checked under `python -O`, which strips assert
statements, so the library raises TheoremViolation instead: it may hold no
assert statement and raise no AssertionError.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "inertial")


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_library_has_no_assert():
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                offenders.append("%s:%d: assert statement" % (name, node.lineno))
            elif (isinstance(node, ast.Raise) and node.exc is not None
                  and _raised_name(node) == "AssertionError"):
                offenders.append("%s:%d: raises AssertionError"
                                 % (name, node.lineno))
    assert offenders == [], "\n".join(offenders)
