"""Checks on the library's source text, and on the scripts in tools/.

Every invariant must stay checked under `python -O`, which strips assert
statements, so the library raises TheoremViolation instead: it may hold no
assert statement and raise no AssertionError.  And every top-level function,
method and property must be named somewhere else in the package, so a
helper left behind by a refactor fails the suite.  Derived state has one
home per object: only the scalar field caches at module level, and a
group's slots are its inputs and its memo.  The tools import the package
but no test runs them, so each is at least imported here.
"""

import ast
import importlib.util
import os
import sys
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "inertial")
TOOLS = os.path.join(ROOT, "tools")


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _modules(where=SRC):
    """(file name, parsed tree) of every module in where, the package by
    default."""
    for name in sorted(os.listdir(where)):
        if name.endswith(".py"):
            path = os.path.join(where, name)
            with open(path) as fh:
                yield name, ast.parse(fh.read(), path)


def test_library_has_no_assert():
    offenders = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                offenders.append("%s:%d: assert statement" % (name, node.lineno))
            elif (isinstance(node, ast.Raise) and node.exc is not None
                  and _raised_name(node) == "AssertionError"):
                offenders.append("%s:%d: raises AssertionError"
                                 % (name, node.lineno))
    assert offenders == [], "\n".join(offenders)


# Functions the package may define without calling them itself: the
# benchmark's tracer (perfbench/tracer.py) probes induce_from and
# induce_between by name for its characters.induce.calls metric, so they stay
# until the tracer reads a counter registry instead; and argparse calls
# _Parser.error, the override that turns its usage errors into UserError.
UNCALLED_ALLOWED = {"characters.induce_from", "characters.induce_between",
                    "cli._Parser.error"}


def _names(tree):
    """Every name a tree reads: identifiers, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _definitions(module, tree):
    """(dotted name, node) of every top-level function and of every
    non-dunder method or property of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield "%s.%s" % (module, node.name), node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield "%s.%s.%s" % (module, node.name, item.name), item


def test_every_top_level_function_is_referenced():
    # a function or method no other code of the package names is dead
    # code; its own body (a recursive call) does not count as a reference
    trees = {name[:-3]: tree for name, tree in _modules()}
    uses = Counter(n for tree in trees.values() for n in _names(tree))
    unreferenced = []
    for module, tree in trees.items():
        for dotted, node in _definitions(module, tree):
            own = Counter(n for n in _names(node) if n == node.name)
            if uses[node.name] - own[node.name] == 0:
                unreferenced.append(dotted)
    assert sorted(set(unreferenced) - UNCALLED_ALLOWED) == [], unreferenced


def test_only_the_process_entry_skips_teardown():
    # main returns its code to callers in the same process; only the
    # process entry, cli.run, ends the process with os._exit
    callers = {"%s.%s" % (name[:-3], fn.name)
               for name, tree in _modules() for fn in tree.body
               if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Attribute) and node.attr == "_exit"
                       for node in ast.walk(fn))}
    assert callers == {"cli.run"}


def test_only_rings_reads_a_ring_context():
    # a ring's context holds its build inputs, and group state (the sectors,
    # the K basis) lives in the group's memo: no other module, nor a tool,
    # reads it off a ring, so that state cannot drift back onto the ring
    readers = sorted({"%s:%d" % (name, node.lineno)
                      for where in (SRC, TOOLS)
                      for name, tree in _modules(where)
                      if (where, name) != (SRC, "rings.py")
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and node.attr == "context"})
    assert readers == [], readers


def test_only_the_scalar_field_caches_at_module_level():
    # per-conductor tables are pure functions of an int; everything derived
    # from a group or a character lives in that object's memo
    importers = sorted({name for name, tree in _modules()
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        for alias in node.names
                        if alias.name.split(".")[-1] == "lru_cache"})
    assert importers == ["cyclotomic.py"], importers


def test_group_slots_are_its_inputs_and_memo():
    # what a group is given or set to once; every derived table goes in
    # _memo, so no cache can be hung on a group beside it
    from inertial.groups import FiniteGroup

    assert FiniteGroup.__slots__ == (
        "table", "n", "label", "names", "inv", "catalog", "permutations",
        "_memo")


@pytest.mark.parametrize("name", sorted(
    name for name in os.listdir(TOOLS) if name.endswith(".py")))
def test_tools_import_and_define_main(name, monkeypatch):
    # imported by path, not run: a tool that names a library function the
    # package no longer has fails here; each puts src/ on sys.path itself
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "tool_" + name[:-3], os.path.join(TOOLS, name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None)), name
