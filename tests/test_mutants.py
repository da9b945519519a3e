"""The mutation harness (tools/mutants.py) stays usable: every entry of its
table still applies to the source, and one cheap mutant, run against the
one test that kills it, is reported killed.  The sweep itself, a run of
tier-1 per mutant, is not part of the suite."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

spec = importlib.util.spec_from_file_location(
    "mutants", os.path.join(ROOT, "tools", "mutants.py"))
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_every_mutant_applies_exactly_once():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 15
    assert {m.name: mutants.stale(m) for m in mutants.MUTANTS
            if mutants.stale(m)} == {}


def test_a_cheap_mutant_is_killed():
    fw = next(m for m in mutants.MUTANTS if m.name == "fw-slack")
    test = "tests/test_logtrace.py::test_an_age_sum_below_the_bound_fails_fw"
    assert mutants.run(fw, [test]) == test
