import json
import os
import subprocess
import sys
from fractions import Fraction

from inertial import logtrace
from inertial.characters import (
    ClassFunction,
    catalog_character,
    character_table,
    decompose,
    invariant_dimension,
    restrict_between,
    restrict_to,
    transport,
    trivial_character,
    zero_character,
)
from inertial.errors import UserError
from inertial.groups import catalog_group
from inertial.inertia import build_double_sectors, build_sectors, triple_sectors
from inertial.logtrace import (
    age,
    dim_int,
    fw_check,
    invariants_char,
    log_trace,
    twisted_pullback,
    v_identity_check,
)

from oracles import eigen_characters, reference_obstruction

PAIRS = [
    ("cyclic(2)", "sl2"),
    ("cyclic(3)", "sl2"),
    ("cyclic(4)", "sl2"),
    ("cyclic(6)", "sl2"),
    ("symmetric(3)", "std"),
    ("quaternion8", "sl2"),
    ("alternating(4)", "std"),
]


def load(spec, rep):
    G = catalog_group(spec)
    return G, catalog_character(G, rep)


def test_age_closed_forms():
    # an order-2 element acting by -1 on both coordinates has age 1
    G, v = load("cyclic(2)", "sl2")
    assert age(v, 1) == 1
    # a transposition on the 2-dimensional irreducible of S3: eigenvalues
    # {1, -1}, so age 1/2
    G, v = load("symmetric(3)", "std")
    s = G.element_from_string("s1")
    assert age(v, s) == Fraction(1, 2)
    c3 = G.element_from_string("s1*s2")
    assert age(v, c3) == 1
    # inside SL2 every non-identity element of a cyclic group has age 1
    for n in (3, 4, 5, 6):
        G, v = load(f"cyclic({n})", "sl2")
        for x in range(1, G.n):
            assert age(v, x) == 1, f"cyclic({n}) element {x}"


def test_age_bounds_and_identity():
    for spec, rep in PAIRS:
        G, v = load(spec, rep)
        d = dim_int(v)
        assert age(v, 0) == 0
        for x in range(G.n):
            a = age(v, x)
            assert 0 <= a <= d, f"{spec}: age out of range"


def test_log_trace_plus_inverse_is_moving_part():
    # L(g)(V) + L(g^-1)(V) = V - V^g on the centralizer, for every element
    # of every catalog pair
    for spec, rep in PAIRS:
        G, v = load(spec, rep)
        for g in range(G.n):
            lt = log_trace(v, g)
            li = log_trace(v, G.inv[g])
            assert li.sub is lt.sub
            fixed = invariants_char(v, (g,), lt.sub)
            want = restrict_to(v, lt.sub) - fixed
            got = lt.char + li.char
            assert got == want, f"{spec}: L(g)+L(g^-1) fails for {g}"


def test_order_times_log_trace_is_integral():
    for spec, rep in PAIRS:
        G, v = load(spec, rep)
        for g in range(G.n):
            lt = log_trace(v, g)
            o = G.order_of(g)
            ints = decompose(lt.char * o)[1]
            assert None not in ints, (
                f"{spec}: ord(g) * L(g) is not integral for {g}")


def test_log_trace_rank_is_age():
    for spec, rep in PAIRS:
        G, v = load(spec, rep)
        for g in range(G.n):
            lt = log_trace(v, g)
            assert lt.char.dim().to_rational() == age(v, g)


def test_explicit_log_trace_value():
    # order-2 element with both eigenvalues -1: L(s) = (1/2)(2 * sign) = sign
    G, v = load("cyclic(2)", "sl2")
    lt = log_trace(v, 1)
    assert lt.sub.order == 2
    sign = ClassFunction(lt.sub.group, [1, -1])
    assert lt.char == sign


def test_eigen_characters_sum_and_invariants():
    # the reference split sums to V, has the invariants as its eigenvalue-1
    # part, and weighted by k/o is the library's log trace
    for spec, rep in PAIRS:
        G, v = load(spec, rep)
        for g in range(G.n):
            dec = eigen_characters(v, g)
            Z = dec.sub
            lt = log_trace(v, g)
            assert lt.sub is Z
            weighted = zero_character(Z.group)
            for k, part in enumerate(dec.parts):
                weighted = weighted + part * Fraction(k, dec.order)
            assert lt.char == weighted, (
                f"{spec}: log trace of {g} is not sum_k (k/o) V_k"
            )
            total = None
            for part in dec.parts:
                total = part if total is None else total + part
            assert total == restrict_to(v, Z), (
                f"{spec}: eigencharacters of {g} do not sum to the restriction"
            )
            inv = invariants_char(v, (g,), Z)
            assert dec.parts[0] == inv, (
                f"{spec}: eigenvalue-1 part of {g} is not the invariants"
            )


def test_invariants_char_needs_centralizing_subgroup():
    G, v = load("symmetric(3)", "std")
    s = G.element_from_string("s1")
    # the memo entry for <s1> on its centralizer answers every tuple that
    # generates <s1>, and never a subgroup that failed the check, cold or warm
    first = invariants_char(v, (s,), G.centralizer(s))
    assert invariants_char(v, (s, s), G.centralizer(s)) is first
    for _ in range(2):
        try:
            invariants_char(v, (s,), G.subgroup(range(G.n)))
            raise AssertionError(
                "whole group does not centralize a transposition")
        except UserError:
            pass


def test_obstruction_classes_move_with_conjugation():
    # conjugating a tuple by g moves its class onto the conjugated
    # centralizer; transporting back by g^-1 gives the class of the tuple
    for spec, rep in (("symmetric(3)", "std"), ("quaternion8", "sl2")):
        G, v = load(spec, rep)
        for cls in triple_sectors(G):
            ms = cls.rep
            base = twisted_pullback(v, ms)
            for g in range(G.n):
                moved = twisted_pullback(v, tuple(G.conj(g, m) for m in ms))
                char, sub = transport(moved.char, moved.sub, G.inv[g])
                assert sub is base.sub and char == base.char, (
                    f"{spec}/{rep}: class of {ms} conjugated by {g}")


def test_padding_with_the_identity_changes_nothing():
    # twisted_pullback pads its tuple with the inverse product itself, so a
    # tuple already padded (its last entry then pads with the identity)
    # has the same class
    for spec, rep in (("symmetric(3)", "std"), ("cyclic(4)", "sl2"),
                      ("quaternion8", "sl2")):
        G, v = load(spec, rep)
        for cls in build_double_sectors(G) + triple_sectors(G):
            ms = cls.rep
            short = twisted_pullback(v, ms)
            padded = twisted_pullback(v, ms + (G.inv[G.prod(ms)],))
            assert padded.sub is short.sub, f"{spec}/{rep}: {ms}"
            assert (padded.char, padded.mults, padded.rank) == (
                short.char, short.mults, short.rank), f"{spec}/{rep}: {ms}"


def test_twisted_pullback_closed_forms():
    # (s, s) for the order-2 SL2 element: the zero class
    G, v = load("cyclic(2)", "sl2")
    tc = twisted_pullback(v, (1, 1))
    assert tc.rank == 0 and tc.is_zero()
    # (g, g, g) in the order-3 SL2 group: one eigenline, rank 1
    G, v = load("cyclic(3)", "sl2")
    tc = twisted_pullback(v, (1, 1, 1))
    assert tc.rank == 1
    assert sum(tc.mults) == 1
    # the surviving eigenline is the one with eigenvalue zeta_3^2
    chars = character_table(G)
    idx = tc.mults.index(1)
    dec = eigen_characters(v, 1)
    assert chars[idx] == dec.parts[2], "wrong eigenline survives for (g,g,g)"
    # pair ranks in cyclic SL2 groups: rank 0 iff the product is trivial
    for n in (2, 3, 4, 5, 6):
        G, v = load(f"cyclic({n})", "sl2")
        for a in range(1, n):
            for b in range(1, n):
                tc = twisted_pullback(v, (a, b))
                want = 0 if (a + b) % n == 0 else 1
                assert tc.rank == want, f"cyclic({n}) pair ({a},{b})"


def test_twisted_pullback_integrality():
    for spec, rep in PAIRS:
        G, v = load(spec, rep)
        for a in range(G.n):
            for b in range(G.n):
                tc = twisted_pullback(v, (a, b))
                assert all(isinstance(m, int) and m >= 0 for m in tc.mults), (
                    f"{spec}: non-integral obstruction class at ({a},{b})"
                )


def test_representative_independence_spot():
    G, v = load("symmetric(3)", "std")
    s = G.element_from_string("s1")
    r = G.element_from_string("s1*s2")
    tc = twisted_pullback(v, (s, r))
    for h in range(1, G.n):
        pair = (G.conj(h, s), G.conj(h, r))
        other = twisted_pullback(v, pair)
        moved, sub = transport(tc.char, tc.sub, h)
        assert sub is other.sub
        assert moved == other.char, f"conjugating by {h} changed the class"


def test_fw_check_reports():
    G, v = load("quaternion8", "sl2")
    for ms in [()] + [(a, G.inv[a]) for a in range(G.n)]:
        rep = fw_check(v, ms)
        assert rep["holds"] and rep["integral"]
        assert rep["lhs"] >= rep["rhs"]
    assert fw_check(v, ())["rhs"] == 0, "the empty tuple fixes all of V"
    # fw_check pads a tuple with the inverse of its product itself: each
    # sector element and each pair-class representative reports what its
    # padded tuple does
    for spec, rep in (("quaternion8", "sl2"), ("symmetric(3)", "std"),
                      ("cyclic(4)", "sl2")):
        G, v = load(spec, rep)
        tuples = [(s.rep,) for s in build_sectors(G).sectors]
        tuples += [cls.rep for cls in build_double_sectors(G)]
        for ms in tuples:
            padded = ms + (G.inv[G.prod(ms)],)
            assert fw_check(v, ms) == fw_check(v, padded), (spec, ms)


def test_v_identity_spot_checks():
    G, v = load("symmetric(3)", "std")
    s = G.element_from_string("s1")
    r = G.element_from_string("s1*s2")
    for triple in ((s, r, s), (r, r, r), (0, s, r), (s, s, s)):
        rep = v_identity_check(v, triple)
        assert rep["holds"], f"identity family fails at {triple}: {rep}"
        assert rep["left_pairing"] == rep["right_pairing"]


def test_an_age_sum_below_the_bound_fails_fw(monkeypatch):
    # the padded pair (g, g^-1) has ages summing to exactly dim V - dim V^g;
    # with g's age lowered by 1 the sum stays integral but falls 1 below
    # the bound, which fw_check must report
    G, v = load("symmetric(3)", "std")
    g = G.element_from_string("s1*s2")
    assert G.inv[g] != g
    rep = fw_check(v, (g,))
    assert rep["integral"] and rep["holds"] and rep["lhs"] == rep["rhs"]
    real = logtrace.age
    monkeypatch.setattr(logtrace, "age", lambda v, x: real(v, x) - (x == g))
    rep = fw_check(v, (g,))
    assert rep["lhs"] == rep["rhs"] - 1
    assert rep["integral"] and not rep["holds"], rep


def test_a_broken_right_grouping_fails_its_pairing(monkeypatch):
    # only the pair (m2, m3), which the (1,23) grouping alone reads, gets a
    # wrong obstruction class: the left verdicts hold, the right pairing
    # does not
    G, v = load("symmetric(3)", "std")
    m1, m2, m3 = (G.element_from_string(t) for t in ("s1", "s2", "s1*s2"))
    assert v_identity_check(v, (m1, m2, m3))["holds"]
    real = logtrace.twisted_pullback

    def corrupted(v, ms):
        tc = real(v, ms)
        if ms != (m2, m3):
            return tc
        return logtrace.TwistedClass(
            ms, tc.sub, tc.char + trivial_character(tc.sub.group), tc.mults,
            tc.rank)

    monkeypatch.setattr(logtrace, "twisted_pullback", corrupted)
    rep = v_identity_check(v, (m1, m2, m3))
    assert rep["left_pairing"] and rep["left_split"], rep
    assert not rep["right_pairing"] and not rep["holds"], rep


def test_memoized_results_equal_fresh_computations():
    for spec, rep in (("symmetric(3)", "std"), ("cyclic(4)", "sl2"),
                      ("quaternion8", "sl2")):
        G, v = load(spec, rep)
        for g in range(G.n):
            first = log_trace(v, g)
            again = log_trace(v, g)
            assert again is first, f"{spec}: log trace of {g} was recomputed"
            fresh = log_trace(ClassFunction(G, v.values), g)
            assert again.sub is fresh.sub
            assert (again.char, again.rank) == (fresh.char, fresh.rank), (
                f"{spec}: memoized log trace of {g} differs from a fresh one"
            )
        for cls in build_double_sectors(G):
            first = twisted_pullback(v, cls.rep)
            again = twisted_pullback(v, cls.rep)
            assert again.char is first.char, (
                f"{spec}: obstruction class of {cls.rep} was recomputed"
            )
            fresh = twisted_pullback(ClassFunction(G, v.values), cls.rep)
            assert again.sub is fresh.sub
            assert (again.char, again.mults, again.rank) == (
                fresh.char, fresh.mults, fresh.rank
            ), f"{spec}: memoized class of {cls.rep} differs from a fresh one"


def test_identity_family_splits_each_element_once(monkeypatch):
    G, v = load("symmetric(3)", "std")
    calls = []
    real = logtrace.LogTraceClass

    def counted(g, sub, char, rank):
        calls.append(g)
        return real(g, sub, char, rank)

    monkeypatch.setattr(logtrace, "LogTraceClass", counted)
    for a in range(G.n):
        for b in range(G.n):
            for c in range(G.n):
                assert v_identity_check(v, (a, b, c))["holds"]
    assert len(calls) <= G.n, f"{len(calls)} log traces for {G.n} elements"


def test_warm_memo_still_refuses_unseen_bad_input():
    G, v = load("symmetric(3)", "std")
    s = G.element_from_string("s1")
    for g in range(G.n):
        log_trace(v, g)
    for a in range(G.n):
        for b in range(G.n):
            twisted_pullback(v, (a, b))
    try:
        twisted_pullback(v, ())
        raise AssertionError("the empty tuple was accepted")
    except UserError:
        pass


def test_log_trace_rank_check_survives_optimize():
    # assert statements vanish under -O; the rank-equals-age check must not
    script = """
import sys
from inertial import logtrace
from inertial.characters import catalog_character
from inertial.errors import TheoremViolation
from inertial.groups import catalog_group
if not sys.flags.optimize:
    sys.exit(2)
real_age = logtrace.age
logtrace.age = lambda v, g: real_age(v, g) + 1
G = catalog_group("cyclic(2)")
try:
    logtrace.log_trace(catalog_character(G, "sl2"), 1)
except TheoremViolation:
    sys.exit(0)
sys.exit(1)
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_obstruction_classes_match_the_isotypic_reference():
    # the pointwise isotypic route, kept as an oracle, against the library's
    # two derivations on every double and triple class
    for spec, rep in (("symmetric(3)", "std"), ("cyclic(4)", "sl2"),
                      ("quaternion8", "sl2"), ("dihedral(5)", "regular")):
        G, v = load(spec, rep)
        for cls in build_double_sectors(G) + triple_sectors(G):
            ms = cls.rep + (G.inv[G.prod(cls.rep)],)
            assert (twisted_pullback(v, cls.rep).mults
                    == reference_obstruction(v, ms)), (
                f"{spec}/{rep}: obstruction class of {ms} disagrees with the "
                "isotypic reference"
            )


def test_corrupted_pullback_column_raises_under_optimize():
    # one wrong entry in the only nontrivial column of H = cyclic(2) must stop
    # the run (exit 3) with a message naming the tuple, also under -O
    script = """
import sys
from inertial import logtrace
from inertial.characters import character_table, trivial_character
from inertial.cli import main
if not sys.flags.optimize:
    sys.exit(2)
real = logtrace.pullback_columns
def corrupted(v, Z, H):
    triv = trivial_character(H.group)
    return [[c + (i == 0 and chi != triv) for i, c in enumerate(col)]
            for chi, col in zip(character_table(H.group), real(v, Z, H))]
logtrace.pullback_columns = corrupted
sys.exit(main(["obstruction", "--group", "catalog:cyclic(2)", "--rep", "sl2",
               "--tuple", "1,1,1"]))
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, env=env)
    assert proc.returncode == 3, proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert error["kind"] == "TheoremViolation"
    assert "tuple [1, 1, 1, 1]" in error["message"], error["message"]
