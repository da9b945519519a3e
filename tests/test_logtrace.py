import os
import subprocess
import sys
from fractions import Fraction

from inertial import logtrace
from inertial.characters import (
    ClassFunction,
    catalog_character,
    character_table,
    class_function,
    decompose,
    invariant_dimension,
    restrict_between,
    restrict_to,
    transport,
)
from inertial.errors import UserError
from inertial.groups import catalog_group
from inertial.inertia import build_double_sectors
from inertial.logtrace import (
    age,
    dim_int,
    eigen_characters,
    fw_check,
    invariants_char,
    log_restriction,
    log_trace,
    twisted_pullback,
    v_identity_check,
)

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
            li = log_trace(v, G.inv[g], lt.sub)
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
            mults, genuine = decompose(lt.char * o)
            assert genuine or all(
                (m.to_rational() is not None and m.to_rational().denominator == 1)
                for m in mults
            ), f"{spec}: ord(g) * L(g) is not integral for {g}"


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
    sign = class_function(lt.sub.group, [1, -1])
    assert lt.char == sign


def test_eigen_characters_sum_and_invariants():
    for spec, rep in PAIRS:
        G, v = load(spec, rep)
        for g in range(G.n):
            dec = eigen_characters(v, g)
            Z = dec.sub
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
    try:
        invariants_char(v, (s,), G.whole())
        raise AssertionError("whole group does not centralize a transposition")
    except UserError:
        pass


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
    for a in range(G.n):
        rep = fw_check(v, (a, G.inv[a]))
        assert rep["holds"] and rep["integral"]
        assert rep["lhs"] >= rep["rhs"]
    try:
        fw_check(v, (1, 1, 1))
        raise AssertionError("tuple with non-trivial product accepted")
    except UserError:
        pass


def test_v_identity_spot_checks():
    G, v = load("symmetric(3)", "std")
    s = G.element_from_string("s1")
    r = G.element_from_string("s1*s2")
    for triple in ((s, r, s), (r, r, r), (0, s, r), (s, s, s)):
        rep = v_identity_check(v, triple)
        assert rep["holds"], f"identity family fails at {triple}: {rep}"
        assert rep["left_pairing"] == rep["right_pairing"]


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
        for cls in build_double_sectors(G).classes:
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
    real = logtrace.eigen_characters

    def counted(v, g, sub=None):
        calls.append(g)
        return real(v, g, sub)

    monkeypatch.setattr(logtrace, "eigen_characters", counted)
    for a in range(G.n):
        for b in range(G.n):
            for c in range(G.n):
                assert v_identity_check(v, (a, b, c))["holds"]
    assert len(calls) <= G.n, f"{len(calls)} eigen splits for {G.n} elements"


def test_warm_memo_still_refuses_unseen_bad_input():
    G, v = load("symmetric(3)", "std")
    s = G.element_from_string("s1")
    for g in range(G.n):
        log_trace(v, g)
    for a in range(G.n):
        for b in range(G.n):
            twisted_pullback(v, (a, b))
    try:
        log_trace(v, s, G.whole())
        raise AssertionError("a non-centralizing subgroup was accepted")
    except UserError:
        pass
    try:
        log_restriction(v, (s, s, s))
        raise AssertionError("a tuple with non-trivial product was accepted")
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
