import io
import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

from inertial import characters, logtrace, rings
from inertial.characters import (
    ClassFunction,
    catalog_character,
    character_table,
    trivial_character,
    zero_character,
)
from inertial.errors import TheoremViolation, UserError
from inertial.chern import orbifold_chern
from inertial.cli import load_group, main
from inertial.groups import FiniteGroup, catalog_group
from inertial.inertia import build_double_sectors, build_sectors, triple_sectors
from inertial.logtrace import age, int_coords, invariants_char, twisted_pullback
from inertial.rings import (
    GradedAlgebra,
    algebra_from_json,
    chow_ring,
    eta_pairing,
    k_basis,
    k_ring,
    verify,
)

from oracles import (
    class_sum_constants,
    factorization_products,
    reference_associativity,
    reference_frobenius,
    reference_k_pairing,
    reference_k_table,
    reference_multiproduct,
    toric_character,
    toric_products,
)

ALL_CHECKS = ["identity", "commutativity", "associativity", "grading"]
TRIPLE_CHECKS = ("associativity", "frobenius", "multiproduct")

# Each catalog_group call builds a new group.  The groups several tests of
# this module read are built once here, so their tables, sector and triple
# indices and K basis are derived once, in each group's memo.
GROUPS = {spec: catalog_group(spec) for spec in (
    "cyclic(2)", "cyclic(4)", "quaternion8", "symmetric(3)", "symmetric(4)",
    "dihedral(5)")}


def test_graded_algebra_basics():
    table = {
        (0, 0): {0: Fraction(1)},
        (0, 1): {1: Fraction(1)},
        (1, 0): {1: Fraction(1)},
        (1, 1): {0: Fraction(0), 1: Fraction(2)},
    }
    alg = GradedAlgebra(["one", "x"], [0, 0], table, "rational", 0)
    assert alg.dim == 2
    assert alg.table.get((1, 1), {}) == {1: Fraction(2)}, "zero terms must be pruned"
    prod = alg.mul({0: Fraction(2), 1: Fraction(1)}, {1: Fraction(3)})
    assert prod == {1: Fraction(12)}
    report = verify(alg, ALL_CHECKS)
    assert report == {name: True for name in ALL_CHECKS}
    assert alg.verified["associativity"]


def test_algebra_json_round_trip():
    G = GROUPS["symmetric(3)"]
    alg = chow_ring(G, zero_character(G))
    blob = alg.to_json()
    back = algebra_from_json(blob)
    assert back.labels == alg.labels
    assert back.grading == alg.grading
    assert back.table == alg.table
    assert back.identity_index == alg.identity_index
    assert back.context is None
    assert verify(back, ALL_CHECKS) == {name: True for name in ALL_CHECKS}
    one = {"basis": ["a"], "grading": ["0"], "identity": 0,
           "table": [{"i": 0, "j": 0, "terms": [{"k": 0, "c": "1"}]}]}
    assert algebra_from_json(one).dim == 1
    out_of_range = dict(one, table=[
        {"i": 0, "j": 0, "terms": [{"k": 3, "c": "1"}]}])
    for bad in ({}, {"basis": ["a"]}, {"basis": ["a"], "grading": ["1"]},
                out_of_range,
                dict(one, identity=7),
                dict(one, basis="ab", grading=["0", "0"]),
                dict(one, grading=["0", "0"]),
                dict(one, table=[{"i": 1, "j": 0, "terms": []}]),
                dict(one, grading=["1e10000000"]),
                dict(one, table=[
                    {"i": 0, "j": 0, "terms": [{"k": 0, "c": "1e-9999999"}]}]),
                {"basis": [], "grading": [], "identity": 0, "table": []}):
        try:
            algebra_from_json(bad)
            raise AssertionError(f"malformed algebra JSON accepted: {bad}")
        except UserError:
            pass


def test_bad_index_from_a_ring_builder_is_an_internal_fault():
    # indices that reach GradedAlgebra from the library, not from JSON,
    # are the program's fault, not bad input
    for table, identity in (({(0, 0): {1: Fraction(1)}}, 0), ({}, 2)):
        try:
            GradedAlgebra(["one"], [0], table, "rational", identity)
            raise AssertionError("out-of-range index accepted")
        except TheoremViolation:
            pass


def test_chow_matches_class_sum_oracle():
    for spec in ("symmetric(3)", "dihedral(4)", "quaternion8", "alternating(4)"):
        G = catalog_group(spec)
        alg = chow_ring(G, zero_character(G))
        classes, constants = class_sum_constants(G.table)
        # map library class indices to oracle indices through element sets
        lib_classes = [frozenset(c) for c in G.conjugacy_classes()]
        oracle_index = {frozenset(c): k for k, c in enumerate(classes)}
        sigma = [oracle_index[c] for c in lib_classes]
        assert sorted(sigma) == list(range(len(classes)))
        for i in range(alg.dim):
            for j in range(alg.dim):
                got = alg.table.get((i, j), {})
                want = constants[(sigma[i], sigma[j])]
                translated = {}
                for k, c in got.items():
                    translated[sigma[k]] = c
                assert translated == want, (
                    f"{spec}: x_{i} * x_{j} disagrees with the class-sum oracle"
                )


def test_transposition_square_in_s3():
    G = GROUPS["symmetric(3)"]
    alg = chow_ring(G, zero_character(G))
    s = G.element_from_string("s1")
    c3 = G.element_from_string("s1*s2")
    i = G.class_of(s)
    terms = alg.table.get((i, i), {})
    want = {0: Fraction(3), G.class_of(c3): Fraction(3)}
    assert terms == want, "square of the transposition class must be 3 + 3c"


def test_chow_grading_is_age():
    G = catalog_group("quaternion8")
    v = catalog_character(G, "sl2")
    alg = chow_ring(G, v)
    for idx, g in enumerate(alg.grading):
        rep = build_sectors(G).sectors[idx].rep
        assert g == age(v, rep)


def test_point_chow_identity_row():
    G = catalog_group("alternating(4)")
    alg = chow_ring(G, zero_character(G))
    e = alg.identity_index
    for i in range(alg.dim):
        assert alg.table.get((e, i), {}) == {i: Fraction(1)}
        assert alg.table.get((i, e), {}) == {i: Fraction(1)}


def test_ring_axioms_on_a_linear_pair():
    G = GROUPS["symmetric(3)"]
    v = catalog_character(G, "std")
    for alg in (chow_ring(G, v), k_ring(G, v)):
        checks = ALL_CHECKS + ["multiproduct"]
        report = verify(alg, checks)
        assert report == {name: True for name in checks}, report


def test_k_ring_s3_fusion_corner():
    G = GROUPS["symmetric(3)"]
    alg = k_ring(G, zero_character(G))
    assert alg.dim == 8
    sizes = {}
    for label in alg.labels:
        sector = label.split("]")[0]
        sizes[sector] = sizes.get(sector, 0) + 1
    assert sorted(sizes.values()) == [2, 3, 3]
    for terms in alg.table.values():
        for c in terms.values():
            assert c.denominator == 1 and c >= 0, "constants must be counts"
    assert verify(alg, ALL_CHECKS) == {name: True for name in ALL_CHECKS}


def test_k_ring_matches_per_product_reference():
    for spec, rep in (("symmetric(3)", "std"), ("symmetric(3)", "zero"),
                      ("quaternion8", "sl2"), ("cyclic(4)", "sl2"),
                      ("dihedral(5)", "regular"), ("symmetric(4)", "zero")):
        G = GROUPS[spec]
        v = catalog_character(G, rep)
        assert k_ring(G, v).table == reference_k_table(G, v), (
            f"{spec}/{rep}: K table disagrees with the per-product reference"
        )


def test_k_reference_pairs_exercise_moved_centralizers():
    # on these pairs the output map is a genuine restriction transpose: the
    # product's centralizer is larger than the pair's, and the conjugator
    # onto the product's sector is not the identity
    for spec in ("dihedral(5)", "symmetric(4)"):
        G = catalog_group(spec)
        classes = build_double_sectors(G)
        assert any(cls.centralizer is not G.centralizer(G.prod(cls.rep))
                   for cls in classes), spec
        assert any(cls.maps[-1][1] != 0 for cls in classes), spec


def test_k_tables_stay_integral_and_chow_tables_rational():
    G = GROUPS["symmetric(3)"]
    v = catalog_character(G, "std")
    alg = k_ring(G, v)
    assert all(type(c) is int
               for terms in alg.table.values() for c in terms.values())
    chow = chow_ring(G, v)
    assert all(isinstance(c, Fraction)
               for terms in chow.table.values() for c in terms.values())
    blob = json.dumps(alg.to_json(), sort_keys=True, indent=2)
    back = algebra_from_json(json.loads(blob))
    assert all(type(c) is int
               for terms in back.table.values() for c in terms.values())
    assert json.dumps(back.to_json(), sort_keys=True, indent=2) == blob


def test_lusztig_is_the_zero_rep_k_ring():
    # the lusztig command is k-ring with the zero character: the same
    # artifact but for its command name
    artifacts = []
    for argv in (["lusztig", "--group", "catalog:quaternion8"],
                 ["k-ring", "--group", "catalog:quaternion8", "--rep", "zero"]):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        artifacts.append(json.loads(out.getvalue()))
    a, b = artifacts
    assert (a.pop("command"), b.pop("command")) == ("lusztig", "k-ring")
    assert a == b


def test_k_identity_is_trivial_character_at_identity_sector():
    G = GROUPS["symmetric(3)"]
    alg = k_ring(G, zero_character(G))
    basis = k_basis(G)
    sector, t = basis.pairs[alg.identity_index]
    assert sector == 0
    assert character_table(G)[t] == trivial_character(G)


def test_obstruction_data_symmetry_under_rotation_and_swap():
    # the obstruction class of a pair class is unchanged by swapping the pair
    # or rotating it into (b, (ab)^-1): same centralizer, same class function
    for spec, rep in (("symmetric(3)", "std"), ("quaternion8", "sl2")):
        G = catalog_group(spec)
        v = catalog_character(G, rep)
        for cls in build_double_sectors(G):
            a, b = cls.rep
            base = twisted_pullback(v, (a, b))
            for other in ((b, a), (b, G.inv[G.op(a, b)])):
                tc = twisted_pullback(v, other)
                assert tc.sub is base.sub
                assert tc.char == base.char, (
                    f"{spec}: obstruction class not symmetric on {cls.rep}"
                )


def test_eta_pairing_chow():
    G = GROUPS["symmetric(3)"]
    alg = chow_ring(G, zero_character(G))
    eta = eta_pairing(G, "chow")
    assert eta.matrix[0][0] == Fraction(1, 6), "eta(1,1) must be 1/|G|"
    s = G.class_of(G.element_from_string("s1"))
    assert eta.matrix[s][s] == Fraction(1, 2)
    c3 = G.class_of(G.element_from_string("s1*s2"))
    sigma = build_sectors(G).sigma
    assert eta.matrix[c3][sigma[c3]] == Fraction(1, 3)
    for i in range(alg.dim):
        for j in range(alg.dim):
            if j != sigma[i]:
                assert eta.matrix[i][j] == 0


def test_eta_pairing_k_mode_z2():
    G = GROUPS["cyclic(2)"]
    alg = k_ring(G, zero_character(G))
    eta = eta_pairing(G, "k")
    basis = k_basis(G)
    chars = character_table(G)
    sign = next(
        t for t, chi in enumerate(chars) if chi != trivial_character(G)
    )
    # locate (sector of s, sign) in the flat basis
    idx = basis.index(1, sign)
    assert eta.matrix[idx][idx] == 1, "eta(sign at s, sign at s) = 1"
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert eta.matrix[i][j] == eta.matrix[j][i]


# every catalog group of order at most 24
SMALL_CATALOG = tuple(
    ["cyclic(%d)" % n for n in range(1, 25)]
    + ["dihedral(%d)" % n for n in range(1, 13)]
    + ["binary_dihedral(%d)" % n for n in range(1, 7)]
    + ["symmetric(%d)" % n for n in range(1, 5)]
    + ["alternating(%d)" % n for n in range(1, 5)]
    + ["quaternion8", "klein4"])


def test_dual_index_pairing_matches_the_fusion_rows():
    # the coordinate of the dual irreducible in each restriction row is the
    # invariant multiplicity the fusion rows give
    for spec in SMALL_CATALOG:
        G = catalog_group(spec)
        assert G.n <= 24
        eta = eta_pairing(G, "k")
        assert eta.matrix == reference_k_pairing(G), spec


# cyclic(n) acting on V = L_1 + ... + L_r with weights (a_1, .., a_r)
TORIC = (("cyclic(2)", (1,)), ("cyclic(3)", (1,)), ("cyclic(4)", (1, 3)),
         ("cyclic(5)", (1, 2)), ("cyclic(6)", (1, 5)), ("cyclic(6)", (1, 1, 4)),
         ("cyclic(4)", (1, 1, 1, 1)), ("cyclic(7)", (1, 2, 4)))


def test_toric_closed_forms_match_the_rings():
    # the closed forms of the toric quotient share no code with the log
    # traces, pullback columns, restriction tables or fusion tensors; on
    # (4; 1, 3) and (6; 1, 5) V is sl2, and K pins lambda_-1 of the dual
    for spec, weights in TORIC:
        G = catalog_group(spec)
        v = toric_character(G, weights)
        if sorted(a % G.n for a in weights) == [1, G.n - 1]:
            assert v == catalog_character(G, "sl2"), spec
        chow, k = toric_products(G, weights)
        assert chow_ring(G, v).table == chow, (spec, weights)
        assert k_ring(G, v).table == k, (spec, weights)


# the dihedral group of order 8 on the 4 vertices of a square, closed from
# a rotation and a reflection given as {"kind": "perm"} generators
SQUARE = '{"kind": "perm", "generators": [[1, 2, 3, 0], [0, 3, 2, 1]]}'


def _permutation_character(G):
    """C^m: each class representative's number of fixed points."""
    return ClassFunction(G, [
        sum(p[x] == x for x in range(len(p)))
        for p in map(G.permutations.__getitem__, G.class_reps())])


def test_factorization_rule_matches_the_chow_ring():
    # the Lehn-Sorger / Fantechi-Goettsche rule reads no character: on
    # V = C^m and C^m + C^m it gives the Chow table and the age grading of
    # every permutation group; alternating(4), whose classes are not closed
    # under inversion, pins the output class
    groups = ([catalog_group("symmetric(%d)" % n) for n in range(2, 6)]
              + [catalog_group("alternating(4)"), catalog_group("alternating(5)"),
                 load_group(SQUARE)])
    assert [G.n for G in groups] == [2, 6, 24, 120, 12, 60, 8]
    for G in groups:
        perm = _permutation_character(G)
        if G.catalog is not None:
            assert perm == catalog_character(G, "std") + trivial_character(G)
        for copies, v in ((1, perm), (2, perm + perm)):
            alg = chow_ring(G, v)
            table, grading = factorization_products(G, copies)
            assert alg.table == table, (G.label, copies)
            assert alg.grading == grading, (G.label, copies)


def test_chow_products_raise_when_the_fixed_spaces_differ():
    # when the ages of a pair add up, dim V^<m> = dim V^{prod} is a theorem
    # (the obstruction rank is not negative), so a violation stops the build
    # instead of dropping the class, also when assert statements are
    # stripped; on symmetric(3) with V = std, (s1, s2) has ages 1/2 + 1/2 =
    # age of the 3-cycle, and only the whole group is a non-cyclic <m>
    script = """
import sys
from inertial import characters
from inertial.characters import catalog_character
from inertial.errors import TheoremViolation
from inertial.groups import catalog_group
from inertial.rings import chow_ring
real = characters.invariant_dimension
characters.invariant_dimension = lambda v, H: real(v, H) + (H.order == 6)
G = catalog_group("symmetric(3)")
try:
    chow_ring(G, catalog_character(G, "std"))
except TheoremViolation as exc:
    print(exc)
    sys.exit(3)
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    for flags in ((), ("-O",)):
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              capture_output=True, env=env, text=True)
        assert proc.returncode == 3, (flags, proc.stdout, proc.stderr)
        assert "fixed spaces" in proc.stdout, flags


def test_zero_character_builds_no_obstruction_class(monkeypatch):
    # for V = 0 every obstruction class and pullback column is zero, so the
    # K product builds neither, in the ring and in the multiproduct check
    cases = ("symmetric(3)", "quaternion8", "symmetric(4)")
    before = {}
    for spec in cases:
        G = catalog_group(spec)
        before[spec] = k_ring(G, zero_character(G)).table

    def refused(*args):
        raise RuntimeError("an obstruction class was built for V = 0")

    monkeypatch.setattr(logtrace, "twisted_pullback", refused)
    monkeypatch.setattr(logtrace, "pullback_columns", refused)
    for spec in cases:
        G = catalog_group(spec)
        assert k_ring(G, zero_character(G)).table == before[spec], spec
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "--group", "catalog:symmetric(3)",
                     "--multiproduct"])
    assert code == 0
    assert json.loads(out.getvalue())["checks"] == {
        "chow": {"multiproduct": True}, "k": {"multiproduct": True}}


def test_k_basis_is_built_once_per_group(monkeypatch):
    # the K basis is group state: the ring, the pairing and the Chern map
    # of one group share one, and each group has its own
    built = []
    real = rings._KBasis

    def counted(G):
        built.append(G)
        return real(G)

    monkeypatch.setattr(rings, "_KBasis", counted)
    groups = [FiniteGroup(catalog_group(spec).table)
              for spec in ("symmetric(3)", "quaternion8")]
    for G in groups:
        v = zero_character(G)
        K = k_ring(G, v)
        eta_pairing(G, "k")
        orbifold_chern(G, {K.identity_index: 1})
        assert rings.k_basis(G).labels == K.labels
    assert built == groups


def test_eta_rejects_linear_reps():
    # the pairing is defined on the complete quotient only, so the Frobenius
    # check refuses a ring with V != 0
    G = GROUPS["cyclic(2)"]
    alg = chow_ring(G, catalog_character(G, "sl2"))
    try:
        verify(alg, ["frobenius"])
        raise AssertionError("pairing must require a point quotient")
    except UserError as exc:
        assert str(exc) == (
            "the pairing is only defined for the complete quotient (V = 0)")


def test_frobenius_through_verify():
    for spec in ("symmetric(3)", "quaternion8"):
        G = GROUPS[spec]
        for build in (chow_ring, k_ring):
            alg = build(G, zero_character(G))
            assert verify(alg, ["frobenius"]) == {"frobenius": True}, (
                f"{spec}: {build.__name__} is not Frobenius"
            )


@contextmanager
def _patched(**attrs):
    """Replace attributes of the rings module for the duration of a block."""
    saved = {name: getattr(rings, name) for name in attrs}
    for name, value in attrs.items():
        setattr(rings, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(rings, name, value)


def _packed_failure(alg, name):
    """The named check's verdict and the triple at which its packed loop
    stopped (None when it ran through)."""
    seen = []
    real = rings._first_failure

    def recorded(*args):
        seen.append(real(*args))
        return seen[-1]

    with _patched(_first_failure=recorded):
        ok = rings._CHECKS[name](alg)
    return ok, seen[-1]


def _direct(alg):
    """The product rule of a built ring applied to its triple classes."""
    ctx = alg.context
    G, v = ctx["group"], ctx["rep"]
    if ctx["kind"] == "chow":
        return rings._chow_products(G, v, triple_sectors(G))
    return rings._k_products(G, v, triple_sectors(G))


def _references(alg, direct, eta, names=TRIPLE_CHECKS):
    """The per-triple reference's first failing triple for each named check
    (Frobenius only when there is a pairing)."""
    refs = {"associativity": lambda: reference_associativity(alg),
            "frobenius": lambda: reference_frobenius(alg, eta),
            "multiproduct": lambda: reference_multiproduct(alg, direct)}
    return {name: refs[name]() for name in names
            if eta is not None or name != "frobenius"}


def _mismatches(alg, direct, eta, names=TRIPLE_CHECKS):
    """The named checks whose packed verdict or stopping triple differs from
    the reference on alg, the triple-class products and the pairing fixed
    to direct and eta."""
    fixed = {"_chow_products": lambda *args: direct,
             "_k_products": lambda *args: direct,
             "triple_sectors": lambda G: None,
             "eta_pairing": lambda *args: SimpleNamespace(matrix=eta)}
    out = []
    with _patched(**fixed):
        for name, ref in _references(alg, direct, eta, names).items():
            got = _packed_failure(alg, name)
            if got != (ref is None, ref):
                out.append("%s: packed %r, reference %r" % (name, got, ref))
    return out


def _corruptions(alg):
    """alg with one structure constant c_ij^k moved by +1 or -1, for every
    (i, j, k) in turn."""
    n = alg.dim
    for i, j, k in itertools.product(range(n), repeat=3):
        for step in (1, -1):
            table = {key: dict(terms) for key, terms in alg.table.items()}
            terms = table.setdefault((i, j), {})
            terms[k] = terms.get(k, 0) + step
            yield GradedAlgebra(alg.labels, alg.grading, table, alg.scalar,
                                alg.identity_index, alg.context)


def test_packed_checks_match_the_per_triple_reference():
    for spec, rep in (("symmetric(3)", "zero"), ("symmetric(3)", "std"),
                      ("cyclic(4)", "sl2"), ("quaternion8", "sl2")):
        G = GROUPS[spec]
        v = catalog_character(G, rep)
        for build in (chow_ring, k_ring):
            alg = build(G, v)
            eta = (eta_pairing(G, alg.context["kind"]).matrix
                   if v.dim() == 0 else None)
            for name, ref in _references(alg, _direct(alg), eta).items():
                assert ref is None, f"{spec}/{rep}: reference {name} fails"
                assert _packed_failure(alg, name) == (True, None), (
                    f"{spec}/{rep} {build.__name__}: packed {name} fails")


def test_corrupted_table_fails_associativity():
    G = GROUPS["symmetric(3)"]
    alg = chow_ring(G, zero_character(G))
    blob = alg.to_json()
    # find a non-identity product entry and corrupt it
    target = next(
        entry
        for entry in blob["table"]
        if entry["i"] != alg.identity_index and entry["j"] != alg.identity_index
    )
    target["terms"][0]["c"] = str(Fraction(target["terms"][0]["c"]) + 1)
    bad = algebra_from_json(blob)
    report = verify(bad, ["associativity"])
    assert report["associativity"] is False
    # every single-entry corruption of the Chow and K rings: the packed
    # check stops at the reference's first failing triple
    for build in (chow_ring, k_ring):
        for bad in _corruptions(build(G, zero_character(G))):
            want = reference_associativity(bad)
            assert _packed_failure(bad, "associativity") == (
                want is None, want), build.__name__


def test_corrupted_table_fails_frobenius_and_multiproduct():
    # the checks that share the triple loop with associativity must also see
    # a single wrong structure constant
    for name in ("frobenius", "multiproduct"):
        G = GROUPS["symmetric(3)"]
        alg = k_ring(G, zero_character(G))
        assert verify(alg, [name]) == {name: True}
        e = alg.identity_index
        i, j = next(key for key in sorted(alg.table) if e not in key)
        terms = alg.table[(i, j)]
        k = min(terms)
        terms[k] += 1
        assert verify(alg, [name]) == {name: False}, (
            f"{name} missed a corrupted entry at {(i, j, k)}"
        )
    # and agree with the reference, triple for triple, on every single-entry
    # corruption of the Chow and K rings
    for build in (chow_ring, k_ring):
        alg = build(G, zero_character(G))
        direct = _direct(alg)
        eta = eta_pairing(G, alg.context["kind"]).matrix
        for bad in _corruptions(alg):
            assert _mismatches(bad, direct, eta,
                               ("frobenius", "multiproduct")) == [], (
                build.__name__)


# Seeded tables for the packing width: each kind of coefficient once.  The
# build context of every synthetic table is the complete quotient of the
# trivial group, so the Frobenius check takes it; _mismatches fixes the
# pairing and the triple products it would read.
_TRIVIAL = catalog_group("cyclic(1)")
_SYNTHETIC = {"kind": "chow", "group": _TRIVIAL,
              "rep": zero_character(_TRIVIAL)}
_COEFFICIENTS = {
    "negative": lambda rnd: rnd.choice((-3, -2, -1, 1, 2, 3)),
    "rational": lambda rnd: Fraction(rnd.choice((-7, -2, 1, 3, 5)),
                                     rnd.randint(1, 12)),
    "huge": lambda rnd: rnd.choice((-1, 1)) * rnd.randint(10**40, 10**41),
}


def _polynomial_table(n, coeffs):
    """Q[x]/(x^n - sum_t coeffs[t] x^t) on the basis 1, x, .., x^(n-1):
    commutative and associative."""
    powers = [{t: 1} for t in range(n)]
    for _ in range(n - 1):
        top = powers[-1].get(n - 1, 0)
        shifted = {t + 1: c for t, c in powers[-1].items() if t + 1 < n}
        for t, c in enumerate(coeffs):
            shifted[t] = shifted.get(t, 0) + top * c
        powers.append(shifted)
    return {(a, b): powers[a + b] for a in range(n) for b in range(n)}


def _matrix_table(scale):
    """2x2 matrices on the basis scale[a][b] E_ab: associative, not
    commutative."""
    units = [(a, b) for a in range(2) for b in range(2)]
    return {(units.index((a, b)), units.index((b, d))):
            {units.index((a, d)):
             Fraction(scale[a][b] * scale[b][d]) / scale[a][d]}
            for a, b, d in itertools.product(range(2), repeat=3)}


def _width_cases(seed):
    """(algebra, direct, eta) triples: associative tables with their triple
    products and a pairing eta(a, b) = lambda(ab), which is Frobenius for
    any associative product; then each with one entry moved, and random
    tables that are neither associative nor Frobenius for that pairing."""
    rnd = random.Random(seed)
    for coeff in _COEFFICIENTS.values():
        n = rnd.randint(3, 5)
        for table in (_polynomial_table(n, [coeff(rnd) for _ in range(n)]),
                      _matrix_table([[coeff(rnd) for _ in range(2)]
                                     for _ in range(2)])):
            n = 1 + max(max(key) for key in table)
            alg = GradedAlgebra(["e%d" % i for i in range(n)], [0] * n,
                                table, "rational", 0, _SYNTHETIC)
            direct = {(i, j, k): alg.mul(alg.table.get((i, j), {}), {k: 1})
                      for i, j, k in itertools.product(range(n), repeat=3)}
            lam = [coeff(rnd) for _ in range(n)]
            eta = [[sum(c * lam[k] for k, c in alg.table.get((i, j), {}).items())
                    for j in range(n)] for i in range(n)]
            yield alg, direct, eta
            moved = {key: dict(terms) for key, terms in alg.table.items()}
            terms = moved.setdefault((rnd.randrange(n), rnd.randrange(n)), {})
            k = rnd.randrange(n)
            terms[k] = terms.get(k, 0) + coeff(rnd)
            yield (GradedAlgebra(alg.labels, alg.grading, moved, "rational",
                                 0, alg.context), direct, eta)
            # a triple product no table with denominator D can reach, D^2
            # leaving it fractional
            off = dict(direct)
            key = (rnd.randrange(n), rnd.randrange(n), rnd.randrange(n))
            off[key] = {**off[key], 0: off[key].get(0, 0)
                        + Fraction(1, 2**127 - 1)}
            yield alg, off, eta
            noise = {(i, j): {k: coeff(rnd) for k in range(n)
                              if rnd.random() < 0.5}
                     for i in range(n) for j in range(n)
                     if rnd.random() < 0.7}
            yield (GradedAlgebra(alg.labels, alg.grading, noise, "rational",
                                 0, alg.context), direct, eta)


def _carry_case():
    """(algebra, direct) whose first associator, at (0, 0, 0), has
    coordinates (0, 4, -1): every coefficient is +-1 and an entry has at
    most two terms, so coordinates stay within 2 and three bits keep them
    apart, while at two bits 4 * 2^2 - 1 * 2^4 packs to 0.  direct is the
    table's own (e_i e_j) e_k but for (0, 0, 0), moved from (0, 2, 0) to
    (0, 10, -1): at the table's three bits 10 * 2^3 - 1 * 2^6 packs to
    2 * 2^3, so the digits must widen for the direct values too."""
    table = {(0, 0): {1: 1, 2: 1}, (1, 0): {1: 1}, (2, 0): {1: 1},
             (0, 1): {1: -1}, (0, 2): {1: -1, 2: 1}}
    alg = GradedAlgebra(["x", "y", "z"], [0] * 3, table, "integer", 0,
                        _SYNTHETIC)
    direct = {(i, j, k): alg.mul(alg.table.get((i, j), {}), {k: 1})
              for i, j, k in itertools.product(range(3), repeat=3)}
    direct[(0, 0, 0)] = {1: 10, 2: -1}
    return alg, direct


def _packing_mismatches():
    """Every disagreement between the packed checks and the reference on the
    seeded width cases and the carry case, and whether the carry case is
    missed one bit narrower; [] when all agree and it is."""
    out = []
    for seed in range(3):
        for case in _width_cases(seed):
            out += _mismatches(*case)
    alg, direct = _carry_case()
    out += _mismatches(alg, direct, None)
    width = rings._digit_width
    with _patched(_digit_width=lambda bound: width(bound) - 1):
        if _packed_failure(alg, "associativity")[1] == (0, 0, 0):
            out.append("carry case: still seen one bit narrower")
    return out


def test_packing_width_agrees_with_the_reference():
    alg, direct = _carry_case()
    assert reference_associativity(alg) == (0, 0, 0)
    assert reference_multiproduct(alg, direct) == (0, 0, 0)
    assert _packing_mismatches() == []
    # the same cases with assert statements stripped
    script = ("import json, test_rings; "
              "print(json.dumps(test_rings._packing_mismatches()))")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.path.join(root, "tests"),
                    env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_pairing_invariants_raise_under_optimize():
    # one perturbed restriction row read by the pairing must stop the run
    # (exit 3) also when assert statements are stripped: on cyclic(2) the
    # extra 1 lands above the diagonal only, so the matrix is not symmetric
    script = """
import sys
from inertial import rings
from inertial.cli import main
if not sys.flags.optimize:
    sys.exit(2)
real = rings._restriction
def perturbed(G, s, w, Zm):
    sub, rows = real(G, s, w, Zm)
    if sys._getframe(1).f_code.co_name != "eta_pairing":
        return sub, rows
    return sub, [[c + ((t, q) == (0, 1)) for q, c in enumerate(row)]
                 for t, row in enumerate(rows)]
rings._restriction = perturbed
sys.exit(main(["eta", "--group", "catalog:cyclic(2)", "--mode", "k"]))
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
    assert "not symmetric" in error["message"]


def test_checks_requiring_context_refuse_parsed_tables():
    G = GROUPS["symmetric(3)"]
    parsed = algebra_from_json(chow_ring(G, zero_character(G)).to_json())
    for name in ("frobenius", "multiproduct"):
        try:
            verify(parsed, [name])
            raise AssertionError(f"{name} must need the build context")
        except UserError:
            pass
    try:
        verify(parsed, ["nonsense"])
        raise AssertionError("unknown check accepted")
    except UserError:
        pass


def test_warm_group_shares_restriction_tables(monkeypatch):
    G = catalog_group("symmetric(3)")
    verify(k_ring(G, catalog_character(G, "std")), ["multiproduct"])
    calls = []
    real = characters.transport

    def counted(*args):
        calls.append(args)
        return real(*args)

    # the ring builders import transport from characters when they run
    monkeypatch.setattr(characters, "transport", counted)
    K = k_ring(G, catalog_character(G, "std"))
    assert verify(K, ["multiproduct"]) == {"multiproduct": True}
    assert k_ring(G, zero_character(G)).dim == K.dim
    assert calls == [], "a warm group rebuilt its restriction tables"


def test_class_factors_take_lambda_once_per_irreducible(monkeypatch):
    # a fresh copy of cyclic(4), so no group memo is warm: the multiproduct
    # check computes lambda_-1(rho^dual) once per irreducible rho of each
    # distinct tuple centralizer, not once per tuple class
    C4 = catalog_group("cyclic(4)")
    G = FiniteGroup(C4.table)
    v = ClassFunction(G, catalog_character(C4, "sl2").values)
    calls = []
    real = characters.lambda_minus_one_dual

    def counted(chi):
        calls.append(chi)
        return real(chi)

    monkeypatch.setattr(characters, "lambda_minus_one_dual", counted)
    K = k_ring(G, v)
    assert verify(K, ["multiproduct"]) == {"multiproduct": True}
    centralizers = {cls.centralizer for cls in build_double_sectors(G)
                    + triple_sectors(G)}
    bound = sum(len(character_table(Z.group)) for Z in centralizers)
    assert 0 < len(calls) <= bound, f"{len(calls)} lambda_-1 calls, bound {bound}"


def test_class_factors_only_for_the_irreducibles_they_use(monkeypatch):
    calls = []
    real = characters.lambda_minus_one_dual

    def counted(chi):
        calls.append((chi.group, character_table(chi.group).index(chi)))
        return real(chi)

    monkeypatch.setattr(characters, "lambda_minus_one_dual", counted)
    S4 = catalog_group("symmetric(4)")
    # fresh copies, so no group memo is warm; with V = 0 every class factor
    # is 1 and takes no lambda_-1 at all
    G = FiniteGroup(S4.table)
    k_ring(G, zero_character(G))
    assert calls == []
    G = FiniteGroup(S4.table)
    v = ClassFunction(G, catalog_character(S4, "std").values)
    k_ring(G, v)
    # one call per irreducible rho of a pair centralizer Z_m with w_rho > 0,
    # w the coordinates of W = V(m) + V^{m1 m2} - V^{<m1, m2>}
    used = set()
    for cls in build_double_sectors(G):
        Z = cls.centralizer
        W = (twisted_pullback(v, cls.rep).char
             + invariants_char(v, (G.prod(cls.rep),), Z)
             - invariants_char(v, cls.rep, Z))
        used.update((Z.group, rho) for rho, n in enumerate(int_coords(W))
                    if n > 0)
    assert len(calls) == len(set(calls)), "a lambda_-1 taken twice"
    assert set(calls) == used
    assert len(used) < sum(len(character_table(H)) for H in {H for H, _ in used})
