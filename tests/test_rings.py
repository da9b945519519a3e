import json
import os
import subprocess
import sys
from fractions import Fraction

from inertial import characters, rings
from inertial.characters import (
    ClassFunction,
    catalog_character,
    character_table,
    trivial_character,
    zero_character,
)
from inertial.errors import TheoremViolation, UserError
from inertial.groups import FiniteGroup, catalog_group
from inertial.inertia import build_double_sectors, triple_sectors
from inertial.logtrace import age, twisted_pullback
from inertial.rings import (
    GradedAlgebra,
    algebra_from_json,
    chow_ring,
    eta_pairing,
    k_ring,
    lusztig_ring,
    verify,
)

from oracles import class_sum_constants, reference_k_table

ALL_CHECKS = ["identity", "commutativity", "associativity", "grading"]


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
    G = catalog_group("symmetric(3)")
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
    G = catalog_group("symmetric(3)")
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
        rep = alg.context["sectors"].sectors[idx].rep
        assert g == age(v, rep)


def test_point_chow_identity_row():
    G = catalog_group("alternating(4)")
    alg = chow_ring(G, zero_character(G))
    e = alg.identity_index
    for i in range(alg.dim):
        assert alg.table.get((e, i), {}) == {i: Fraction(1)}
        assert alg.table.get((i, e), {}) == {i: Fraction(1)}


def test_ring_axioms_on_a_linear_pair():
    G = catalog_group("symmetric(3)")
    v = catalog_character(G, "std")
    for alg in (chow_ring(G, v), k_ring(G, v)):
        checks = ALL_CHECKS + ["multiproduct"]
        report = verify(alg, checks)
        assert report == {name: True for name in checks}, report


def test_k_ring_s3_fusion_corner():
    G = catalog_group("symmetric(3)")
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
        G = catalog_group(spec)
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
    G = catalog_group("symmetric(3)")
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
    G = catalog_group("quaternion8")
    a = lusztig_ring(G)
    b = k_ring(G, zero_character(G))
    assert a.labels == b.labels
    assert a.table == b.table
    assert a.identity_index == b.identity_index


def test_k_identity_is_trivial_character_at_identity_sector():
    G = catalog_group("symmetric(3)")
    alg = k_ring(G, zero_character(G))
    basis = alg.context["kbasis"]
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
    G = catalog_group("symmetric(3)")
    alg = chow_ring(G, zero_character(G))
    eta = eta_pairing(alg)
    assert eta.matrix[0][0] == Fraction(1, 6), "eta(1,1) must be 1/|G|"
    s = G.class_of(G.element_from_string("s1"))
    assert eta.matrix[s][s] == Fraction(1, 2)
    c3 = G.class_of(G.element_from_string("s1*s2"))
    sigma = alg.context["sectors"].sigma
    assert eta.matrix[c3][sigma[c3]] == Fraction(1, 3)
    for i in range(alg.dim):
        for j in range(alg.dim):
            if j != sigma[i]:
                assert eta.matrix[i][j] == 0


def test_eta_pairing_k_mode_z2():
    G = catalog_group("cyclic(2)")
    alg = k_ring(G, zero_character(G))
    eta = eta_pairing(alg)
    basis = alg.context["kbasis"]
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


def test_eta_rejects_linear_reps():
    G = catalog_group("cyclic(2)")
    alg = chow_ring(G, catalog_character(G, "sl2"))
    try:
        eta_pairing(alg)
        raise AssertionError("pairing must require a point quotient")
    except UserError:
        pass


def test_frobenius_through_verify():
    for spec in ("symmetric(3)", "quaternion8"):
        G = catalog_group(spec)
        for build in (chow_ring, k_ring):
            alg = build(G, zero_character(G))
            assert verify(alg, ["frobenius"]) == {"frobenius": True}, (
                f"{spec}: {build.__name__} is not Frobenius"
            )


def test_corrupted_table_fails_associativity():
    G = catalog_group("symmetric(3)")
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


def test_corrupted_table_fails_frobenius_and_multiproduct():
    # the checks that share the triple loop with associativity must also see
    # a single wrong structure constant
    for name in ("frobenius", "multiproduct"):
        G = catalog_group("symmetric(3)")
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
    G = catalog_group("symmetric(3)")
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

    def counted(*args):
        calls.append(args)
        return characters.transport(*args)

    monkeypatch.setattr(rings, "transport", counted)
    K = k_ring(G, catalog_character(G, "std"))
    assert verify(K, ["multiproduct"]) == {"multiproduct": True}
    assert lusztig_ring(G).dim == K.dim
    assert calls == [], "a warm group rebuilt its restriction tables"


def test_class_factors_take_lambda_once_per_irreducible(monkeypatch):
    # a fresh copy of cyclic(4), so no group memo is warm: the multiproduct
    # check computes lambda_-1(rho^dual) once per irreducible rho of each
    # distinct tuple centralizer, not once per tuple class
    C4 = catalog_group("cyclic(4)")
    G = FiniteGroup(C4.table)
    v = ClassFunction(G, catalog_character(C4, "sl2").values)
    calls = []

    def counted(chi):
        calls.append(chi)
        return characters.lambda_minus_one_dual(chi)

    monkeypatch.setattr(rings, "lambda_minus_one_dual", counted)
    K = k_ring(G, v)
    assert verify(K, ["multiproduct"]) == {"multiproduct": True}
    centralizers = {cls.centralizer for cls in build_double_sectors(G)
                    + triple_sectors(G)}
    bound = sum(len(character_table(Z.group)) for Z in centralizers)
    assert 0 < len(calls) <= bound, f"{len(calls)} lambda_-1 calls, bound {bound}"
