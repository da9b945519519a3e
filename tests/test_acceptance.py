"""End-to-end acceptance checks, one test per criterion.

Every comparison is exact (cyclotomic/rational arithmetic, no floats).  The
terminal summary hook in conftest.py prints one PASS/FAIL line per criterion
after the run.
"""
import itertools
import json
from fractions import Fraction
from functools import lru_cache

from inertial.characters import (
    ClassFunction,
    catalog_character,
    character_table,
    transport,
    trivial_character,
    zero_character,
)
from inertial.chern import orbifold_chern, star_T, support_project
from inertial.cyclotomic import cyc
from inertial.groups import catalog_group
from inertial.inertia import build_double_sectors, build_sectors
from inertial.logtrace import fw_check, twisted_pullback, v_identity_check
from inertial.rings import chow_ring, eta_pairing, k_basis, k_ring, verify

from oracles import (
    CLASSICAL_DEGREES,
    class_sum_constants,
    expand_components,
    reference_f_shriek,
    reference_push_twist,
)
from test_cli import run_cli

# every catalog pair: the SL2 cyclic family plus the three named quotients
PAIRS = [("cyclic(%d)" % n, "sl2") for n in range(1, 7)] + [
    ("symmetric(3)", "std"),
    ("quaternion8", "sl2"),
    ("alternating(4)", "std"),
]

TABLE_GROUPS = [
    "symmetric(3)", "dihedral(4)", "quaternion8", "alternating(4)",
] + ["cyclic(%d)" % n for n in range(1, 13)]

RING_CHECKS = ["identity", "commutativity", "associativity", "grading", "multiproduct"]


@lru_cache(maxsize=None)
def pair(spec, repname):
    G = catalog_group(spec)
    return G, catalog_character(G, repname)


@lru_cache(maxsize=None)
def rings_for(spec, repname):
    G, v = pair(spec, repname)
    return chow_ring(G, v), k_ring(G, v)


def test_criterion_01():
    for spec in TABLE_GROUPS:
        G = catalog_group(spec)
        table = character_table(G)
        sizes = [len(c) for c in G.conjugacy_classes()]
        r = len(sizes)
        for i in range(r):
            for j in range(r):
                total = cyc(0)
                for c in range(r):
                    total = total + (
                        table[i].values[c]
                        * table[j].values[c].conjugate()
                        * cyc(sizes[c])
                    )
                want = cyc(G.n if i == j else 0)
                assert total == want, f"{spec}: row orthogonality fails at {(i, j)}"
        for c in range(r):
            for d in range(r):
                total = cyc(0)
                for i in range(r):
                    total = total + table[i].values[c] * table[i].values[d].conjugate()
                want = cyc(G.n // sizes[c] if c == d else 0)
                assert total == want, f"{spec}: column orthogonality fails at {(c, d)}"
        degrees = []
        for chi in table:
            q = chi.dim().to_rational()
            assert q is not None and q.denominator == 1, f"{spec}: non-integral degree"
            degrees.append(int(q))
        assert sum(d * d for d in degrees) == G.n, f"{spec}: degree squares"
        expected = [1] * G.n if spec.startswith("cyclic(") else CLASSICAL_DEGREES[spec]
        assert degrees == expected, f"{spec}: degrees {degrees} != {expected}"


def test_criterion_02():
    for spec, repname in PAIRS:
        G, v = pair(spec, repname)
        tuples = [(), (0,)]
        tuples += [(a, G.inv[a]) for a in range(G.n)]
        tuples += [
            (a, b, G.inv[G.op(a, b)])
            for a in range(G.n)
            for b in range(G.n)
        ]
        for ms in tuples:
            report = fw_check(v, ms)
            lhs, rhs = report["lhs"], report["rhs"]
            assert lhs.denominator == 1, f"{spec}: age sum {lhs} not integral at {ms}"
            assert lhs >= 0, f"{spec}: age sum {lhs} negative at {ms}"
            assert lhs >= rhs, f"{spec}: age sum {lhs} < codim {rhs} at {ms}"
            assert report["integral"] and report["holds"], f"{spec}: report at {ms}"


def test_criterion_03():
    for spec, repname in PAIRS:
        G, v = pair(spec, repname)
        for cls in build_double_sectors(G):
            base = twisted_pullback(v, cls.rep)
            for m in base.mults:
                assert isinstance(m, int) and m >= 0, (
                    f"{spec}: class {cls.rep} multiplicity {m}"
                )
            # another member of the class: the representative conjugated by
            # the last element outside its centralizer, moved back by the
            # inverse
            outside = [x for x in range(G.n)
                       if x not in cls.centralizer.from_parent]
            if not outside:
                continue
            x = outside[-1]
            other_t = tuple(G.conj(x, m) for m in cls.rep)
            assert other_t != cls.rep
            other = twisted_pullback(v, other_t)
            moved, sub = transport(other.char, other.sub, G.inv[x])
            assert sub is base.sub, f"{spec}: class {cls.rep} centralizer mismatch"
            assert moved == base.char, (
                f"{spec}: class {cls.rep} depends on the representative"
            )
            assert sorted(other.mults) == sorted(base.mults)


def test_criterion_04():
    for spec, repname in (("symmetric(3)", "std"), ("quaternion8", "sl2")):
        G, v = pair(spec, repname)
        count = 0
        for triple in itertools.product(range(G.n), repeat=3):
            report = v_identity_check(v, triple)
            assert all(report.values()), f"{spec}: identities fail at {triple}: {report}"
            count += 1
        assert count == G.n ** 3


def test_criterion_05():
    for spec, repname in PAIRS:
        for algebra, kind in zip(rings_for(spec, repname), ("rational", "integral")):
            report = verify(algebra, RING_CHECKS)
            for name in RING_CHECKS:
                assert report[name] is True, f"{spec}: {kind} ring fails {name}"


def test_criterion_06():
    for spec in ("symmetric(3)", "dihedral(4)", "quaternion8", "alternating(4)"):
        G = catalog_group(spec)
        algebra = chow_ring(G, zero_character(G))
        classes, constants = class_sum_constants(G.table)
        lookup = {frozenset(members): k for k, members in enumerate(classes)}
        to_oracle = []
        for s in build_sectors(G).sectors:
            members = G.conjugacy_classes()[G.class_of(s.rep)]
            to_oracle.append(lookup[frozenset(members)])
        back = {k: i for i, k in enumerate(to_oracle)}
        r = algebra.dim
        assert sorted(to_oracle) == list(range(r))
        for i in range(r):
            for j in range(r):
                got = {k: c for k, c in algebra.table.get((i, j), {}).items() if c != 0}
                oracle_row = constants.get((to_oracle[i], to_oracle[j]), {})
                want = {back[k]: c for k, c in oracle_row.items() if c != 0}
                assert got == want, f"{spec}: oracle disagrees at {(i, j)}"

    # the classical fingerprint: squaring the transposition class
    G = catalog_group("symmetric(3)")
    algebra = chow_ring(G, zero_character(G))
    sector_of = {
        G.class_of(s.rep): s.index for s in build_sectors(G).sectors
    }
    i = sector_of[G.class_of(G.element_from_string("s1"))]
    k3 = sector_of[G.class_of(G.element_from_string("s1*s2"))]
    got = algebra.table.get((i, i), {})
    assert got == {0: Fraction(3), k3: Fraction(3)}, f"transposition square: {got}"


def test_criterion_07():
    G = catalog_group("symmetric(3)")
    algebra = k_ring(G, zero_character(G))
    assert algebra.dim == 8, f"fusion basis has {algebra.dim} elements"
    per_sector = {}
    for s, _ in k_basis(G).pairs:
        per_sector[s] = per_sector.get(s, 0) + 1
    assert sorted(per_sector.values()) == [2, 3, 3], f"sector sizes {per_sector}"
    for (i, j), terms in algebra.table.items():
        for k, c in terms.items():
            assert c.denominator == 1 and c >= 0, f"constant {c} at {(i, j, k)}"
    report = verify(algebra, ["identity", "associativity"])
    assert report["associativity"] is True


def test_criterion_08():
    for spec in ("symmetric(3)", "quaternion8"):
        G = catalog_group(spec)
        v = zero_character(G)
        for builder in (chow_ring, k_ring):
            algebra = builder(G, v)
            report = verify(algebra, ["frobenius"])
            assert report["frobenius"] is True, (
                f"{spec}: {builder.__name__} pairing is not Frobenius"
            )
        eta = eta_pairing(G, "chow")
        assert eta.matrix[0][0] == Fraction(1, G.n), (
            f"{spec}: eta(1, 1) = {eta.matrix[0][0]}, want 1/{G.n}"
        )


def test_criterion_09():
    for spec, repname in PAIRS:
        chow, kk = rings_for(spec, repname)
        G = catalog_group(spec)
        images = [orbifold_chern(G, {i: 1}) for i in range(kk.dim)]
        for i in range(kk.dim):
            va = {s: c for s, c in enumerate(images[i]) if c != 0}
            for j in range(kk.dim):
                lhs = orbifold_chern(G, kk.table.get((i, j), {}))
                vb = {s: c for s, c in enumerate(images[j]) if c != 0}
                prod = chow.mul(va, vb)
                rhs = [prod.get(s, Fraction(0)) for s in range(chow.dim)]
                assert lhs == rhs, f"{spec}: degree map not multiplicative at {(i, j)}"


def test_criterion_10():
    cases = [("symmetric(3)", "zero"), ("symmetric(3)", "std"), ("cyclic(4)", "sl2")]
    for spec, repname in cases:
        G, v = pair(spec, repname)
        r = len(G.conjugacy_classes())
        basis = [
            ClassFunction(G, [1 if i == c else 0 for i in range(r)])
            for c in range(r)
        ]
        for alpha in basis:
            back = reference_push_twist(reference_f_shriek(alpha, G, v), G, v)
            assert back == alpha, f"{spec}: restriction round trip moved {alpha.values}"

        # the identity-supported basis in K-basis coordinates: value 1 at the
        # identity of Z_s is u_s = sum_t (deg t / |Z_s|) [s, t]
        basis_k = k_basis(G)
        sectors = build_sectors(G).sectors
        for s in sectors:
            u = {basis_k.index(s.index, t): Fraction(
                     chi.values[0].to_rational(), s.centralizer.order)
                 for t, chi in enumerate(basis_k.tables[s.index])}
            comps = [support_project(trivial_character(x.centralizer.group), 0)
                     if x is s else zero_character(x.centralizer.group)
                     for x in sectors]
            assert expand_components(G, comps) == u
            forward = expand_components(G, reference_f_shriek(
                reference_push_twist(comps, G, v), G, v))
            assert forward == u, (
                f"{spec}: sector {s.index} identity-supported round trip failed"
            )

        ident = support_project(trivial_character(G), 0)
        prods = {}
        for i in range(r):
            for j in range(r):
                prods[(i, j)] = star_T(basis[i], basis[j], G, v)
        for c in range(r):
            assert star_T(ident, basis[c], G, v) == basis[c], f"{spec}: left unit"
            assert star_T(basis[c], ident, G, v) == basis[c], f"{spec}: right unit"
        for i in range(r):
            for j in range(r):
                assert prods[(i, j)] == prods[(j, i)], f"{spec}: commutativity {(i, j)}"

        # the product is bilinear, so checking associativity on the basis
        # through the product table covers the whole space
        def star_vec(i, vec):
            out = zero_character(G)
            for c in range(r):
                coeff = vec.values[c]
                if not coeff.is_zero():
                    out = out + prods[(i, c)] * coeff
            return out

        def vec_star(vec, k):
            out = zero_character(G)
            for c in range(r):
                coeff = vec.values[c]
                if not coeff.is_zero():
                    out = out + prods[(c, k)] * coeff
            return out

        for i in range(r):
            for j in range(r):
                for k in range(r):
                    left = vec_star(prods[(i, j)], k)
                    right = star_vec(i, prods[(j, k)])
                    assert left == right, f"{spec}: associativity fails at {(i, j, k)}"


def test_criterion_11(tmp_path):
    # a perturbed structure-constant table must fail the associativity check
    ring_path = str(tmp_path / "ring.json")
    code, _, _ = run_cli(
        ["chow-ring", "--group", "catalog:symmetric(3)", "--rep", "zero",
         "--out", ring_path]
    )
    assert code == 0
    blob = json.load(open(ring_path))
    entry = next(
        e for e in blob["table"] if e["i"] == e["j"] and e["i"] != blob["identity"]
    )
    entry["terms"][0]["c"] = "99"
    bad_path = str(tmp_path / "perturbed.json")
    json.dump(blob, open(bad_path, "w"))
    code, out, _ = run_cli(["verify", "--algebra", bad_path, "--all"])
    assert code == 2, f"perturbed table exited {code}, want 2"
    report = json.loads(out)
    assert report["holds"] is False
    assert report["checks"]["associativity"] is False

    # an inconsistent "character" (no non-negative integral decomposition)
    # must be rejected at input validation
    code, out, err = run_cli(
        ["chow-ring", "--group", "catalog:symmetric(3)", "--rep",
         '{"kind": "character", "values_by_class": ["1", "5", "1"]}']
    )
    assert code == 1, f"bad character exited {code}, want 1"
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "UserError"
