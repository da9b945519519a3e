from fractions import Fraction

from inertial.characters import (
    ClassFunction,
    catalog_character,
    character_table,
    decompose,
    normal_factor,
    regular_character,
    restrict_to,
    trivial_character,
    zero_character,
)
from inertial.chern import orbifold_chern, star_T, support_project
from inertial.cyclotomic import cyc
from inertial.errors import UserError
from inertial.groups import catalog_group
from inertial.inertia import build_sectors
from inertial.rings import chow_ring, k_basis, k_ring
from oracles import (
    mult_twist,
    reference_f_shriek,
    reference_normal_factor,
    reference_push_twist,
    reference_star_t,
    support_components,
    toric_character,
)


def test_support_project_partition():
    for spec in ("cyclic(2)", "symmetric(3)", "quaternion8"):
        G = catalog_group(spec)
        for chi in character_table(G):
            parts = support_components(chi)
            assert len(parts) == len(G.conjugacy_classes())
            total = zero_character(G)
            for idx, part in enumerate(parts):
                assert part == support_project(chi, idx)
                assert support_project(part, idx) == part, "must be idempotent"
                for other in range(len(parts)):
                    if other != idx:
                        assert support_project(part, other).is_zero()
                total = total + part
            assert total == chi, f"{spec}: components do not reconstruct"


def test_support_project_z2_example():
    G = catalog_group("cyclic(2)")
    triv = trivial_character(G)
    assert support_project(triv, 0) == ClassFunction(G, [1, 0])
    assert support_project(triv, 1) == ClassFunction(G, [0, 1])


def test_mult_twist_translation():
    G = catalog_group("cyclic(2)")
    sign = ClassFunction(G, [1, -1])
    assert mult_twist(sign, 1) == -sign, "sign(sz) = -sign(z)"
    assert mult_twist(sign, 0) == sign


def test_mult_twist_is_eigenvalue_weighted_sum():
    # decomposing into isotypic parts (= eigenspaces of a central element)
    # and reweighting each part by its central character must agree with the
    # translation formula
    for spec, h_token in (("quaternion8", "i^2"), ("cyclic(4)", "g^2")):
        G = catalog_group(spec)
        h = G.element_from_string(h_token)
        chars = character_table(G)
        for v in (regular_character(G), catalog_character(G, "sl2") * 2):
            mults, ints = decompose(v)
            assert None not in ints and min(ints) >= 0
            weighted = zero_character(G)
            for m, chi in zip(mults, chars):
                scale = chi.values[G.class_of(h)] * chi.dim().inverse()
                weighted = weighted + chi * (m * scale)
            assert weighted == mult_twist(v, h), (
                f"{spec}: eigenvalue-weighted sum disagrees with translation"
            )


def test_mult_twist_inverse_and_centrality():
    G = catalog_group("cyclic(4)")
    v = ClassFunction(G, [2, cyc(3), -1, 0])
    g = 1
    assert mult_twist(mult_twist(v, g), G.inv[g]) == v
    H = catalog_group("symmetric(3)")
    s = H.element_from_string("s1")
    try:
        mult_twist(trivial_character(H), s)
        raise AssertionError("non-central twist element accepted")
    except UserError:
        pass


def test_orbifold_chern_basics():
    G = catalog_group("symmetric(3)")
    v = zero_character(G)
    K = k_ring(G, v)
    basis = k_basis(G)
    chars = character_table(G)
    # the ring identity has degree vector (1, 0, ..., 0)
    e = orbifold_chern(G, {K.identity_index: Fraction(1)})
    assert e[0] == 1 and all(c == 0 for c in e[1:])
    # the regular character of a sector's centralizer has total degree |Z|
    sectors = build_sectors(G)
    for s, sector in enumerate(sectors.sectors):
        Z = sector.centralizer
        vec = {}
        for t, chi in enumerate(character_table(Z.group)):
            vec[basis.index(s, t)] = chi.dim().to_rational()
        ch = orbifold_chern(G, vec)
        assert ch[s] == Z.order, "regular class must have rank |Z|"
        assert all(c == 0 for i, c in enumerate(ch) if i != s)


def test_f_shriek_z2_denominator():
    # order-2 element acting by -1 on the plane: the local scale is 4
    G = catalog_group("cyclic(2)")
    v = catalog_character(G, "sl2")
    comps = reference_f_shriek(trivial_character(G), G, v)
    assert comps[0] == ClassFunction(G, [1, 0])
    assert comps[1] == ClassFunction(G, [Fraction(1, 4), 0])


def test_f_shriek_point_case():
    # V = 0: no denominators, just untwisted restrict-and-project
    G = catalog_group("symmetric(3)")
    v = zero_character(G)
    chi = character_table(G)[2]
    comps = reference_f_shriek(chi, G, v)
    sectors = build_sectors(G)
    for s, comp in enumerate(comps):
        Z = sectors.sectors[s].centralizer
        rep = sectors.sectors[s].rep
        h_local = Z.from_parent[rep]
        res = restrict_to(chi, Z)
        # the component must be identity-supported with the value chi(h)
        assert comp.values[0] == res.values[Z.group.class_of(h_local)]
        assert all(val.is_zero() for val in comp.values[1:])


def test_mutual_inverse_round_trips():
    for spec, rep in (
        ("symmetric(3)", "zero"),
        ("symmetric(3)", "std"),
        ("cyclic(4)", "sl2"),
    ):
        G = catalog_group(spec)
        v = catalog_character(G, rep)
        r = len(G.conjugacy_classes())
        # forward-then-back on the indicator basis of CF(G)
        for c in range(r):
            alpha = ClassFunction(G, [1 if i == c else 0 for i in range(r)])
            back = reference_push_twist(reference_f_shriek(alpha, G, v), G, v)
            assert back == alpha, f"{spec}/{rep}: push o shriek != id at {c}"
        # back-then-forward on the identity-supported component basis
        sectors = build_sectors(G)
        for s in range(r):
            comps = []
            for t, sector in enumerate(sectors.sectors):
                Z = sector.centralizer
                k = len(Z.group.conjugacy_classes())
                vals = [1 if (t == s and i == 0) else 0 for i in range(k)]
                comps.append(ClassFunction(Z.group, vals))
            out = reference_f_shriek(reference_push_twist(comps, G, v), G, v)
            for t in range(r):
                assert out[t] == comps[t], (
                    f"{spec}/{rep}: shriek o push != id at sector {s}"
                )


# the cases on which star_T is pinned to the route through the integral
# ring: catalog characters, and two toric ones whose normal factors are not
# rational
STAR_T_CASES = (
    ("cyclic(2)", "sl2"), ("cyclic(2)", "zero"), ("cyclic(4)", "sl2"),
    ("cyclic(6)", "sl2"), ("quaternion8", "sl2"), ("symmetric(3)", "std"),
    ("symmetric(3)", "zero"), ("symmetric(4)", "std"),
    ("symmetric(4)", "regular"), ("dihedral(5)", "regular"),
    ("alternating(4)", "std"), ("binary_dihedral(3)", "sl2"),
    ("symmetric(5)", "std"), ("cyclic(5)", (1, 2)), ("cyclic(7)", (1, 2, 4)),
)


def test_normal_factor_is_the_normal_bundle_class_at_the_sector_element():
    # lambda_-1 of the dual of V - V^h as a class function on Z(h), read at
    # h, against the eigenvalue product at h alone
    for spec, rep in STAR_T_CASES:
        G = catalog_group(spec)
        v = (toric_character(G, rep) if isinstance(rep, tuple)
             else catalog_character(G, rep))
        for s in build_sectors(G).sectors:
            want = reference_normal_factor(v, s).value(
                s.centralizer.from_parent[s.rep])
            assert normal_factor(v, s.rep) == want, f"{spec}/{rep}: {s.rep}"


def test_star_t_matches_the_integral_ring_route():
    for spec, rep in STAR_T_CASES:
        G = catalog_group(spec)
        v = (toric_character(G, rep) if isinstance(rep, tuple)
             else catalog_character(G, rep))
        one = trivial_character(G)
        deltas = [support_project(one, i)
                  for i in range(len(G.conjugacy_classes()))]
        for (i, j), want in reference_star_t(G, v).items():
            assert star_T(deltas[i], deltas[j], G, v) == want, (
                f"{spec}/{rep}: delta_{i} * delta_{j}")


def test_star_t_z2_point_table():
    G = catalog_group("cyclic(2)")
    v = zero_character(G)
    e0 = ClassFunction(G, [1, 0])
    e1 = ClassFunction(G, [0, 1])
    basis = [e0, e1]
    table = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            table[(i, j)] = star_T(a, b, G, v)
    # the transported product turns CF(Z2) into the group algebra of Z2 on
    # class indicators: e0 is the unit and e1 * e1 = e0
    assert table[(0, 0)] == e0
    assert table[(0, 1)] == table[(1, 0)] == e1
    assert table[(1, 1)] == e0
    assert support_project(trivial_character(G), 0) == e0


def test_star_t_identity_and_commutativity():
    G = catalog_group("symmetric(3)")
    v = zero_character(G)
    ident = support_project(trivial_character(G), 0)
    samples = [
        trivial_character(G),
        ClassFunction(G, [3, cyc(Fraction(1, 2)), -2]),
        character_table(G)[2],
    ]
    for alpha in samples:
        assert star_T(ident, alpha, G, v) == alpha
        assert star_T(alpha, ident, G, v) == alpha
    for a in samples:
        for b in samples:
            assert star_T(a, b, G, v) == star_T(b, a, G, v)


def test_star_t_associative_on_a_reducible_rep():
    G = catalog_group("symmetric(3)")
    v = catalog_character(G, "std") + trivial_character(G)
    r = len(G.conjugacy_classes())
    basis = [
        ClassFunction(G, [1 if i == c else 0 for i in range(r)])
        for c in range(r)
    ]
    # products of basis vectors, then associate through the table
    prods = {}
    for i in range(r):
        for j in range(r):
            prods[(i, j)] = star_T(basis[i], basis[j], G, v)

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
                assert left == right, f"associativity fails at {(i, j, k)}"


def _refuses_foreign_character(call):
    # v lives on cyclic(4), the quotient is by klein4
    G = catalog_group("klein4")
    v = catalog_character(catalog_group("cyclic(4)"), "sl2")
    try:
        call(G, v)
        raise AssertionError("a character of another group was accepted")
    except UserError as exc:
        assert "lives on cyclic(4), not on klein4" in str(exc)


def test_chow_ring_refuses_a_foreign_character():
    _refuses_foreign_character(chow_ring)


def test_k_ring_refuses_a_foreign_character():
    _refuses_foreign_character(k_ring)


def test_star_t_refuses_a_foreign_character():
    _refuses_foreign_character(lambda G, v: star_T(
        trivial_character(G), trivial_character(G), G, v))
