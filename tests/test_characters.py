from fractions import Fraction

from inertial.characters import (
    adams,
    catalog_character,
    character_table,
    class_function,
    decompose,
    dual,
    eigen_multiplicities,
    induce_between,
    induce_from,
    inner_product,
    invariant_dimension,
    is_genuine_character,
    lambda_minus_one_dual,
    regular_character,
    restrict_between,
    restrict_to,
    transport,
    trivial_character,
    zero_character,
)
from inertial.cyclotomic import cyc
from inertial.errors import UserError
from inertial.groups import catalog_group
from oracles import lambda_minus_one_dual_newton

TABLE_GROUPS = [
    "cyclic(2)",
    "cyclic(3)",
    "cyclic(7)",
    "cyclic(12)",
    "klein4",
    "dihedral(4)",
    "dihedral(5)",
    "quaternion8",
    "binary_dihedral(3)",
    "symmetric(3)",
    "symmetric(4)",
    "alternating(4)",
]


def test_orthogonality_and_degree_sum():
    for spec in TABLE_GROUPS:
        G = catalog_group(spec)
        chars = character_table(G)
        assert len(chars) == len(G.conjugacy_classes()), spec
        for i, a in enumerate(chars):
            for j, b in enumerate(chars):
                want = cyc(1 if i == j else 0)
                assert inner_product(a, b) == want, (
                    f"{spec}: <chi_{i}, chi_{j}> != {want}"
                )
        assert sum(c.dim().to_rational() ** 2 for c in chars) == G.n, spec


def test_column_orthogonality():
    for spec in TABLE_GROUPS:
        G = catalog_group(spec)
        chars = character_table(G)
        classes = G.conjugacy_classes()
        for s in range(len(classes)):
            for t in range(len(classes)):
                total = cyc(0)
                for chi in chars:
                    total = total + chi.values[s] * chi.values[t].conjugate()
                want = cyc(Fraction(G.n, len(classes[s])) if s == t else 0)
                assert total == want, f"{spec}: column orthogonality at {s},{t}"


def test_degrees_sorted_and_integral():
    for spec in TABLE_GROUPS:
        degrees = [c.dim().to_rational() for c in character_table(catalog_group(spec))]
        assert all(d.denominator == 1 and d >= 1 for d in degrees), spec
        assert degrees == sorted(degrees), f"{spec}: degrees not ascending"


def test_table_is_deterministic():
    a = character_table(catalog_group("symmetric(4)"))
    b = character_table(catalog_group("symmetric(4)"))
    assert [c.values for c in a] == [c.values for c in b]


def test_decompose_and_genuineness():
    G = catalog_group("symmetric(3)")
    chars = character_table(G)
    reg = regular_character(G)
    mults, genuine = decompose(reg)
    assert genuine
    assert [m.to_rational() for m in mults] == [
        c.dim().to_rational() for c in chars
    ], "regular character must contain every irreducible deg-many times"
    bogus = class_function(G, [3, 1, -2])
    assert not is_genuine_character(bogus)


def test_frobenius_reciprocity_exhaustive():
    G = catalog_group("symmetric(3)")
    H = G.generated((G.element_from_string("s1"),))
    assert H.order == 2
    G_chars = character_table(G)
    H_chars = character_table(H.group)
    for chi in H_chars:
        ind = induce_from(chi, H)
        for psi in G_chars:
            res = restrict_to(psi, H)
            assert inner_product(ind, psi) == inner_product(chi, res), (
                "reciprocity fails on S3 with the reflection subgroup"
            )


def test_induction_degree():
    G = catalog_group("symmetric(4)")
    H = G.generated(
        (G.element_from_string("s1"), G.element_from_string("s2"))
    )
    ind = induce_from(trivial_character(H.group), H)
    assert ind.dim().to_rational() == G.n // H.order


def test_projection_formula():
    # induce(restrict(psi) * chi) = psi * induce(chi)
    G = catalog_group("quaternion8")
    H = G.centralizer(G.element_from_string("i"))
    assert H.order == 4
    for psi in character_table(G):
        for chi in character_table(H.group):
            lhs = induce_from(restrict_to(psi, H) * chi, H)
            rhs = psi * induce_from(chi, H)
            assert lhs == rhs, "projection formula fails on Q8"


def test_restrict_induce_between_towers():
    G = catalog_group("symmetric(4)")
    big = G.generated(
        (G.element_from_string("s1"), G.element_from_string("s2"))
    )
    small = G.generated((G.element_from_string("s1"),))
    for chi in character_table(small.group):
        # induction in stages equals direct induction
        stage = induce_from(induce_between(chi, small, big), big)
        direct = induce_from(chi, small)
        assert stage == direct
    for psi in character_table(G):
        stage = restrict_between(restrict_to(psi, big), big, small)
        direct = restrict_to(psi, small)
        assert stage == direct


def test_transport_moves_characters():
    G = catalog_group("symmetric(3)")
    cls = G.class_of(G.element_from_string("s1"))
    a = G.class_reps()[cls]
    Za = G.centralizer(a)
    # the stored witness conjugates the class representative to b
    b = next(x for x in G.conjugacy_classes()[cls] if x != a)
    h = G.witness(b)
    assert G.conj(h, a) == b
    for chi in character_table(Za.group):
        moved, sub = transport(chi, Za, h)
        assert sub is G.centralizer(b)
        for z in Za.elements:
            hz = G.conj(h, z)
            assert moved.value(sub.from_parent[hz]) == chi.value(
                Za.from_parent[z]
            ), "transport must relabel values along conjugation"


def test_adams_operations_compose():
    G = catalog_group("quaternion8")
    v = catalog_character(G, "sl2")
    for j in range(1, 5):
        for k in range(1, 5):
            assert adams(adams(v, k), j) == adams(v, j * k), (
                f"psi^{j} o psi^{k} != psi^{j * k}"
            )
    assert adams(v, 1) == v


def test_dual_involution():
    for spec in ("symmetric(3)", "quaternion8", "cyclic(5)"):
        G = catalog_group(spec)
        for chi in character_table(G):
            assert dual(dual(chi)) == chi
            assert is_genuine_character(dual(chi))


def test_lambda_dual_multiplicative():
    G = catalog_group("symmetric(3)")
    chars = character_table(G)
    for a in chars:
        for b in chars:
            lhs = lambda_minus_one_dual(a + b)
            rhs = lambda_minus_one_dual(a) * lambda_minus_one_dual(b)
            assert lhs == rhs, "lambda_-1 of a sum must factor"


def test_lambda_dual_newton_agrees():
    for spec in ("symmetric(3)", "quaternion8", "alternating(4)"):
        G = catalog_group(spec)
        for chi in character_table(G):
            assert lambda_minus_one_dual(chi) == lambda_minus_one_dual_newton(chi), (
                f"{spec}: the two lambda_-1 implementations disagree"
            )


def test_lambda_dual_kills_identity_value():
    G = catalog_group("alternating(4)")
    for chi in character_table(G):
        lam = lambda_minus_one_dual(chi)
        if chi.dim().to_rational() >= 1:
            assert lam.values[0].is_zero(), (
                "lambda_-1 dual must vanish at the identity for positive rank"
            )


def test_eigen_multiplicities_sum():
    for spec, rep in (
        ("cyclic(6)", "sl2"),
        ("quaternion8", "sl2"),
        ("symmetric(3)", "std"),
        ("alternating(4)", "std"),
    ):
        G = catalog_group(spec)
        v = catalog_character(G, rep)
        for x in range(G.n):
            mults = eigen_multiplicities(v, x)
            assert len(mults) == G.order_of(x)
            assert all(m >= 0 for m in mults)
            assert sum(mults) == v.dim().to_rational(), (
                f"{spec}: eigenvalue multiplicities of {x} do not fill dim V"
            )


def test_invariant_dimension():
    G = catalog_group("symmetric(3)")
    assert invariant_dimension(regular_character(G), G.whole()) == 1
    assert invariant_dimension(trivial_character(G), G.whole()) == 1
    assert invariant_dimension(catalog_character(G, "std"), G.whole()) == 0
    H = G.generated((G.element_from_string("s1"),))
    assert invariant_dimension(catalog_character(G, "std"), H) == 1


def test_catalog_characters():
    G = catalog_group("symmetric(3)")
    assert catalog_character(G, "trivial") == trivial_character(G)
    assert catalog_character(G, "zero") == zero_character(G)
    assert catalog_character(G, "regular") == regular_character(G)
    std = catalog_character(G, "std")
    assert std.dim().to_rational() == 2
    assert is_genuine_character(std)
    try:
        catalog_character(G, "sl2")
        raise AssertionError("sl2 is only for the SL2 catalog groups")
    except UserError:
        pass


def test_class_function_validation():
    G = catalog_group("symmetric(3)")
    try:
        class_function(G, [1, 2])
        raise AssertionError("wrong length accepted")
    except UserError:
        pass
