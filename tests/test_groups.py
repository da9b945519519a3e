from inertial.cli import load_group
from inertial.errors import UserError
from inertial.groups import FiniteGroup, catalog_group, group_from_permutations

from oracles import brute_classes, brute_identity, brute_inverses, power_class

CATALOG = [
    "cyclic(1)",
    "cyclic(2)",
    "cyclic(6)",
    "cyclic(12)",
    "klein4",
    "dihedral(4)",
    "quaternion8",
    "binary_dihedral(3)",
    "symmetric(3)",
    "symmetric(4)",
    "alternating(4)",
    "alternating(5)",
]


def test_catalog_tables_are_groups():
    for spec in CATALOG:
        G = catalog_group(spec)
        n = G.n
        assert brute_identity(G.table) == 0, f"{spec}: identity is not index 0"
        assert list(G.inv) == brute_inverses(G.table), f"{spec}: bad inverses"
        # associativity spot check is already enforced at construction; do a
        # brute pass anyway for the smaller tables
        if n <= 12:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert G.op(G.op(a, b), c) == G.op(a, G.op(b, c))


def test_catalog_orders():
    expected = {
        "cyclic(6)": 6,
        "klein4": 4,
        "dihedral(4)": 8,
        "quaternion8": 8,
        "binary_dihedral(3)": 12,
        "symmetric(3)": 6,
        "symmetric(4)": 24,
        "alternating(4)": 12,
        "alternating(5)": 60,
    }
    for spec, order in expected.items():
        assert catalog_group(spec).n == order, f"{spec} has wrong order"


def test_conjugacy_classes_match_oracle():
    for spec in CATALOG:
        G = catalog_group(spec)
        got = [sorted(c) for c in G.conjugacy_classes()]
        want = brute_classes(G.table)
        assert got == want, f"{spec}: class list disagrees with brute force"
        for idx, cls in enumerate(got):
            assert G.class_reps()[idx] == cls[0]
            for x in cls:
                assert G.class_of(x) == idx
                w = G.witness(x)
                assert G.conj(w, cls[0]) == x, f"{spec}: witness fails for {x}"


def test_class_count_examples():
    assert len(catalog_group("symmetric(3)").conjugacy_classes()) == 3
    assert len(catalog_group("quaternion8").conjugacy_classes()) == 5
    assert len(catalog_group("alternating(4)").conjugacy_classes()) == 4
    assert len(catalog_group("symmetric(4)").conjugacy_classes()) == 5
    assert len(catalog_group("alternating(5)").conjugacy_classes()) == 5


def test_centralizers_and_subgroups():
    G = catalog_group("symmetric(3)")
    for x in range(G.n):
        Z = G.centralizer(x)
        assert all(G.op(z, x) == G.op(x, z) for z in Z.elements)
        assert G.n % Z.order == 0
        assert len(G.conjugacy_classes()[G.class_of(x)]) == G.n // Z.order
    whole = G.centralizer(0)
    assert whole.order == G.n
    assert whole.group is G, "whole-group centralizer must reuse the parent"


def test_centralizer_of_tuple():
    G = catalog_group("quaternion8")
    i = G.element_from_string("i")
    j = G.element_from_string("j")
    Z = G.centralizer(i, j)
    assert Z.order == 2, "Z(i, j) in the quaternions is the center"
    assert set(Z.elements) == {0, G.element_from_string("i^2")}


def test_generated_subgroup():
    G = catalog_group("symmetric(4)")
    a = G.element_from_string("s1")
    sub = G.generated((a,))
    assert sub.order == 2
    b = G.element_from_string("s2")
    assert G.generated((a, b)).order == 6


def _brute_closure(table, gens):
    elems = {0}
    while True:
        grown = elems | {table[x][g] for x in elems for g in gens}
        if grown == elems:
            return tuple(sorted(elems))
        elems = grown


def test_generated_subgroup_memo():
    G = catalog_group("alternating(5)")
    for gens in ((1,), (1, 2), (5, 17), (3, 40, 41), ()):
        sub = G.generated(gens)
        assert sub.elements == _brute_closure(G.table, gens)
        # any order or repetition of the generators is the same memo entry
        again = G.generated(tuple(reversed(gens)) + gens)
        assert again is sub
        # a fresh closure, the memo entry dropped, gives the same object
        del G._memo[("generated", tuple(sorted(set(gens))))]
        assert G.generated(gens) is sub


# a {"kind": "perm"} spec on 6 points: (0 1 2)(3 4) and (0 1), order 12
PERM_SPEC = ('{"kind": "perm", '
             '"generators": [[1, 2, 0, 4, 3, 5], [1, 0, 2, 3, 4, 5]]}')


def test_symmetric_table_composes_permutations():
    # every table built from permutations against composition entry by
    # entry, (p*q)(x) = p(q(x)), on fewer than two points too
    groups = ([catalog_group("symmetric(%d)" % n) for n in range(1, 6)]
              + [catalog_group("alternating(%d)" % n) for n in range(3, 6)]
              + [load_group(PERM_SPEC)])
    assert [G.n for G in groups] == [1, 2, 6, 24, 120, 3, 12, 60, 12]
    for G in groups:
        perms = G.permutations
        assert len(perms) == G.n, G.label
        for a, p in enumerate(perms):
            for b, q in enumerate(perms):
                assert perms[G.op(a, b)] == tuple(p[x] for x in q), G.label


def test_alternating_tables_are_the_closure_of_the_3_cycles():
    # the catalog lists the even permutations without closing generators;
    # the closure of c_i = (i-1 i i+1) gives the same table and names
    for n in range(3, 7):
        G = catalog_group("alternating(%d)" % n)
        cycles = {}
        for i in range(1, n - 1):
            p = list(range(n))
            p[i - 1], p[i], p[i + 1] = p[i], p[i + 1], p[i - 1]
            cycles["c%d" % i] = tuple(p)
        H = group_from_permutations(list(cycles.values()), names=cycles)
        assert (G.table, G.permutations) == (H.table, H.permutations), n
        assert G.names == H.names, n


def test_permutation_composition_convention():
    # (p*q)(x) = p(q(x)): with p = (01) and q = (12), p*q sends 1 -> 0
    G = group_from_permutations(
        [(1, 0, 2), (0, 2, 1)], names={"p": (1, 0, 2), "q": (0, 2, 1)}
    )
    p = G.element_from_string("p")
    q = G.element_from_string("q")
    pq = G.op(p, q)
    # the permutation attached to pq should map 1 to 0; verify through the
    # regular action on the table instead of exposing internals: pq has
    # order 3 because (01)(12) is a 3-cycle
    assert G.order_of(pq) == 3


def test_element_tokens_round_trip():
    G = catalog_group("quaternion8")
    for x in range(G.n):
        token = G.element_label(x)
        assert G.element_from_string(token) == x, f"token {token!r} broken"
    assert G.element_from_string("0") == 0
    assert G.element_from_string("i*j") == G.op(
        G.element_from_string("i"), G.element_from_string("j")
    )
    assert G.element_from_string("i^2") == G.power(G.element_from_string("i"), 2)


def test_bad_input_rejected():
    for bad in ("symmetric(9)", "cyclic(0)", "sporadic(1)", "dihedral(-3)"):
        try:
            catalog_group(bad)
            raise AssertionError(f"{bad} should be rejected")
        except UserError:
            pass
    # non-group table: second row repeats the first (not a latin square)
    try:
        FiniteGroup(((0, 1), (0, 1)))
        raise AssertionError("non-latin table accepted")
    except UserError:
        pass
    # latin square that is not associative does not exist at order 2..4 with
    # identity row/column; use a 5x5 quasigroup instead
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    try:
        FiniteGroup(table)
        raise AssertionError("non-associative table accepted")
    except UserError:
        pass


def test_inverse_class_and_power_class():
    G = catalog_group("cyclic(5)")
    for c in range(len(G.conjugacy_classes())):
        rep = G.class_reps()[c]
        assert G.inverse_class(c) == G.class_of(G.inv[rep])
        for j in range(5):
            assert power_class(G, c, j) == G.class_of(G.power(rep, j))


def test_exponent_and_abelian_flags():
    assert catalog_group("klein4").exponent() == 2
    assert catalog_group("cyclic(12)").exponent() == 12
    assert catalog_group("symmetric(3)").exponent() == 6
    assert catalog_group("klein4").is_abelian()
    assert not catalog_group("symmetric(3)").is_abelian()


def test_group_refuses_undeclared_attributes():
    # derived state lives in the group's memo, not in attributes hung on it
    G = catalog_group("cyclic(3)")
    try:
        G._char_table = ()
        raise AssertionError("an undeclared attribute was accepted")
    except AttributeError:
        pass
    assert G.permutations is None
    assert catalog_group("symmetric(3)").permutations is not None
