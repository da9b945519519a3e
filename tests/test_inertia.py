from inertial import inertia
from inertial.errors import UserError
from inertial.groups import FiniteGroup, catalog_group
from inertial.inertia import (
    build_double_sectors,
    build_sectors,
    triple_sectors,
)
from oracles import reference_diag_classes, resolve_diag_class

GROUPS = [
    "cyclic(1)",
    "cyclic(4)",
    "klein4",
    "symmetric(3)",
    "dihedral(4)",
    "quaternion8",
    "alternating(4)",
]


def test_sector_index_basics():
    for spec in GROUPS:
        G = catalog_group(spec)
        sectors = build_sectors(G)
        assert len(sectors) == len(G.conjugacy_classes())
        assert sectors.sectors[0].rep == 0, f"{spec}: identity sector first"
        for s in sectors.sectors:
            assert s.centralizer is G.centralizer(s.rep)
        sigma = sectors.sigma
        assert sigma[0] == 0
        for i, j in enumerate(sigma):
            assert sigma[j] == i
            assert G.class_of(G.inv[sectors.sectors[i].rep]) == j


def _index(classes):
    """Position of each class in the list, by representative."""
    return {cls.rep: i for i, cls in enumerate(classes)}


def _class_of(G, classes, index, t):
    """The library class of any tuple t, found through the oracle."""
    return classes[index[resolve_diag_class(G, t).rep]]


def _sectors(cls):
    return [s for s, _ in cls.maps]


def test_pair_classes_match_the_lex_scan():
    for spec in GROUPS + ["dihedral(5)", "symmetric(4)", "symmetric(5)"]:
        G = catalog_group(spec)
        _assert_matches_lex_scan(spec, build_double_sectors(G),
                                 reference_diag_classes(G, 2))


def test_triple_classes_match_the_lex_scan():
    for spec in ("symmetric(3)", "quaternion8", "alternating(4)",
                 "symmetric(4)"):
        G = catalog_group(spec)
        _assert_matches_lex_scan(spec, triple_sectors(G),
                                 reference_diag_classes(G, 3))


def _assert_matches_lex_scan(spec, classes, reference):
    assert [c.rep for c in classes] == [r.rep for r in reference], spec
    for cls, ref in zip(classes, reference):
        assert cls.centralizer is ref.centralizer, f"{spec}: {cls.rep}"
        assert cls.maps == ref.maps, f"{spec}: maps of {cls.rep}"


def _assert_partition(G, classes, length):
    # the orbits have |G|/|Z| members each and cover G^l; each
    # representative is the least member of its own orbit
    assert sum(G.n // cls.centralizer.order for cls in classes) == G.n ** length
    for cls in classes:
        assert G.n % cls.centralizer.order == 0
        assert resolve_diag_class(G, cls.rep).rep == cls.rep, (
            f"{G.label}: {cls.rep} is not the lex-least member of its orbit"
        )
    assert len(_index(classes)) == len(classes)


def test_double_classes_partition_the_square():
    for spec in GROUPS:
        G = catalog_group(spec)
        _assert_partition(G, build_double_sectors(G), 2)


def test_double_class_centralizers():
    for spec in GROUPS:
        G = catalog_group(spec)
        for cls in build_double_sectors(G):
            a, b = cls.rep
            Z = cls.centralizer
            assert Z is G.centralizer(a, b)
            assert Z.order * len(resolve_diag_class(G, cls.rep).members) == G.n
            for z in Z.elements:
                assert G.conj(z, a) == a and G.conj(z, b) == b


def test_evaluation_map_alignment():
    # each stored conjugator moves its entry of the representative, or
    # their product, onto the representative of the target sector
    for spec in GROUPS:
        G = catalog_group(spec)
        sectors = build_sectors(G)
        for cls in build_double_sectors(G) + triple_sectors(G):
            assert len(cls.maps) == len(cls.rep) + 1
            for x, (target, h) in zip(cls.rep + (G.prod(cls.rep),), cls.maps):
                assert G.conj(h, x) == sectors.sectors[target].rep, (
                    f"{spec}: map of {x} misaligned on class {cls.rep}"
                )


def test_swap_and_cycle_relations():
    # swapping a pair, or rotating it into (b, (ab)^-1), permutes its
    # sectors: e1 and e2 trade places under the swap and the product stays;
    # the rotation reads e2, then the inverse of the product, then the
    # inverse of e1 (b (ab)^-1 = a^-1)
    for spec in GROUPS:
        G = catalog_group(spec)
        doubles = build_double_sectors(G)
        index = _index(doubles)
        sigma = build_sectors(G).sigma
        for cls in doubles:
            a, b = cls.rep
            e1, e2, mu = _sectors(cls)
            swapped = _class_of(G, doubles, index, (b, a))
            assert _sectors(swapped) == [e2, e1, mu], f"{spec}: {cls.rep}"
            rotated = _class_of(G, doubles, index, (b, G.inv[G.op(a, b)]))
            assert _sectors(rotated) == [e2, sigma[mu], sigma[e1]], (
                f"{spec}: {cls.rep}"
            )


def test_abelian_maps_are_componentwise():
    G = catalog_group("cyclic(4)")
    doubles = build_double_sectors(G)
    assert len(doubles) == 16
    for cls in doubles:
        assert cls.centralizer.order == G.n
        a, b = cls.rep
        assert cls.maps == ((G.class_of(a), 0), (G.class_of(b), 0),
                            (G.class_of(G.op(a, b)), 0))


def test_triple_classes_partition_the_cube():
    for spec in ("symmetric(3)", "quaternion8"):
        G = catalog_group(spec)
        _assert_partition(G, triple_sectors(G), 3)


def test_triple_product_paths_agree():
    # contracting (a, b) first or (b, c) first must land in the sector of
    # abc: the product maps of the pair classes agree with the triple's
    for spec in ("symmetric(3)", "quaternion8", "alternating(4)"):
        G = catalog_group(spec)
        doubles = build_double_sectors(G)
        index = _index(doubles)
        for cls in triple_sectors(G):
            a, b, c = cls.rep
            for pair in ((G.op(a, b), c), (a, G.op(b, c))):
                other = _class_of(G, doubles, index, pair)
                assert other.maps[-1][0] == cls.maps[-1][0], (
                    f"{spec}: product paths disagree on class {cls.rep}"
                )


def test_specific_triple_resolution():
    G = catalog_group("symmetric(3)")
    s1 = G.element_from_string("s1")
    s2 = G.element_from_string("s2")
    triples = triple_sectors(G)
    cls = _class_of(G, triples, _index(triples), (s1, s2, s1))
    a, b, c = cls.rep
    doubles = build_double_sectors(G)
    pair = _class_of(G, doubles, _index(doubles), (G.op(a, b), c))
    # contracting the first two factors gives a (3-cycle, reflection) pair
    x, y = pair.rep
    assert G.order_of(x) == 3 and G.order_of(y) == 2
    # s1 s2 s1 is the third transposition
    assert pair.maps[-1][0] == cls.maps[-1][0] == G.class_of(s1)


def _relabeled_group(G, phi):
    """The same group with elements renamed by a bijection phi."""
    inv_phi = [0] * G.n
    for x, y in enumerate(phi):
        inv_phi[y] = x
    table = [
        [phi[G.op(inv_phi[x], inv_phi[y])] for y in range(G.n)]
        for x in range(G.n)
    ]
    return FiniteGroup(table, label=G.label + " relabeled")


def _automorphism_from_generators(G, images):
    """Extend a generator assignment to a table automorphism, if possible."""
    # brute force: try all bijections fixing the identity on small groups
    import itertools

    for perm in itertools.permutations(range(1, G.n)):
        phi = (0,) + perm
        if all(
            phi[G.op(a, b)] == G.op(phi[a], phi[b])
            for a in range(G.n)
            for b in range(G.n)
        ):
            ok = all(phi[a] == b for a, b in images.items())
            if ok:
                return phi
    raise AssertionError("no automorphism with the requested images")


def test_relabeling_invariance():
    # an automorphism-induced relabeling must not change any sector data
    for spec, images in (
        ("klein4", {1: 2}),  # swap two of the three involutions
        ("symmetric(3)", {}),  # any non-inner form is fine; take the first
    ):
        G = catalog_group(spec)
        phi = _automorphism_from_generators(G, images)
        H = _relabeled_group(G, phi)
        sg = build_sectors(G)
        sh = build_sectors(H)
        assert len(sg) == len(sh)
        # phi sends classes to classes; compare through it
        class_map = {}
        for i, s in enumerate(sg.sectors):
            class_map[i] = H.class_of(phi[s.rep])
        assert sorted(class_map.values()) == list(range(len(sh)))
        for i, j in class_map.items():
            assert sg.sectors[i].centralizer.order == sh.sectors[j].centralizer.order
            assert class_map[sg.sigma[i]] == sh.sigma[j]
        dg = build_double_sectors(G)
        dh = build_double_sectors(H)
        assert len(dg) == len(dh)
        index = _index(dh)
        images = set()
        for cls in dg:
            a, b = cls.rep
            other = _class_of(H, dh, index, (phi[a], phi[b]))
            images.add(other.rep)
            assert cls.centralizer.order == other.centralizer.order
            assert [class_map[s] for s in _sectors(cls)] == _sectors(other)
        assert len(images) == len(dh)


def test_caps_hold_for_cached_indices(monkeypatch):
    # the triple index is kept on the group; a cap lowered after it was
    # built still applies to it
    G = catalog_group("symmetric(3)")
    built = triple_sectors(G)
    monkeypatch.setattr(inertia, "TRIPLE_TUPLE_CAP", 216)
    assert triple_sectors(G) is built
    monkeypatch.setattr(inertia, "TRIPLE_TUPLE_CAP", 215)
    try:
        triple_sectors(G)
        raise AssertionError("triple_sectors ignored cap 215")
    except UserError:
        pass


def test_resolve_matches_eager_enumeration():
    G = catalog_group("symmetric(3)")
    for cls in build_double_sectors(G):
        solo = resolve_diag_class(G, cls.rep)
        assert solo.rep == cls.rep
        assert solo.centralizer is cls.centralizer
        assert len(solo.members) * cls.centralizer.order == G.n
    triple = resolve_diag_class(G, (1, 2, 4))
    assert triple.rep == min(triple.members)
    assert len(triple.members) * triple.centralizer.order == G.n
