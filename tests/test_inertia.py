from inertial.errors import UserError
from inertial.groups import FiniteGroup, catalog_group
from inertial.inertia import (
    build_double_sectors,
    build_sectors,
    triple_sectors,
)
from oracles import resolve_diag_class

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


def test_double_classes_partition_the_square():
    for spec in GROUPS:
        G = catalog_group(spec)
        doubles = build_double_sectors(G)
        total = sum(cls.orbit_size for cls in doubles.classes)
        assert total == G.n * G.n, f"{spec}: orbits do not cover G x G"
        seen = set()
        for cls in doubles.classes:
            for t in cls.members:
                assert t not in seen
                seen.add(t)
            assert cls.rep == min(cls.members), (
                f"{spec}: representative is not the lex-least member"
            )
            assert G.n % cls.orbit_size == 0


def test_double_class_centralizers():
    for spec in GROUPS:
        G = catalog_group(spec)
        for cls in build_double_sectors(G).classes:
            a, b = cls.rep
            Z = cls.centralizer
            assert Z.order * cls.orbit_size == G.n
            for z in Z.elements:
                assert G.conj(z, a) == a and G.conj(z, b) == b


def test_locate_conjugators():
    for spec in GROUPS:
        G = catalog_group(spec)
        doubles = build_double_sectors(G)
        for cls in doubles.classes:
            for t in cls.members:
                idx, h = doubles.locate(t)
                assert idx == cls.index
                moved = tuple(G.conj(h, m) for m in t)
                assert moved == cls.rep, (
                    f"{spec}: locate conjugator does not align {t}"
                )


def test_evaluation_map_alignment():
    # the stored conjugator moves the image of the representative onto the
    # representative of the target sector
    for spec in GROUPS:
        G = catalog_group(spec)
        sectors = build_sectors(G)
        for cls in build_double_sectors(G).classes:
            a, b = cls.rep
            for name, img in (("e1", a), ("e2", b), ("mu", G.op(a, b))):
                target, h = cls.maps[name]
                assert G.conj(h, img) == sectors.sectors[target].rep, (
                    f"{spec}: {name} misaligned on class {cls.index}"
                )


def test_swap_and_cycle_relations():
    for spec in GROUPS:
        G = catalog_group(spec)
        doubles = build_double_sectors(G)
        for cls in doubles.classes:
            swap_idx = cls.maps["swap"][0]
            cycle_idx = cls.maps["cycle"][0]
            # swap is an involution on class indices
            assert doubles.classes[swap_idx].maps["swap"][0] == cls.index
            # the cyclic rotation has order three
            second = doubles.classes[cycle_idx].maps["cycle"][0]
            third = doubles.classes[second].maps["cycle"][0]
            assert third == cls.index, f"{spec}: cycle^3 != id"
            # e2 = e1 after one rotation; e1 = e2 after a swap
            assert cls.maps["e2"][0] == doubles.classes[swap_idx].maps["e1"][0]
            assert cls.maps["e1"][0] == doubles.classes[swap_idx].maps["e2"][0]
            # the product sector is swap-invariant (ab and ba are conjugate)
            assert cls.maps["mu"][0] == doubles.classes[swap_idx].maps["mu"][0]


def test_cycle_orbit_of_a_reflection_pair():
    G = catalog_group("symmetric(3)")
    doubles = build_double_sectors(G)
    s = G.element_from_string("s1")
    start = doubles.locate((s, s))[0]
    one = doubles.classes[start].maps["cycle"][0]
    two = doubles.classes[one].maps["cycle"][0]
    assert len({start, one, two}) == 3, "rotation orbit of (s,s) has size 3"
    assert doubles.classes[two].maps["cycle"][0] == start


def test_abelian_maps_are_componentwise():
    G = catalog_group("cyclic(4)")
    doubles = build_double_sectors(G)
    assert len(doubles) == 16
    for cls in doubles.classes:
        assert cls.orbit_size == 1
        a, b = cls.rep
        assert cls.maps["e1"] == (G.class_of(a), 0)
        assert cls.maps["e2"] == (G.class_of(b), 0)
        assert cls.maps["mu"] == (G.class_of(G.op(a, b)), 0)


def test_triple_classes_partition_the_cube():
    for spec in ("symmetric(3)", "quaternion8"):
        G = catalog_group(spec)
        triples = triple_sectors(G)
        assert sum(c.orbit_size for c in triples.classes) == G.n ** 3
        doubles = build_double_sectors(G)
        for cls in triples.classes:
            a, b, c = cls.rep
            for name, img in (
                ("e12", (a, b)),
                ("e23", (b, c)),
                ("mu_12_3", (G.op(a, b), c)),
                ("mu_1_23", (a, G.op(b, c))),
            ):
                target, h = cls.maps[name]
                moved = tuple(G.conj(h, m) for m in img)
                assert moved == doubles.classes[target].rep, (
                    f"{spec}: {name} misaligned on triple class {cls.index}"
                )


def test_triple_product_paths_agree():
    # contracting (a,b) first or (b,c) first must land in the sector of abc
    for spec in ("symmetric(3)", "quaternion8", "alternating(4)"):
        G = catalog_group(spec)
        triples = triple_sectors(G)
        doubles = build_double_sectors(G)
        for cls in triples.classes:
            left = doubles.classes[cls.maps["mu_12_3"][0]].maps["mu"][0]
            right = doubles.classes[cls.maps["mu_1_23"][0]].maps["mu"][0]
            assert left == right == cls.maps["mu_full"][0], (
                f"{spec}: product paths disagree on class {cls.index}"
            )


def test_specific_triple_resolution():
    G = catalog_group("symmetric(3)")
    s1 = G.element_from_string("s1")
    s2 = G.element_from_string("s2")
    triples = triple_sectors(G)
    idx, h = triples.locate((s1, s2, s1))
    cls = triples.classes[idx]
    doubles = build_double_sectors(G)
    mu123 = doubles.classes[cls.maps["mu_12_3"][0]]
    a, b = mu123.rep
    # contracting the first two factors gives a (3-cycle, reflection) pair
    assert G.order_of(a) == 3 and G.order_of(b) == 2
    mu123_final = mu123.maps["mu"][0]
    mu1_23_final = doubles.classes[cls.maps["mu_1_23"][0]].maps["mu"][0]
    assert mu123_final == mu1_23_final


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
        pair_map = {}
        for cls in dg.classes:
            a, b = cls.rep
            target = dh.locate((phi[a], phi[b]))[0]
            pair_map[cls.index] = target
            other = dh.classes[target]
            assert cls.orbit_size == other.orbit_size
            assert cls.centralizer.order == other.centralizer.order
        assert sorted(pair_map.values()) == list(range(len(dh)))
        for cls in dg.classes:
            other = dh.classes[pair_map[cls.index]]
            for name in ("e1", "e2", "mu"):
                assert class_map[cls.maps[name][0]] == other.maps[name][0]
            for name in ("swap", "cycle"):
                assert pair_map[cls.maps[name][0]] == other.maps[name][0]


def test_double_cap_enforced():
    G = catalog_group("symmetric(4)")
    try:
        build_double_sectors(G, cap=10)
        raise AssertionError("cap should have been enforced")
    except UserError:
        pass


def test_caps_hold_for_cached_indices():
    # the indices are kept on the group; a later call's cap still applies
    G = catalog_group("symmetric(3)")
    assert triple_sectors(G) is triple_sectors(G, cap=216)
    assert build_double_sectors(G) is build_double_sectors(G, cap=6)
    for build, cap in ((build_double_sectors, 5), (triple_sectors, 215)):
        try:
            build(G, cap=cap)
            raise AssertionError(f"{build.__name__} ignored cap {cap}")
        except UserError:
            pass


def test_resolve_matches_eager_enumeration():
    G = catalog_group("symmetric(3)")
    doubles = build_double_sectors(G)
    for cls in doubles.classes:
        solo = resolve_diag_class(G, cls.rep)
        assert solo.rep == cls.rep
        assert sorted(solo.members) == sorted(cls.members)
        assert solo.centralizer.order == cls.centralizer.order
    triple = resolve_diag_class(G, (1, 2, 4))
    assert triple.rep == min(triple.members)
    assert triple.orbit_size * triple.centralizer.order == G.n
