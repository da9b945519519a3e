"""The paper's non-negativity on all of R(G), and additivity in V.

The twisted pullback takes non-negative elements of K_G(V) to non-negative
elements, and every irreducible E of G is one: twisted_pullback(E, m)
checks that its class is a non-negative integer vector.  Both derivations
of a class are linear in V (log traces, fixed-space characters, pullback
columns), so for v = sum_chi a_chi chi the class V(m)[v] is
sum_chi a_chi V(m)[chi], in coordinates and in rank.  Ages add too, and
obstruction ranks are never negative, so a tuple class contributes to the
Chow product of v exactly when it contributes for every chi with
a_chi > 0.  Each test builds its groups anew, so no memo entry of one test
answers another.
"""

from inertial.characters import catalog_character, character_table, decompose
from inertial.groups import catalog_group
from inertial.inertia import build_double_sectors, triple_sectors
from inertial.logtrace import fixed_dimension, twisted_pullback
from inertial.rings import _chow_products

from oracles import reference_fixed_dimension

CASES = (
    ("cyclic(4)", "sl2"),
    ("cyclic(6)", "sl2"),
    ("quaternion8", "sl2"),
    ("binary_dihedral(3)", "sl2"),
    ("symmetric(3)", "std"),
    ("symmetric(4)", "std"),
    ("alternating(4)", "std"),
    ("dihedral(5)", "regular"),
    ("dihedral(6)", "regular"),
    ("klein4", "regular"),
)

# triple classes run on the groups of at most this order
TRIPLE_ORDER = 12


def cases():
    """Each case on a new group: its name, G, v, the (a_chi, index of chi
    in G's table) with a_chi != 0 in v = sum a_chi chi, and its pair
    classes followed, when |G| <= TRIPLE_ORDER, by its triple classes."""
    for spec, rep in CASES:
        G = catalog_group(spec)
        v = catalog_character(G, rep)
        parts = [(a, i) for i, a in enumerate(decompose(v)[1]) if a]
        classes = list(build_double_sectors(G))
        if G.n <= TRIPLE_ORDER:
            classes += triple_sectors(G)
        yield "%s/%s" % (spec, rep), G, v, parts, classes


def test_irreducibles_pull_back_non_negative_and_add_up_to_v():
    for name, G, v, parts, classes in cases():
        table = character_table(G)
        for cls in classes:
            # V(m)[v] before its summands: computed after them, a class
            # memoized on the group instead of the character would hand v
            # the trivial character's zero class, and both sides would be 0
            whole = twisted_pullback(v, cls.rep)
            each = [twisted_pullback(chi, cls.rep) for chi in table]
            for tc in each:
                assert min(tc.mults) >= 0 and tc.rank >= 0, (name, cls.rep)
            summands = [(a, each[i]) for a, i in parts]
            mults = [sum(a * tc.mults[i] for a, tc in summands)
                     for i in range(len(whole.mults))]
            assert list(whole.mults) == mults, (name, cls.rep)
            assert whole.rank == sum(a * tc.rank for a, tc in summands), (
                name, cls.rep)


def test_a_class_contributes_for_v_exactly_when_for_every_summand():
    for name, G, v, parts, classes in cases():
        table = character_table(G)
        for cls in classes:
            whole = bool(_chow_products(G, v, [cls]))
            each = [bool(_chow_products(G, table[i], [cls]))
                    for _, i in parts]
            assert whole == all(each), (name, cls.rep, whole, each)


def test_fixed_dimensions_match_the_class_count_reference():
    # on the trivial tuple, padded or not, and on every pair class
    for name, G, v, _, _ in cases():
        tuples = [(), (0,)] + [cls.rep for cls in build_double_sectors(G)]
        for w in [v, *character_table(G)]:
            for ms in tuples:
                assert (fixed_dimension(w, ms)
                        == reference_fixed_dimension(w, ms)), (name, ms)
