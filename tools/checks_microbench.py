"""Microbenchmark of the checks: milliseconds per table check, and per
run of the identity family's class loop.

    python3 tools/checks_microbench.py

Run it from the repository root (it puts src/ on the path itself); it uses
the standard library only.  It builds four rings, the K rings of
symmetric(4)/std and quaternion8/sl2, the Lusztig ring of symmetric(4) and
the Chow ring of symmetric(5)/std, and times verify(ring, [check]) for each
check of rings.verify.  Frobenius needs the complete quotient, so it runs on
the Lusztig ring only ("-" elsewhere).  One untimed call first fills the
group memos (character tables, tuple classes, restriction tables), so the
figures are the check alone, not the first-call set-up.  Each figure is the
best of REPEAT (5) timeit repeats, each repeat running the check long
enough to take at least 0.2 s.

The multi-product check compares the table with the product rule applied
to the triple classes.  Those products are built once per ring, timed in
rows of their own, and held fixed while the check is timed, so the
multiproduct column is the comparison itself.

The v_identities row times `verify --v-identities`'s loop, one
v_identity_check per triple class, on symmetric(3)/std and
symmetric(4)/std, after an untimed first run has filled the character's
memos (obstruction classes, log traces, fixed-space characters), so it
measures the restrictions and comparisons of the identities themselves.
"""

import os
import sys
import timeit

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from inertial import rings  # noqa: E402
from inertial.characters import catalog_character  # noqa: E402
from inertial.commands import _verify_tuples  # noqa: E402
from inertial.groups import catalog_group  # noqa: E402
from inertial.inertia import triple_sectors  # noqa: E402
from inertial.rings import chow_ring, k_ring, verify  # noqa: E402

RINGS = (
    ("k symmetric(4)/std", k_ring, "symmetric(4)", "std"),
    ("k quaternion8/sl2", k_ring, "quaternion8", "sl2"),
    ("lusztig symmetric(4)", k_ring, "symmetric(4)", "zero"),
    ("chow symmetric(5)/std", chow_ring, "symmetric(5)", "std"),
)
CHECKS = ("identity", "commutativity", "associativity", "grading",
          "frobenius", "multiproduct")
IDENTITY_PAIRS = (("symmetric(3)", "std"), ("symmetric(4)", "std"))
REPEAT = 5


def _pair(group, rep):
    G = catalog_group(group)
    return G, catalog_character(G, rep)


def best_ms(check, expected):
    """Milliseconds per call of check, after one untimed call that must
    return expected."""
    if check() != expected:
        raise SystemExit("check fails: %r" % (check(),))
    timer = timeit.Timer(check)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEAT, number)) / number * 1e3


def main():
    print("%-22s %4s " % ("ring", "dim")
          + " ".join("%13s" % name for name in CHECKS) + "   (ms per check)")
    builds = []
    for label, build, group, rep in RINGS:
        G, v = _pair(group, rep)
        alg = build(G, v)
        products = (rings._chow_products if build is chow_ring
                    else rings._k_products)
        direct = products(G, v, triple_sectors(G))
        builds.append((label, best_ms(
            lambda: products(G, v, triple_sectors(G)), direct)))
        saved = rings._chow_products, rings._k_products
        rings._chow_products = rings._k_products = lambda *args: direct
        try:
            times = ["%13.3f" % best_ms(lambda: verify(alg, [name]),
                                        {name: True})
                     if name != "frobenius" or v.dim() == 0
                     else "%13s" % "-" for name in CHECKS]
        finally:
            rings._chow_products, rings._k_products = saved
        print("%-22s %4d " % (label, alg.dim) + " ".join(times))
    print()
    print("triple-class products" + " " * 17
          + "(ms per build, held fixed in the multiproduct column)")
    for label, ms in builds:
        print("%-22s %13.3f" % (label, ms))
    print()
    print("%-22s " % "identity family"
          + " ".join("%20s" % ("%s/%s" % pair) for pair in IDENTITY_PAIRS)
          + "   (ms per class loop)")
    times = []
    for group, rep in IDENTITY_PAIRS:
        G, v = _pair(group, rep)
        expected = {"v_identities": {"triples": G.n ** 3, "holds": True}}
        times.append("%20.3f" % best_ms(
            lambda: _verify_tuples(G, v, {"v_identities"}), expected))
    print("%-22s " % "v_identities" + " ".join(times))


if __name__ == "__main__":
    main()
