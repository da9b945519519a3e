import json
import os
import subprocess
import sys
from fractions import Fraction

from inertial.characters import (
    ClassFunction,
    assert_genuine_character,
    catalog_character,
    character_table,
    decompose,
    eigen_multiplicities,
    induce_between,
    induce_from,
    inner_product,
    int_coords,
    invariant_dimension,
    lambda_minus_one_dual,
    regular_character,
    restrict_between,
    restrict_to,
    transport,
    trivial_character,
    trivial_index,
    zero_character,
)
from inertial.cyclotomic import ONE, ZERO, Cyclotomic, cyc
from inertial.errors import UserError
from inertial.groups import FiniteGroup, catalog_group
from inertial.inertia import build_double_sectors
from oracles import (
    adams,
    closed_form_table,
    dual,
    lambda_minus_one_dual_newton,
    reference_eigen_multiplicities,
    reference_induce,
    reference_inner_product,
)

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


# the catalog groups up to order 24 on which the recorded decompositions
# and the trivial index are checked, with their centralizers
RECORDED_GROUPS = ("cyclic(1)", "cyclic(24)", "klein4", "dihedral(12)",
                   "quaternion8", "binary_dihedral(6)", "symmetric(4)",
                   "alternating(4)")


def test_table_records_each_irreducibles_decomposition():
    # the exact orthogonality check computes every irreducible's
    # decomposition, a unit vector, and the table keeps it, with its
    # integer coordinates, where decompose reads: each recorded one is
    # (unit vector, unit ints) and equals a fresh computation
    for spec in RECORDED_GROUPS:
        G = catalog_group(spec)
        for H in {G.centralizer(x).group for x in range(G.n)} | {G}:
            table = character_table(H)
            for chi in table:
                key = ("decompose", chi.values)
                recorded = H._memo[key]
                unit = tuple(int(psi is chi) for psi in table)
                assert recorded == (tuple(map(cyc, unit)), unit), spec
                assert all(type(n) is int for n in recorded[1]), spec
                assert decompose(chi) is recorded, spec
                fresh = tuple(inner_product(chi, psi) for psi in table)
                assert recorded[0] == fresh, spec
                del H._memo[key]
                assert decompose(chi) == recorded, spec
    # the trivial group takes Dixon's method like any other
    G = catalog_group("cyclic(1)")
    assert character_table(G) == (trivial_character(G),)


def test_decompose_and_genuineness():
    G = catalog_group("symmetric(3)")
    chars = character_table(G)
    reg = regular_character(G)
    mults, ints = decompose(reg)
    assert ints == tuple(c.dim().to_rational() for c in chars), (
        "regular character must contain every irreducible deg-many times")
    assert [m.to_rational() for m in mults] == list(ints)
    assert assert_genuine_character(reg) == mults
    # ints holds None where a coordinate is not an integer, and a negative
    # integer as it is; neither is a genuine character
    bogus = ClassFunction(G, [3, 1, -2])
    assert None in decompose(bogus)[1]
    negative = -trivial_character(G)
    assert decompose(negative)[1] == tuple(-int(c == trivial_character(G))
                                           for c in chars)
    for v in (bogus, negative):
        try:
            assert_genuine_character(v)
            raise AssertionError("%r was taken as genuine" % (v,))
        except UserError as exc:
            assert "is not a genuine character" in str(exc)


def test_decompose_matches_the_per_term_reference():
    # every product of two irreducibles, at conductors up to 24, which is
    # where the fused sums descend; then a memo hit against a fresh run.
    # On cyclic(24) the product is itself irreducible, which is checked in
    # place of the slower per-term reference.
    for spec in ("cyclic(8)", "cyclic(12)", "cyclic(24)", "dihedral(5)",
                 "binary_dihedral(3)"):
        G = catalog_group(spec)
        table = character_table(G)
        for i, a in enumerate(table):
            for b in table[i:]:
                prod = a * b
                mults, ints = decompose(prod)
                assert None not in ints and min(ints) >= 0, (
                    f"{spec}: {prod} is a character")
                assert ints == tuple(int(m.to_rational()) for m in mults)
                if G.n == 24:
                    want = [ZERO] * G.n
                    want[table.index(prod)] = ONE
                else:
                    want = [reference_inner_product(prod, chi)
                            for chi in table]
                assert mults == tuple(want), spec
        key = ("decompose", prod.values)
        assert G._memo[key] == (mults, ints)
        again = ClassFunction(G, list(prod.values))
        assert decompose(again) is G._memo[key], "a memo hit"
        del G._memo[key]
        assert decompose(again) == (mults, ints), "a fresh run"


def test_int_coords_reads_integers_decided_once(monkeypatch):
    # decompose tests each coordinate for integrality once; int_coords on a
    # memo hit, such as an irreducible that character_table recorded,
    # converts no coordinate again
    G = catalog_group("cyclic(24)")
    table = character_table(G)
    prod = table[1] * table[5]
    first = int_coords(prod)
    calls = []
    real = Cyclotomic.to_rational

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Cyclotomic, "to_rational", counted)
    for chi in table:
        assert int_coords(chi) == [int(psi is chi) for psi in table]
    assert int_coords(prod, nonnegative=True) == first
    assert calls == [], f"{len(calls)} coordinates converted on memo hits"


def test_bad_coordinates_raise_with_and_without_optimize():
    # a coordinate that is not an integer, or a negative one where
    # non-negative ones are demanded, raises TheoremViolation with the
    # message naming the coordinate, also under -O
    script = """
import json
from inertial.characters import ClassFunction, int_coords, trivial_character
from inertial.errors import TheoremViolation
from inertial.groups import catalog_group
G = catalog_group("symmetric(3)")
messages = []
for v, nonnegative in ((ClassFunction(G, [3, 1, -2]), False),
                       (-trivial_character(G), True)):
    for attempt in range(2):  # a miss, then a memo hit
        try:
            int_coords(v, "the class", nonnegative)
            messages.append(None)
        except TheoremViolation as exc:
            messages.append(str(exc))
print(json.dumps(messages))
"""
    want = ["the class has a coordinate cyc(11/6) that is not an integer"] * 2
    want += ["the class has a coordinate cyc(-1) that is not a non-negative "
             "integer"] * 2
    for flags in ((), ("-O",)):
        proc = _run_script(script, *flags)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == want, flags


def test_trivial_index_is_the_all_ones_row():
    # on each group, its centralizers and H = <m> for each of its pair
    # classes m, the trivial index is the one row of the table with every
    # value 1
    for spec in RECORDED_GROUPS:
        G = catalog_group(spec)
        groups = {G.centralizer(x).group for x in range(G.n)} | {G}
        groups |= {G.generated(cls.rep).group
                   for cls in build_double_sectors(G)}
        for H in groups:
            ones = [t for t, chi in enumerate(character_table(H))
                    if all(x == ONE for x in chi.values)]
            assert ones == [trivial_index(H)], spec


def test_class_function_sums_match_the_per_term_reference():
    for spec, rep in (("cyclic(8)", "sl2"), ("binary_dihedral(3)", "sl2"),
                      ("quaternion8", "sl2"), ("symmetric(4)", "std")):
        G = catalog_group(spec)
        v = catalog_character(G, rep)
        for x in range(G.n):
            assert eigen_multiplicities(v, x) == (
                reference_eigen_multiplicities(v, x)), f"{spec}: {x}"
        for gens in ((1,), (G.n - 1,), (1, G.n - 1)):
            H = G.generated(gens)
            for chi in character_table(H.group):
                assert induce_from(chi, H) == reference_induce(chi, H), spec
        for a in character_table(G):
            assert inner_product(v, a) == reference_inner_product(v, a)


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
            assert decompose(dual(chi))[1] == tuple(
                int(psi == dual(chi)) for psi in character_table(G))


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
    assert invariant_dimension(regular_character(G), G.subgroup(range(G.n))) == 1
    assert invariant_dimension(trivial_character(G), G.subgroup(range(G.n))) == 1
    assert invariant_dimension(catalog_character(G, "std"), G.subgroup(range(G.n))) == 0
    H = G.generated((G.element_from_string("s1"),))
    assert invariant_dimension(catalog_character(G, "std"), H) == 1


def test_catalog_characters():
    G = catalog_group("symmetric(3)")
    assert catalog_character(G, "trivial") == trivial_character(G)
    assert catalog_character(G, "zero") == zero_character(G)
    assert catalog_character(G, "regular") == regular_character(G)
    std = catalog_character(G, "std")
    assert std.dim().to_rational() == 2
    assert decompose(std)[1] == tuple(int(chi == std)
                                      for chi in character_table(G))
    try:
        catalog_character(G, "sl2")
        raise AssertionError("sl2 is only for the SL2 catalog groups")
    except UserError:
        pass


def test_class_function_validation():
    G = catalog_group("symmetric(3)")
    try:
        ClassFunction(G, [1, 2])
        raise AssertionError("wrong length accepted")
    except UserError:
        pass


def test_tables_match_the_closed_forms():
    # cyclic and dihedral groups up to n = 12, and the Klein group, against
    # closed forms that share no code with Dixon's method
    specs = (["cyclic(%d)" % n for n in range(1, 13)]
             + ["dihedral(%d)" % n for n in range(1, 13)] + ["klein4"])
    for spec in specs:
        G = catalog_group(spec)
        got = {chi.values for chi in character_table(G)}
        assert got == closed_form_table(G), spec


def _run_script(script, *flags):
    """Run a Python script in a fresh interpreter with the given flags and
    the package's sources on PYTHONPATH."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, env=env)


def test_dixon_lift_checks_survive_optimize():
    # assert statements vanish under -O; a wrong lifted value must still be
    # caught by the exact orthogonality check
    script = """
import sys
from inertial import characters
from inertial.cli import main
if not sys.flags.optimize:
    sys.exit(2)
real = characters.root_of_unity
characters.root_of_unity = (
    lambda o, k: real(o, k) + (1 if (o, k) == (3, 1) else 0))
sys.exit(main(["chartable", "--group", "catalog:cyclic(3)"]))
"""
    proc = _run_script(script, "-O")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == b""
    assert json.loads(proc.stderr)["error"]["kind"] == "TheoremViolation"


def test_dixon_split_checks_raise_with_and_without_optimize():
    # made-up class matrices over F_7 drive each check of the eigenspace
    # split; under -O as well, each raises TheoremViolation
    script = """
import json
from inertial import characters
from inertial.errors import TheoremViolation
from inertial.groups import FiniteGroup

CASES = [
    # x^2 + 1 has no root mod 7: the rotation has no eigenvector
    (2, {1: [[0, 6], [1, 0]]}),
    # M_1 splits F_7^3 into <e0> and <e1, e2>; M_2 sends e1 to e0
    (3, {1: [[1, 0, 0], [0, 2, 0], [0, 0, 2]],
         2: [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}),
    # the identity splits nothing
    (2, {1: [[1, 0], [0, 1]]}),
]
characters._dixon_prime = lambda order, exponent: 7
messages = []
for n, matrices in CASES:
    characters._class_matrix = (
        lambda group, i, p: [row[:] for row in matrices[i]])
    G = FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])
    try:
        characters.character_table(G)
        messages.append(None)
    except TheoremViolation as exc:
        messages.append(str(exc))
print(json.dumps(messages))
"""
    for flags in ((), ("-O",)):
        proc = _run_script(script, *flags)
        assert proc.returncode == 0, proc.stderr
        fill, left, separate = json.loads(proc.stdout)
        assert fill == "eigenspaces do not fill", flags
        assert left.startswith("image left the subspace"), flags
        assert separate == ("class matrices failed to separate the "
                            "irreducible characters"), flags


def test_lift_reads_each_power_once_per_class(monkeypatch):
    # the lift of the character values computes the classes of g^j once
    # per class representative g, for every irreducible at once: at most
    # sum_g o(g) powers, 301 on cyclic(24), where a lift per irreducible
    # and per k takes 133,608
    calls = []
    real = FiniteGroup.power

    def counted(self, a, k):
        calls.append((a, k))
        return real(self, a, k)

    G = FiniteGroup(catalog_group("cyclic(24)").table)
    bound = sum(G.order_of(g) for g in G.class_reps())
    assert bound == 301
    monkeypatch.setattr(FiniteGroup, "power", counted)
    table = character_table(G)
    assert len(table) == 24
    assert 0 < len(calls) <= bound
