"""Independent oracles the test suite checks library output against.

The group-table oracles work directly on raw multiplication tables by brute
force, deliberately avoiding the library's class / centralizer machinery, so
that an agreement between the two is meaningful.  The K-ring reference uses
the library's character primitives but not its product routine: it forms
every product of two irreducibles as a class function and decomposes it,
where the library works in integer coordinates.  The Newton-identity route
to lambda_-1 of the dual is checked against the library's eigenvalue
product.
"""

from fractions import Fraction

from inertial.characters import (
    ClassFunction,
    character_table,
    decompose,
    induce_between,
    lambda_minus_one_dual,
    restrict_between,
    transport,
)
from inertial.cyclotomic import ONE, ZERO
from inertial.errors import TheoremViolation
from inertial.inertia import build_double_sectors, build_sectors
from inertial.logtrace import invariants_char, twisted_pullback


def brute_identity(table):
    n = len(table)
    for e in range(n):
        if all(table[e][b] == b for b in range(n)):
            return e
    raise AssertionError("table has no identity")


def brute_inverses(table):
    n = len(table)
    e = brute_identity(table)
    return [next(b for b in range(n) if table[a][b] == e) for a in range(n)]


def brute_classes(table):
    """Conjugacy classes from a multiplication table alone.

    Sorted by (size, smallest member), each class itself sorted ascending —
    the same order the library promises, computed without it.
    """
    n = len(table)
    inv = brute_inverses(table)
    seen = [False] * n
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = sorted({table[table[g][x]][inv[g]] for g in range(n)})
        for y in orbit:
            seen[y] = True
        classes.append(orbit)
    classes.sort(key=lambda c: (len(c), c[0]))
    return classes


def class_sum_constants(table):
    """Structure constants of the centre of the group algebra.

    With C_0, ..., C_{r-1} the conjugacy classes and S_i the class sums,
    S_i * S_j = sum_k a[i][j][k] * S_k where a[i][j][k] counts solutions of
    x * y = z for x in C_i, y in C_j and a fixed z in C_k.  The count is the
    same for every choice of z in C_k, which is asserted as a self-check.
    """
    classes = brute_classes(table)
    index_of = {}
    for idx, cls in enumerate(classes):
        for x in cls:
            index_of[x] = idx
    r = len(classes)
    constants = {}
    for i in range(r):
        for j in range(r):
            tally = [0] * len(table)
            for x in classes[i]:
                row = table[x]
                for y in classes[j]:
                    tally[row[y]] += 1
            row_out = {}
            for k, cls in enumerate(classes):
                count = tally[cls[0]]
                assert all(tally[z] == count for z in cls), (
                    "class sum tally is not constant on a class"
                )
                if count:
                    row_out[k] = Fraction(count)
            constants[(i, j)] = row_out
    return classes, constants


# Classical irreducible degree lists (ascending), straight from the standard
# tables of small groups.
CLASSICAL_DEGREES = {
    "symmetric(3)": [1, 1, 2],
    "dihedral(4)": [1, 1, 1, 1, 2],
    "quaternion8": [1, 1, 1, 1, 2],
    "alternating(4)": [1, 1, 1, 3],
}


def reference_k_table(G, v):
    """The integral product table of [V/G], one product of irreducibles at a time.

    For each double class (m1, m2) with centralizer Z: move the irreducibles
    of both input sectors to Z through the class witnesses and restrict;
    multiply each pair with lambda_-1 of the dual obstruction class and of
    the dual of V^{m1 m2} / V^{<m1, m2>}; induce to the centralizer of
    m1 m2, move onto its sector and decompose.  Keys and basis numbering
    follow the library's KBasis: sectors in order, irreducibles in table
    order within each.
    """
    sectors = build_sectors(G).sectors
    offsets = []
    off = 0
    for s in sectors:
        offsets.append(off)
        off += len(character_table(s.centralizer.group))

    def restricted(elem, s, Z):
        Zs = sectors[s].centralizer
        out = []
        for chi in character_table(Zs.group):
            moved, sub = transport(chi, Zs, G.witness(elem))
            out.append(restrict_between(moved, sub, Z))
        return out

    table = {}
    for cls in build_double_sectors(G).classes:
        m1, m2 = cls.rep
        m12 = G.op(m1, m2)
        Z = cls.centralizer
        s1, s2, s12 = (G.class_of(m) for m in (m1, m2, m12))
        excess = invariants_char(v, (m12,), Z) - invariants_char(v, (m1, m2), Z)
        factor = (lambda_minus_one_dual(twisted_pullback(v, (m1, m2)).char)
                  * lambda_minus_one_dual(excess))
        Z12 = G.centralizer(m12)
        h12 = G.inv[G.witness(m12)]
        for t1, a in enumerate(restricted(m1, s1, Z)):
            for t2, b in enumerate(restricted(m2, s2, Z)):
                ind = induce_between(a * b * factor, Z, Z12)
                moved, sub = transport(ind, Z12, h12)
                assert sub is sectors[s12].centralizer
                row = table.setdefault((offsets[s1] + t1, offsets[s2] + t2), {})
                for t, m in enumerate(decompose(moved)[0]):
                    q = m.to_rational()
                    assert q is not None and q.denominator == 1, (
                        "structure constant %r is not an integer" % m
                    )
                    k = offsets[s12] + t
                    row[k] = row.get(k, Fraction(0)) + q
    return {key: {k: c for k, c in row.items() if c != 0}
            for key, row in table.items()
            if any(c != 0 for c in row.values())}


def lambda_minus_one_dual_newton(v):
    """Same alternating sum, computed through Newton's identities instead.

    Retained as an independent route for cross-checking: exterior-power
    traces e_k are recovered from the power sums of the dual character.
    """
    g = v.group
    d = v.values[0].to_rational()
    if d is None or d.denominator != 1 or d < 0:
        raise TheoremViolation("dimension %r is not a non-negative integer" % d)
    d = int(d)
    vals = []
    for rep in g.class_reps():
        psums = [dual_power_trace(v, rep, i) for i in range(1, d + 1)]
        es = [ONE]
        for k in range(1, d + 1):
            total = ZERO
            for i in range(1, k + 1):
                term = es[k - i] * psums[i - 1]
                total = total + (term if i % 2 == 1 else -term)
            es.append(total * Fraction(1, k))
        total = ZERO
        for k, ek in enumerate(es):
            total = total + (ek if k % 2 == 0 else -ek)
        vals.append(total)
    return ClassFunction(g, vals)


def dual_power_trace(v, x, i):
    """Trace of x^i on the dual of v, i.e. conj(v(x^i))."""
    return v.value(v.group.power(x, i)).conjugate()
