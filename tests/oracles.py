"""Independent oracles the test suite checks library output against.

The group-table oracles work directly on raw multiplication tables by brute
force, deliberately avoiding the library's class / centralizer machinery, so
that an agreement between the two is meaningful.  The K-ring reference uses
the library's character primitives but not its product routine: it forms
every product of two irreducibles as a class function, induces it to the
product's centralizer and decomposes it, where the library works in integer
coordinates and pushes forward by the transpose of a restriction (Frobenius
reciprocity).  The obstruction-class reference rebuilds each class
pointwise from the isotypic pieces of V, where the library reads it off
one integer pullback table.  The eigencharacters of an element are split
one root of unity at a time, where the library's log trace is one weighted
sum over the element's powers.  The Newton-identity route
to lambda_-1 of the dual is checked against the library's eigenvalue
product.  The orbit of a single tuple and a lex scan of all tuples are
checked against the library's class enumeration, which extends shorter
classes by centralizer orbits.  The scalar-field reference works on
Fraction coefficients and finds the minimal conductor by the Galois-fixed
test and a linear solve, where the library descends by cached integer
tables.  The class-function sums (inner products, eigenvalue
multiplicities, induction) are added one term at a time with + and *,
where the library fuses each sum into one integer computation.  The
triple-check references compare (e_i e_j) e_k one triple at a time with
GradedAlgebra.mul on basis vectors, where the library compares whole rows
of packed integer products for each pair (i, j).  The
identity-family reference checks every element triple, where the CLI
checks one triple per class of simultaneous conjugation.  The restriction
f^! and the forward map act on one class function per sector (restrict,
project, untwist; twist, induce), and the transplanted product runs through
them and the integral ring's table, where the library rescales the Chow
table by one normal factor per sector.  The permutation-group Chow ring
counts factorizations of additive length, where the library reads ages
and fixed spaces.  A fixed-space dimension is counted class by class on a
subgroup closed from the raw table, where the library reads it off the
fixed-space character at the identity.  The command-line reference is the
argparse parser that the hand parser replaced, built from the same option
table.
"""

import argparse
import cmath
import itertools
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from inertial.characters import (
    ClassFunction,
    character_table,
    check_linearization,
    decompose,
    induce_between,
    induce_from,
    lambda_minus_one_dual,
    restrict_between,
    restrict_to,
    transport,
    trivial_character,
    trivial_index,
    zero_character,
)
from inertial.cyclotomic import ONE, ZERO, cyclotomic_polynomial, root_of_unity
from inertial.errors import TheoremViolation, UserError
from inertial.chern import support_project
from inertial.cli import COMMANDS, FLAG, INT, REQUIRED, _Parser
from inertial.inertia import build_double_sectors, build_sectors
from inertial.logtrace import (
    age, fw_check, invariants_char, twisted_pullback, v_identity_check)
from inertial.rings import _fusion, _restriction, k_basis, k_ring


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


def closed_form_table(G):
    """The irreducible characters of a cyclic, dihedral or Klein catalog
    group from their closed forms, as a set of value tuples by class.

    cyclic(n), element g^k at index k: chi_j(g^k) = zeta_n^(jk).
    dihedral(n), r^k s^e at index k + n*e: the linear characters (-1)^e,
    and for even n also (-1)^k and (-1)^(k+e); and for 0 < h < n/2,
    rho_h(r^k) = zeta_n^(hk) + zeta_n^(-hk) and rho_h(r^k s) = 0.
    klein4, elements 0..3 multiplied by xor: chi_m(x) = (-1)^|m & x|.
    Nothing here runs Dixon's method or any other table computation.
    """
    kind, n = G.catalog
    reps = G.class_reps()
    if kind == "cyclic":
        funcs = [lambda x, j=j: root_of_unity(n, j * x) for j in range(n)]
    elif kind == "dihedral":
        funcs = [lambda x, a=a, b=b: -ONE if (a * (x % n) + b * (x // n)) % 2
                 else ONE
                 for a in range(2 - n % 2) for b in (0, 1)]
        funcs += [lambda x, h=h: ZERO if x >= n
                  else root_of_unity(n, h * x) + root_of_unity(n, -h * x)
                  for h in range(1, (n + 1) // 2)]
    elif kind == "klein4":
        funcs = [lambda x, m=m: -ONE if bin(m & x).count("1") % 2 else ONE
                 for m in range(4)]
    else:
        raise ValueError("no closed form for %s" % G.label)
    return {tuple(f(x) for x in reps) for f in funcs}


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
    for cls in build_double_sectors(G):
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


def toric_character(G, weights):
    """V = L_1 + ... + L_r on cyclic(n), where g^k (index k) acts on L_i
    by zeta_n^(a_i k) for the integer weights (a_1, ..., a_r)."""
    n = G.n
    return ClassFunction(G, [sum((root_of_unity(n, a * x) for a in weights),
                                 ZERO) for x in G.class_reps()])


def toric_products(G, weights):
    """The Chow and K tables of the toric quotient [V/G], V =
    toric_character(G, weights), from the closed forms of Borisov, Chen and
    Smith (Chow) and Borisov and Horja (K), with no log trace, obstruction
    class or restriction.

    G is cyclic(n) with g^k at index k, and c_i(g^k) = (a_i k mod n) / n in
    [0, 1) is the weight of g^k on L_i.  Characters are exponents,
    chi_b(g^k) = zeta_n^(bk), so L_i = chi_(a_i) and L_i^-1 = chi_(-a_i).
    Chow: x_g x_h = x_gh when c_i(g) + c_i(h) < 1 for every i, else 0.
    K: e_(g,chi) e_(h,psi) = e_(gh, chi psi prod_i (1 - L_i^-1)), the
    product over the i with c_i(g) + c_i(h) >= 1: above 1 the obstruction
    bundle, at exactly 1 the excess bundle.  Keys and numbering follow the
    library's bases: sector of g^k its class, and in the K basis index
    n * sector + the position of chi_b in character_table(G), matched by
    its values only.
    """
    kind, n = G.catalog
    if kind != "cyclic":
        raise ValueError("no toric closed form for %s" % G.label)
    reps = G.class_reps()
    position = {tuple(chi.values): t
                for t, chi in enumerate(character_table(G))}
    irr = [position[tuple(root_of_unity(n, b * x) for x in reps)]
           for b in range(n)]
    sector = [G.class_of(k) for k in range(n)]
    chow, k_table = {}, {}
    for g, h in itertools.product(range(n), repeat=2):
        gh = (g + h) % n
        over = [a for a in weights if a * g % n + a * h % n >= n]
        if not over:
            chow[(sector[g], sector[h])] = {sector[gh]: 1}
        factor = {0: 1}  # exponent b -> coefficient of chi_b
        for a in over:
            times = dict(factor)
            for b, m in factor.items():
                times[(b - a) % n] = times.get((b - a) % n, 0) - m
            factor = times
        for x, y in itertools.product(range(n), repeat=2):
            row = {}
            for b, m in factor.items():
                t = n * sector[gh] + irr[(x + y + b) % n]
                row[t] = row.get(t, 0) + m
            row = {t: m for t, m in row.items() if m}
            if row:
                k_table[(n * sector[g] + irr[x], n * sector[h] + irr[y])] = row
    return chow, k_table


def _cycle_count(p):
    """The number of cycles of the permutation p, fixed points included."""
    seen = [False] * len(p)
    count = 0
    for x in range(len(p)):
        if not seen[x]:
            count += 1
            while not seen[x]:
                seen[x] = True
                x = p[x]
    return count


def factorization_products(G, copies):
    """The Chow table and grading of [V/G] for a permutation group G on m
    points and V the sum of `copies` copies of its permutation
    representation C^m, from the rule of Lehn and Sorger
    (arXiv:math/0009131) and Fantechi and Goettsche (arXiv:math/0104207),
    with no character, eigenvalue, age or log trace:

        x_A x_B = sum_C #{(a, b) in A x B : ab = c, l(a) + l(b) = l(c)} x_C

    for a fixed c in C, where l(g) = m - #cycles(g).  A k-cycle has age
    (k - 1) / 2 on C^k, so x_A has grade copies * l(a) / 2.  Reads only
    G.permutations, the multiplication table and the sector list; c is the
    sector's representative, and keys and numbering are the library's.
    """
    t = G.table
    inv = [row.index(0) for row in t]
    reps = [s.rep for s in build_sectors(G).sectors]
    sector = {}
    for i, r in enumerate(reps):
        for w in range(G.n):
            sector[t[t[w][r]][inv[w]]] = i
    length = [len(p) - _cycle_count(p) for p in G.permutations]
    table = {}
    for k, c in enumerate(reps):
        for a in range(G.n):
            b = t[inv[a]][c]  # the one b with ab = c
            if length[a] + length[b] == length[c]:
                row = table.setdefault((sector[a], sector[b]), {})
                row[k] = row.get(k, 0) + 1
    grading = [Fraction(copies * length[r], 2) for r in reps]
    return table, grading


def reference_k_pairing(G):
    """The pairing matrix of the complete quotient [pt/G] on G's K basis,
    from the fusion rows: eta((s, t1), (s^-1, t2)) sums over the
    irreducibles q of Z_s the coordinate q of t2's row, moved from the
    inverse sector and restricted, times the multiplicity of the trivial
    irreducible in t1 * q."""
    sectors = build_sectors(G)
    basis = k_basis(G)
    matrix = [[0] * basis.size for _ in range(basis.size)]
    for si, s in enumerate(sectors.sectors):
        sj = sectors.sigma[si]
        Z = s.centralizer
        rows = _restriction(G, G.inv[s.rep], Z)
        one = trivial_index(Z.group)
        for t1, products in enumerate(_fusion(Z.group)):
            for t2, row in enumerate(rows):
                matrix[basis.index(si, t1)][basis.index(sj, t2)] = sum(
                    row[q] * c for q, terms in enumerate(products)
                    for k, c in terms if k == one)
    return matrix


def _first_failing_triple(alg, left, right):
    """The first (i, j, k), lexicographically, with
    left(e_i e_j, k) != right(i, j, k), or None."""
    n = alg.dim
    for i in range(n):
        for j in range(n):
            ij = alg.table.get((i, j), {})
            for k in range(n):
                if left(ij, k) != right(i, j, k):
                    return i, j, k
    return None


def reference_associativity(alg):
    """The first triple with (e_i e_j) e_k != e_i (e_j e_k), or None."""
    return _first_failing_triple(
        alg, lambda ij, k: alg.mul(ij, {k: 1}),
        lambda i, j, k: alg.mul({i: 1}, alg.table.get((j, k), {})),
    )


def reference_frobenius(alg, eta):
    """The first triple with eta(e_i e_j, e_k) != eta(e_i, e_j e_k), or None."""
    return _first_failing_triple(
        alg, lambda ij, k: sum(c * eta[m][k] for m, c in ij.items()),
        lambda i, j, k: sum(c * eta[i][m]
                            for m, c in alg.table.get((j, k), {}).items()),
    )


def reference_multiproduct(alg, direct):
    """The first triple at which (e_i e_j) e_k differs from direct[(i, j, k)],
    or None."""
    return _first_failing_triple(
        alg, lambda ij, k: alg.mul(ij, {k: 1}),
        lambda i, j, k: {t: c for t, c in direct.get((i, j, k), {}).items()
                         if c != 0},
    )


def reference_linear_combination(coeffs, xs, ys=None, den=1,
                                 conjugate=False):
    """sum_i coeffs[i] * xs[i] * ys[i] / den one term at a time, with a
    canonical Cyclotomic built by + and * after every term."""
    total = ZERO
    for i, (c, x) in enumerate(zip(coeffs, xs)):
        if ys is not None:
            x = x * (ys[i].galois(-1) if conjugate else ys[i])
        total = total + c * x
    return total * Fraction(1, den)


def reference_inner_product(a, b):
    """(1/|G|) sum over classes of |C| a(C) conj(b(C)), term by term."""
    g = a.group
    total = ZERO
    for members, av, bv in zip(g.conjugacy_classes(), a.values, b.values):
        total = total + len(members) * av * bv.galois(-1)
    return total * Fraction(1, g.n)


def reference_eigen_multiplicities(v, x):
    """m_k = (1/o) sum_j v(x^j) zeta_o^(-jk), k = 0 .. o-1, term by term."""
    g = v.group
    o = g.order_of(x)
    powers = [v.value(g.power(x, j)) for j in range(o)]
    mults = []
    for k in range(o):
        total = ZERO
        for j, pv in enumerate(powers):
            total = total + pv * root_of_unity(o, (-j * k) % o)
        mults.append((total * Fraction(1, o)).to_rational())
    return tuple(mults)


def reference_induce(v, sub):
    """v induced to sub.parent: (1/|H|) sum over all x of v(x^-1 g x)."""
    G = sub.parent
    vals = []
    for rep in G.class_reps():
        total = ZERO
        for x in range(G.n):
            local = sub.from_parent.get(G.conj(G.inv[x], rep))
            if local is not None:
                total = total + v.value(local)
        vals.append(total * Fraction(1, sub.order))
    return ClassFunction(G, vals)


class EigenDecomposition(NamedTuple):
    """Eigencharacters V_k of an element g on V, as characters of Z(g)."""

    element: int
    order: int
    sub: object
    parts: list


def eigen_characters(v, g):
    """Split v under the action of g into root-of-unity eigencharacters on
    the centralizer of g: parts[k](z) = (1/o) sum_j zeta_o^(-jk) v(g^j z)."""
    G = v.group
    sub = G.centralizer(g)
    o = G.order_of(g)
    powers = [G.power(g, j) for j in range(o)]
    parts = []
    for k in range(o):
        vals = []
        for rep in sub.group.class_reps():
            zp = sub.to_parent(rep)
            total = ZERO
            for j, gj in enumerate(powers):
                total = total + root_of_unity(o, -j * k) * v.value(G.op(gj, zp))
            vals.append(total * Fraction(1, o))
        parts.append(ClassFunction(sub.group, vals))
    return EigenDecomposition(g, o, sub, parts)


def reference_obstruction(v, ms):
    """Coordinates of the obstruction class of a tuple with product 1,
    rebuilt pointwise from the isotypic pieces of V under H = <m>.

    V(m) = sum_E r_E Hom_H(E, V) over the nontrivial irreducibles E of H,
    with r_E = sum_i age_E(m_i) - dim E; the character of Hom_H(E, V) at z
    in the tuple centralizer is (1/|H|) sum_{h in H} conj(E(h)) v(hz).
    """
    G = v.group
    Z = G.centralizer(*ms)
    H = G.generated(ms)
    triv = trivial_character(H.group)
    total = zero_character(Z.group)
    for chi in character_table(H.group):
        if chi == triv:
            continue
        r = (sum(age(chi, H.from_parent[m]) for m in ms)
             - chi.values[0].to_rational())
        vals = []
        for rep in Z.group.class_reps():
            zp = Z.to_parent(rep)
            acc = ZERO
            for local, h in enumerate(H.elements):
                acc = acc + chi.value(local).galois(-1) * v.value(G.op(h, zp))
            vals.append(acc * Fraction(1, H.order))
        total = total + ClassFunction(Z.group, vals) * r
    return tuple(m.to_rational() for m in decompose(total)[0])


def reference_fixed_dimension(v, ms):
    """dim V^H, H = <ms>, counted class by class: (1/|H|) sum_C |H n C|
    v(C), with H closed from ms on the raw table and the sum added one
    term at a time; it must be an integer."""
    G = v.group
    H, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for m in ms:
            y = G.table[x][m]
            if y not in H:
                H.add(y)
                frontier.append(y)
    counts = [0] * len(v.values)
    for h in H:
        counts[G.class_of(h)] += 1
    total = ZERO
    for count, value in zip(counts, v.values):
        total = total + count * value
    q = (total * Fraction(1, len(H))).to_rational()
    if q is None or q.denominator != 1:
        raise TheoremViolation("fixed-space dimension came out as %r, not an "
                               "integer" % q)
    return int(q)


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


def power_class(g, c, j):
    """The class of the j-th power of class c's members."""
    return g.class_of(g.power(g.conjugacy_classes()[c][0], j))


def adams(v, j):
    """Adams operation: g -> v(g^j)."""
    g = v.group
    return ClassFunction(
        g, [v.values[power_class(g, i, j)] for i in range(len(v.values))]
    )


def dual(v):
    """Character of the dual representation, g -> v(g^-1)."""
    return adams(v, -1)


def dual_power_trace(v, x, i):
    """Trace of x^i on the dual of v, i.e. conj(v(x^i))."""
    return v.value(v.group.power(x, i)).galois(-1)


class Orbit(NamedTuple):
    """One class of tuples under simultaneous conjugation."""
    rep: tuple
    centralizer: object
    members: list


def resolve_diag_class(group, elements):
    """The orbit of one tuple under simultaneous conjugation, found on its
    own rather than by the eager enumeration."""
    elements = tuple(elements)
    conj = group.conj
    seen = {}
    members = []
    for x in range(group.n):
        img = tuple(conj(x, m) for m in elements)
        if img not in seen:
            seen[img] = x
            members.append(img)
    rep = min(members)
    return Orbit(rep, group.centralizer(*rep), members)


def reference_v_identities(v, triples=None):
    """The identity family's report on every element triple of v's group,
    or on the given triples, keyed by triple: the per-element scan that one
    check per triple class replaced."""
    if triples is None:
        triples = itertools.product(range(v.group.n), repeat=3)
    return {t: v_identity_check(v, t) for t in triples}


def reference_fw(v):
    """verify --fw's report from every element pair (a, a^-1) and triple
    (a, b, (ab)^-1) of v's group: the per-element scan that one check per
    sector and per pair class replaced."""
    G = v.group
    ok = True
    count = 0
    for a in range(G.n):
        ok = fw_check(v, (a, G.inv[a]))["holds"] and ok
        count += 1
        for b in range(G.n):
            ok = fw_check(v, (a, b, G.inv[G.op(a, b)]))["holds"] and ok
            count += 1
    return {"tuples": count, "holds": ok}


def reference_diag_classes(group, length):
    """Lex scan of all l-tuples: each class of simultaneous conjugation in
    order of its lex-least member.  Every tuple is visited; the first unseen
    one starts a new class and marks its whole orbit."""
    n = group.n
    table = group.table
    inv = brute_inverses(table)
    seen = set()
    out = []
    for t in itertools.product(range(n), repeat=length):
        if t in seen:
            continue
        members = {tuple(table[table[x][m]][inv[x]] for m in t)
                   for x in range(n)}
        seen |= members
        out.append(Orbit(t, group.centralizer(*t), sorted(members)))
    return out


def support_components(alpha):
    """All support projections; they sum back to the input."""
    return [support_project(alpha, i) for i in range(len(alpha.values))]


def mult_twist(alpha, h):
    """Twist by a central element: t_h(alpha)(z) = alpha(h z)."""
    g = alpha.group
    for x in range(g.n):
        if g.op(h, x) != g.op(x, h):
            raise UserError("the twisting element must be central")
    vals = [alpha.value(g.op(h, rep)) for rep in g.class_reps()]
    return ClassFunction(g, vals)


def reference_normal_factor(v, sector):
    """lambda_-1 of the dual normal class V - V^h at a sector, on Z(h)."""
    Z = sector.centralizer
    fixed = invariants_char(v, (sector.rep,), Z)
    return lambda_minus_one_dual(restrict_to(v, Z) - fixed)


def reference_f_shriek(alpha, G, v):
    """Restriction to the fixed loci: per sector, restrict, project onto the
    sector element's own class, divide by the normal factor's value there,
    and untwist.  Components come back supported at the identity class."""
    if alpha.group is not G:
        raise UserError("class function does not live on the given group")
    check_linearization(G, v)
    sectors = build_sectors(G)
    out = []
    for s in sectors.sectors:
        Z = s.centralizer
        h_local = Z.from_parent[s.rep]
        cls = Z.group.class_of(h_local)
        if len(Z.group.conjugacy_classes()[cls]) != 1:
            raise TheoremViolation(
                "a sector element must be central in its centralizer")
        proj = support_project(restrict_to(alpha, Z), cls)
        scale = reference_normal_factor(v, s).value(h_local)
        if scale.to_rational() == 0:
            raise TheoremViolation(
                "normal-bundle factor vanished at a sector element"
            )
        comp = mult_twist(proj * scale.inverse(), h_local)
        if any(val != ZERO for val in comp.values[1:]):
            raise TheoremViolation("component not supported at the identity")
        out.append(comp)
    return out


def reference_push_twist(components, G, v):
    """The forward map: per sector twist by the inverse element, multiply by
    the normal factor, induce up to G, and sum."""
    check_linearization(G, v)
    sectors = build_sectors(G)
    if len(components) != len(sectors.sectors):
        raise UserError(
            "expected one component per sector (%d)" % len(sectors.sectors)
        )
    total = None
    for s, comp in zip(sectors.sectors, components):
        Z = s.centralizer
        if comp.group is not Z.group:
            raise UserError("component %d lives on the wrong group" % s.index)
        h_local = Z.from_parent[s.rep]
        tcomp = mult_twist(comp, Z.group.inv[h_local])
        ind = induce_from(tcomp * reference_normal_factor(v, s), Z)
        total = ind if total is None else total + ind
    return total


def reference_star_t(G, v):
    """The transplanted product of every pair of class deltas, through the
    integral ring: f^! of each delta in K-basis coordinates, their product
    in k_ring's table, and the forward map of the result, summed from one
    image per basis element.  Returns {(i, j): delta_i * delta_j}."""
    K = k_ring(G, v)
    r = len(G.conjugacy_classes())
    one = trivial_character(G)
    shrieks = [expand_components(G, reference_f_shriek(
        support_project(one, i), G, v)) for i in range(r)]
    images = [reference_push_twist(basis_components(G, s, t), G, v)
              for s, t in k_basis(G).pairs]
    table = {}
    for i in range(r):
        for j in range(r):
            total = zero_character(G)
            for idx, c in K.mul(shrieks[i], shrieks[j]).items():
                total = total + images[idx] * c
            table[(i, j)] = total
    return table


def expand_components(G, components):
    """Coefficients over the (sector, irreducible) basis of the integral
    ring of a stack of identity-supported components, in the ring's own
    numbering: component s of value c at the identity is c times the
    regular character of Z_s over |Z_s|, so (s, t) gets c deg t / |Z_s|."""
    vec = {}
    index = 0
    for s, comp in zip(build_sectors(G).sectors, components):
        c = comp.values[0]
        order = s.centralizer.order
        for chi in character_table(s.centralizer.group):
            if c != ZERO:
                vec[index] = c * Fraction(chi.values[0].to_rational(), order)
            index += 1
    return vec


def basis_components(G, s, t):
    """The stack of components of the basis element (s, t): the irreducible
    chi_t of Z_s in sector s and zero elsewhere."""
    return [character_table(sector.centralizer.group)[t] if sector.index == s
            else zero_character(sector.centralizer.group)
            for sector in build_sectors(G).sectors]


# -- the scalar field --------------------------------------------------------


def approx(z):
    """Float embedding of a Cyclotomic via zeta_N -> exp(2*pi*i/N)."""
    w = cmath.exp(2j * cmath.pi / z.conductor)
    return sum(c / z.den * w**k for k, c in enumerate(z.nums))


def coords(z):
    """(conductor, Fraction coefficients) of a library Cyclotomic."""
    return z.conductor, tuple(Fraction(c, z.den) for c in z.nums)


def coords_json(coords):
    """The JSON form the library must give the element with these coords."""
    n, coeffs = coords
    return {"conductor": n,
            "coeffs": ["%d/%d" % (c.numerator, c.denominator) for c in coeffs]}


def reference_power(n, k):
    """x^k mod Phi_n by polynomial long division, Fraction coefficients."""
    mod = cyclotomic_polynomial(n)
    phi = len(mod) - 1
    poly = [Fraction(0)] * max(k + 1, phi)
    poly[k] = Fraction(1)
    for i in range(len(poly) - 1, phi - 1, -1):
        c = poly[i]
        if c:
            for j, m in enumerate(mod):
                poly[i - phi + j] -= c * m
    return poly[:phi]


def _combine(n, terms):
    """sum c * x^k mod Phi_n over (k, c) in terms."""
    out = [Fraction(0)] * (len(cyclotomic_polynomial(n)) - 1)
    for k, c in terms:
        if c:
            for j, r in enumerate(reference_power(n, k)):
                out[j] += c * r
    return out


def _solve_linear(columns, target):
    """Solve sum_j x_j * columns[j] = target over Fraction; None if inconsistent."""
    m = len(target)
    k = len(columns)
    aug = [[columns[j][i] for j in range(k)] + [target[i]] for i in range(m)]
    piv_cols = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, m) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    sol = [Fraction(0)] * k
    for row_i, c in enumerate(piv_cols):
        sol[c] = aug[row_i][k]
    for i in range(m):
        if sum(sol[j] * columns[j][i] for j in range(k)) != target[i]:
            return None
    return sol


def reference_canonical(n, coeffs):
    """(conductor, coefficients) of the element of Q(zeta_n) with these
    power-basis coefficients, at its minimal conductor (never 2 mod 4).

    The element lies in Q(zeta_d), d | n, exactly when the units j = 1 mod d
    of (Z/n)* fix it; for the smallest such d it is re-expressed in the
    conductor-d power basis by a linear solve.
    """
    coeffs = tuple(Fraction(c) for c in coeffs)
    for d in range(1, n):
        if n % d or d % 4 == 2:
            continue
        units = [j for j in range(2, n) if gcd(j, n) == 1 and (j - 1) % d == 0]
        if all(tuple(_combine(n, [(j * k % n, c) for k, c in enumerate(coeffs)]))
               == coeffs for j in units):
            columns = [reference_power(n, k * (n // d))
                       for k in range(len(cyclotomic_polynomial(d)) - 1)]
            sol = _solve_linear(columns, coeffs)
            if sol is None:
                raise AssertionError("a Galois-fixed element did not descend")
            return d, tuple(sol)
    if n % 4 == 2:
        raise AssertionError("conductor %d did not descend" % n)
    return n, coeffs


def reference_root(n, k):
    return reference_canonical(n, reference_power(n, k % n))


def _lift(coords, n):
    d, coeffs = coords
    return _combine(n, [(k * (n // d), c) for k, c in enumerate(coeffs)])


def reference_sum(a, b, n):
    """The canonical sum of two coords, both of conductor dividing n."""
    return reference_canonical(n, [x + y for x, y in zip(_lift(a, n),
                                                         _lift(b, n))])


def reference_product(a, b, n):
    x, y = _lift(a, n), _lift(b, n)
    return reference_canonical(n, _combine(n, [
        (i + j, xi * yj) for i, xi in enumerate(x) for j, yj in enumerate(y)]))


def reference_galois(a, j):
    n, coeffs = a
    return reference_canonical(n, _combine(n, [(j * k % n, c)
                                               for k, c in enumerate(coeffs)]))


class _ArgparseReference(argparse.ArgumentParser):
    """argparse with each usage error raised as UserError, and no help
    text: the front end's help is its own, so only the exit through help
    is compared, and formatting argparse's would be wasted."""

    def error(self, message):
        raise UserError(message)

    def print_help(self, file=None):
        pass


def reference_parser():
    """The front end as argparse reads it: one subparser per command of
    cli.COMMANDS, each with the options _Parser().options(command) lists,
    without abbreviations; a usage error raises UserError with argparse's
    message, and -h or --help raises SystemExit(0)."""
    parser = _ArgparseReference(prog="inertial", allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub = commands.add_parser(command, allow_abbrev=False)
        for name, kind in _Parser().options(command).items():
            if kind == FLAG:
                sub.add_argument("--" + name, action="store_true")
            elif isinstance(kind, tuple):
                sub.add_argument("--" + name, choices=kind, default=kind[0])
            else:
                sub.add_argument("--" + name, required=kind == REQUIRED,
                                 type=int if kind == INT else None)
    return parser
