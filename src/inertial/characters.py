"""Class functions and exact character tables of finite groups.

Character tables are computed by Dixon's method: the class-sum algebra is
diagonalized over a prime field F_p with p = 1 mod exp(G), p > 2*sqrt(|G|),
and the mod-p character values are lifted to exact cyclotomic numbers via
the eigenvalue-multiplicity discrete Fourier transform.  Row orthogonality
is checked exactly on every table before it is returned.  Every sum over
classes or group elements is one cyclotomic.linear_combination call.
"""

import json
from math import isqrt
from operator import mul

from .cyclotomic import (
    ONE, ZERO, Cyclotomic, cyc, linear_combination, root_of_unity)
from .errors import TheoremViolation, UserError


class ClassFunction:
    """A class function: one exact cyclotomic value per conjugacy class.

    Values are stored in the group's canonical class order (identity class
    first, then by ascending class size and smallest member).

    _memo holds what is derived from this class function and costly to
    recompute: eigenvalue multiplicities, fixed-space dimensions, log
    traces, obstruction classes, fixed-space characters and pullback tables
    (see logtrace), the transplanted product table of chern, and a passed
    genuineness check (check_linearization).
    An entry is stored only after every exact check on its input has
    passed, and it lives and dies with this object.
    """

    __slots__ = ("group", "values", "_memo")

    def __init__(self, group, values):
        values = tuple(values)
        if not all(type(v) is Cyclotomic for v in values):
            values = tuple(map(cyc, values))
        if len(values) != len(group.conjugacy_classes()):
            raise UserError(
                "expected %d class values, got %d"
                % (len(group.conjugacy_classes()), len(values))
            )
        self.group = group
        self.values = values
        self._memo = {}

    def value(self, x):
        """Value at a group element (by index)."""
        return self.values[self.group.class_of(x)]

    def dim(self):
        return self.values[0]

    # -- pointwise algebra (tensor/virtual operations) -----------------------

    def _coerce(self, other):
        if isinstance(other, ClassFunction):
            if other.group is not self.group:
                raise UserError("class functions live on different groups")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ClassFunction(self.group, [a + b for a, b in zip(self.values, o.values)])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ClassFunction(self.group, [a - b for a, b in zip(self.values, o.values)])

    def __neg__(self):
        return ClassFunction(self.group, [-a for a in self.values])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is not None:
            return ClassFunction(
                self.group, [a * b for a, b in zip(self.values, o.values)]
            )
        return ClassFunction(self.group, [a * cyc(other) for a in self.values])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and other.group is self.group
            and other.values == self.values
        )

    def __hash__(self):
        return hash((id(self.group), self.values))

    def __repr__(self):
        return "ClassFunction(%s, %s)" % (self.group.label, list(self.values))

    def is_zero(self):
        return all(v.is_zero() for v in self.values)

    def to_json(self):
        return {"values_by_class": [v.to_json() for v in self.values]}


def trivial_character(group):
    return ClassFunction(group, [ONE] * len(group.conjugacy_classes()))


def zero_character(group):
    return ClassFunction(group, [ZERO] * len(group.conjugacy_classes()))


def regular_character(group):
    vals = [ZERO] * len(group.conjugacy_classes())
    vals[0] = cyc(group.n)
    return ClassFunction(group, vals)


def inner_product(a, b):
    """Hermitian inner product (1/|G|) sum_g a(g) conj(b(g)), class-summed."""
    if a.group is not b.group:
        raise UserError("class functions live on different groups")
    g = a.group
    return linear_combination(list(map(len, g.conjugacy_classes())),
                              a.values, b.values, g.n, conjugate=True)


# -- Dixon's method -----------------------------------------------------------


def _is_prime(n):
    if n < 2:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def _dixon_prime(order, exponent):
    bound = 2 * isqrt(order) + 1
    p = exponent + 1
    while p <= bound or not _is_prime(p):
        p += exponent
    return p


def _primitive_root(p):
    # factor p-1, then test candidates
    factors = []
    m = p - 1
    q = 2
    while q * q <= m:
        if m % q == 0:
            factors.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise TheoremViolation("no primitive root found")


def _class_matrix(group, i, p):
    """M_i with (M_i)[j][k] = #{(u,v) in C_i x C_j : u*v = rep_k}, mod p."""
    classes = group.conjugacy_classes()
    r = len(classes)
    reps = [members[0] for members in classes]
    M = [[0] * r for _ in range(r)]
    table, inv, class_of = group.table, group.inv, group._classes()[1]
    for u in classes[i]:
        row = table[inv[u]]
        for k, w in enumerate(reps):
            M[class_of[row[w]]][k] += 1
    for row in M:
        for k in range(r):
            row[k] %= p
    return M


def _hessenberg_charpoly(M, p):
    """Characteristic polynomial of M mod p, coefficients low-to-high."""
    n = len(M)
    H = [row[:] for row in M]
    for c in range(n - 2):
        piv = None
        for i in range(c + 1, n):
            if H[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != c + 1:
            H[piv], H[c + 1] = H[c + 1], H[piv]
            for row in H:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        ipiv = pow(H[c + 1][c], p - 2, p)
        for i in range(c + 2, n):
            f = H[i][c] * ipiv % p
            if f:
                Hi, Hc = H[i], H[c + 1]
                for j in range(n):
                    Hi[j] = (Hi[j] - f * Hc[j]) % p
                for k in range(n):
                    H[k][c + 1] = (H[k][c + 1] + f * H[k][i]) % p
    polys = [[1]]
    for m in range(1, n + 1):
        d = H[m - 1][m - 1]
        prev = polys[m - 1]
        cur = [0] + prev
        for idx in range(len(prev)):
            cur[idx] = (cur[idx] - d * prev[idx]) % p
        prod = 1
        for i in range(1, m):
            prod = prod * H[m - i][m - i - 1] % p
            if prod == 0:
                break
            coef = H[m - 1 - i][m - 1] * prod % p
            if coef:
                q = polys[m - 1 - i]
                for idx in range(len(q)):
                    cur[idx] = (cur[idx] - coef * q[idx]) % p
        polys.append(cur)
    return polys[n]


def _rref(rows, p):
    """Reduced row-echelon form of rows mod p: the nonzero reduced rows and
    their pivot columns."""
    A = list(rows)
    pivots = []
    for c in range(len(A[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        ipiv = pow(A[r][c], p - 2, p)
        Ar = A[r] = [v * ipiv % p for v in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(a - f * b) % p for a, b in zip(A[i], Ar)]
        pivots.append(c)
    return A[:len(pivots)], pivots


def _kernel_basis(M, lam, p):
    """The kernel of M - lam mod p, one basis vector per free column."""
    n = len(M)
    R, pivots = _rref([[(x - (lam if i == j else 0)) % p
                        for j, x in enumerate(row)]
                       for i, row in enumerate(M)], p)
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[free] = 1
        for row, c in zip(R, pivots):
            v[c] = -row[free] % p
        basis.append(v)
    return basis


def _sqrt_mod(target, p):
    for d in range(1, p // 2 + 1):
        if d * d % p == target:
            return d
    raise TheoremViolation("no square root mod p for a degree")


def _split_subspace(M, rows, pivots, p):
    """Split the span of rows, reduced with the given pivot columns, into
    eigenspaces of M (which must preserve it), each reduced again.

    A vector of the span is the sum of rows weighted by its entries at the
    pivots, so those entries are the coordinates of each image."""
    cols = list(zip(*rows))
    free = sorted(set(range(len(M))) - set(pivots))
    images = [[sum(map(mul, row, v)) % p for row in M] for v in rows]
    for img in images:
        coords = [img[k] for k in pivots]
        if any((img[c] - sum(map(mul, coords, cols[c]))) % p for c in free):
            raise TheoremViolation(
                "image left the subspace: class matrices do not commute?")
    A = [[img[k] for img in images] for k in pivots]
    charpoly = _hessenberg_charpoly(A, p)
    pieces = []
    for lam in range(p):
        acc = 0
        for c in reversed(charpoly):
            acc = (acc * lam + c) % p
        if acc:
            continue
        kern = _kernel_basis(A, lam, p)
        if kern:
            pieces.append(_rref([[sum(map(mul, coord, col)) % p
                                  for col in cols] for coord in kern], p))
    if sum(len(piece) for piece, _ in pieces) != len(rows):
        raise TheoremViolation("eigenspaces do not fill")
    return pieces


def character_table(group):
    """All irreducible characters, sorted by (degree, serialized values)."""
    cached = group._memo.get("char_table")
    if cached is not None:
        return cached

    classes = group.conjugacy_classes()
    r = len(classes)
    reps = [members[0] for members in classes]
    sizes = [len(members) for members in classes]
    e = group.exponent()
    p = _dixon_prime(group.n, e)
    w = pow(_primitive_root(p), (p - 1) // e, p)
    sigma = [group.inverse_class(i) for i in range(r)]
    inv_sizes = [pow(s, p - 2, p) for s in sizes]

    # refine the common eigenspaces of the class-sum matrices until every
    # subspace, each in reduced row-echelon form with its pivot columns, is
    # a line; orthogonality mod p guarantees this terminates
    subspaces = [([[int(i == j) for i in range(r)] for j in range(r)],
                  list(range(r)))]
    for i in range(1, r):
        if all(len(rows) == 1 for rows, _ in subspaces):
            break
        Mi = _class_matrix(group, i, p)
        nxt = []
        for rows, pivots in subspaces:
            if len(rows) == 1:
                nxt.append((rows, pivots))
            else:
                nxt.extend(_split_subspace(Mi, rows, pivots, p))
        subspaces = nxt
    if any(len(rows) != 1 for rows, _ in subspaces):
        raise TheoremViolation(
            "class matrices failed to separate the irreducible characters")
    vectors = [rows[0] for rows, _ in subspaces]

    # per class representative g of order o, what the lift of every
    # irreducible reads: the classes of g^j, the powers of w^(e/o) and 1/o,
    # all mod p
    lifts = []
    for g in reps:
        o = group.order_of(g)
        wo = pow(w, e // o, p)
        lifts.append((o, [group.class_of(group.power(g, j)) for j in range(o)],
                      [pow(wo, j, p) for j in range(o)], pow(o % p, p - 2, p)))

    chars = []
    for v in vectors:
        if v[0] % p == 0:
            raise TheoremViolation("eigenvector vanishes on the identity class")
        norm = pow(v[0], p - 2, p)
        omega = [x * norm % p for x in v]
        s = 0
        for k in range(r):
            s = (s + omega[k] * omega[sigma[k]] % p * inv_sizes[k]) % p
        d2 = group.n % p * pow(s, p - 2, p) % p
        d = _sqrt_mod(d2, p)
        tvals = [d * omega[i] % p * inv_sizes[i] % p for i in range(r)]
        values = []
        for o, power_classes, wo_powers, inv_o in lifts:
            mults, roots = [], []
            for k in range(o):
                acc = sum(tvals[c] * wo_powers[-j * k % o]
                          for j, c in enumerate(power_classes))
                m = acc % p * inv_o % p
                if m > d:
                    raise TheoremViolation(
                        "eigenvalue multiplicity exceeds the degree")
                if m:
                    mults.append(m)
                    roots.append(root_of_unity(o, k))
            if sum(mults) != d:
                raise TheoremViolation(
                    "eigenvalue multiplicities do not sum to the degree")
            values.append(linear_combination(mults, roots))
        chars.append(ClassFunction(group, values))

    chars.sort(key=_char_sort_key)
    table = tuple(chars)

    # the check computes every irreducible's decomposition, a unit vector,
    # which decompose reads back, with its ints, once the whole table passed
    decompositions = {}
    for a in table:
        mults = tuple(inner_product(a, b) for b in table)
        unit = tuple(int(b is a) for b in table)
        if mults != tuple(ONE if n else ZERO for n in unit):
            raise TheoremViolation(
                "character table failed exact orthogonality for %s"
                % group.label)
        decompositions["decompose", a.values] = mults, unit
    group._memo.update(decompositions)
    group._memo["char_table"] = table
    return table


def _char_sort_key(chi):
    deg = chi.values[0]
    d = deg.to_rational()
    return (d, tuple(json.dumps(v.to_json(), sort_keys=True) for v in chi.values))


# -- decomposition and validity -----------------------------------------------


def decompose(v):
    """Multiplicities of v against the irreducibles, and their integer values.

    Returns (mults, ints): mults are exact cyclotomics in table order, and
    ints[i] is mults[i] as an int, or None when it is not a rational
    integer.  Memoized in the group's memo, keyed by the values, so each
    distinct class function is decomposed and tested once per group;
    character_table records the decomposition of each irreducible there.
    """
    key = ("decompose", v.values)
    memo = v.group._memo
    cached = memo.get(key)
    if cached is None:
        mults = tuple(inner_product(v, chi)
                      for chi in character_table(v.group))
        ints = tuple(int(q) if q is not None and q.denominator == 1 else None
                     for q in map(Cyclotomic.to_rational, mults))
        cached = memo[key] = mults, ints
    return cached


def int_coords(vchar, what="virtual character", nonnegative=False):
    """Coordinates of vchar over its group's irreducibles, demanded to be
    integers (and, with nonnegative, at least 0)."""
    mults, ints = decompose(vchar)
    for m, n in zip(mults, ints):
        if n is None or nonnegative and n < 0:
            raise TheoremViolation(
                "%s has a coordinate %r that is not a%s integer"
                % (what, m, " non-negative" if nonnegative else "n")
            )
    return list(ints)


def dim_int(v):
    d = v.values[0].to_rational()
    if d is None or d.denominator != 1 or d < 0:
        raise TheoremViolation("character dimension %r is not a non-negative integer" % d)
    return int(d)


def trivial_index(group):
    """Index of the trivial character in group's table."""
    return character_table(group).index(trivial_character(group))


def assert_genuine_character(v, what="class function"):
    mults, ints = decompose(v)
    if any(n is None or n < 0 for n in ints):
        raise UserError(
            "%s is not a genuine character: multiplicities %s"
            % (what, [str(m) for m in mults])
        )
    return mults


def check_linearization(G, v):
    """Refuse v as the linearization of [V/G] unless it is a genuine
    character of G itself; a passed genuineness check is kept in v's memo."""
    if v.group is not G:
        raise UserError("the linearization character lives on %s, not on %s"
                        % (v.group.label, G.label))
    if "genuine" not in v._memo:
        assert_genuine_character(v, "the linearization character")
        v._memo["genuine"] = True


# -- restriction / induction / transport ---------------------------------------


def restrict_to(v, sub):
    """Restrict a class function on sub.parent to the subgroup."""
    vals = [v.value(sub.to_parent(rep)) for rep in sub.group.class_reps()]
    return ClassFunction(sub.group, vals)


def induce_from(v, sub):
    """Induce a class function on sub.group up to sub.parent."""
    if v.group is not sub.group:
        raise UserError("class function does not live on the given subgroup")
    return _induced(v, sub, sub.parent, range(sub.parent.n))


def _induced(v, inner, K, elements):
    """v induced from inner.group to K, a group whose element i is
    elements[i] of inner's parent.  At g, (1/|H|) sum_{x in K} v(x^-1 g x)
    is |C_K(g)|/|H| times the sum of v over the members of g's K-class
    that lie in H = inner."""
    class_of = inner.group._classes()[1]
    vals = []
    for members in K.conjugacy_classes():
        centralizer = K.n // len(members)
        counts = [0] * len(v.values)
        for y in members:
            local = inner.from_parent.get(elements[y])
            if local is not None:
                counts[class_of[local]] += centralizer
        vals.append(linear_combination(counts, v.values, den=inner.order))
    return ClassFunction(K, vals)


def restrict_between(v, outer, inner):
    """Restrict a class function on outer.group to inner, both subgroups of
    one parent group with inner contained in outer; result lives on
    inner.group."""
    try:
        vals = [v.value(outer.from_parent[inner.to_parent(rep)])
                for rep in inner.group.class_reps()]
    except KeyError:
        raise TheoremViolation(
            "subgroup is not contained in the claimed overgroup"
        )
    return ClassFunction(inner.group, vals)


def induce_between(v, inner, outer):
    """Induce a class function on inner.group up to outer.group, both
    subgroups of one parent group with inner contained in outer."""
    if v.group is not inner.group:
        raise UserError("class function does not live on the inner subgroup")
    return _induced(v, inner, outer.group, outer.elements)


def transport(v, sub, h):
    """Conjugate a class function on sub over to h*sub*h^-1.

    Returns (moved, new_sub) with moved(z) = v(h^-1 z h).
    """
    G = sub.parent
    new_sub = G.subgroup(G.conj(h, x) for x in sub.elements)
    hinv = G.inv[h]
    vals = []
    for rep in new_sub.group.class_reps():
        y = G.conj(hinv, new_sub.to_parent(rep))
        vals.append(v.value(sub.from_parent[y]))
    return ClassFunction(new_sub.group, vals), new_sub


# -- symmetric-function operations ---------------------------------------------


def eigen_multiplicities(v, x):
    """Multiplicity of the eigenvalue zeta_o^k of x on v, for k = 0..o-1.

    Requires v to take genuinely unitarizable values on the cyclic group
    generated by x; raises TheoremViolation otherwise.
    """
    key = ("eigen", x)
    cached = v._memo.get(key)
    if cached is not None:
        return cached
    g = v.group
    o = g.order_of(x)
    powers = [v.value(g.power(x, j)) for j in range(o)]
    roots = [root_of_unity(o, j) for j in range(o)]
    ones = [1] * o
    mults = []
    for k in range(o):
        m = linear_combination(ones, powers, [roots[j * k % o]
                                              for j in range(o)],
                               o, conjugate=True).to_rational()
        if m is None or m.denominator != 1 or m < 0:
            raise TheoremViolation(
                "values on the cyclic group of element %d are not eigenvalue "
                "multiplicities (got %r for exponent %d)" % (x, m, k)
            )
        mults.append(int(m))
    mults = tuple(mults)
    v._memo[key] = mults
    return mults


def normal_factor(v, x):
    """lambda_-1 of the dual of V - V^x, evaluated at x: the product over
    the eigenvalues zeta_o^k != 1 of x on v of (1 - zeta_o^-k), with
    multiplicities, o the order of x."""
    o = v.group.order_of(x)
    prod = ONE
    for k, m in enumerate(eigen_multiplicities(v, x)):
        if k and m:
            prod = prod * (ONE - root_of_unity(o, -k)) ** m
    return prod


def lambda_minus_one_dual(v):
    """The alternating sum of exterior powers of the dual, as a class
    function: 0 at an element with eigenvalue 1 on v, else its
    normal_factor."""
    g = v.group
    return ClassFunction(g, [ZERO if eigen_multiplicities(v, rep)[0]
                             else normal_factor(v, rep)
                             for rep in g.class_reps()])


# -- invariants -----------------------------------------------------------------


def invariant_dimension(v, sub):
    """dim of the sub-fixed subspace: (1/|H|) sum_{h in H} v(h).  Memoized
    on v per subgroup, once the value is an integer."""
    key = ("invariant_dimension", sub)
    cached = v._memo.get(key)
    if cached is not None:
        return cached
    class_of = v.group._classes()[1]
    counts = [0] * len(v.values)
    for h in sub.elements:
        counts[class_of[h]] += 1
    q = linear_combination(counts, v.values, den=sub.order).to_rational()
    if q is None or q.denominator != 1:
        raise TheoremViolation(
            "fixed-space dimension came out as %r, not an integer" % q
        )
    dim = v._memo[key] = int(q)
    return dim


# -- catalog representations ------------------------------------------------------


CATALOG_REPS = ("trivial", "zero", "regular", "sl2", "std")


def catalog_character(group, name):
    """Built-in characters: trivial, zero, regular, and per-family sl2/std
    (CATALOG_REPS)."""
    name = name.strip().lower()
    if name == "trivial":
        return trivial_character(group)
    if name == "zero":
        return zero_character(group)
    if name == "regular":
        return regular_character(group)
    kind = group.catalog[0] if group.catalog else None
    if name == "sl2":
        # a^k acts by diag(zeta_m^k, zeta_m^-k), index k < m (m = n for
        # cyclic(n), 2n for binary_dihedral(n)); a^k b has trace 0
        if kind in ("cyclic", "binary_dihedral"):
            m = group.catalog[1] * (1 if kind == "cyclic" else 2)
            return ClassFunction(group, [
                root_of_unity(m, k) + root_of_unity(m, -k) if k < m else ZERO
                for k in group.class_reps()])
        raise UserError(
            "catalog representation 'sl2' is defined for cyclic and "
            "binary dihedral (incl. quaternion8) groups, not %s" % group.label
        )
    if name == "std":
        perms = group.permutations
        if perms is None:
            raise UserError(
                "catalog representation 'std' needs a group given by "
                "permutations (a catalog symmetric or alternating group, or "
                '{"kind": "perm"}), not %s' % group.label
            )
        vals = []
        for rep in group.class_reps():
            fixed = sum(1 for i, img in enumerate(perms[rep]) if img == i)
            vals.append(cyc(fixed - 1))
        return ClassFunction(group, vals)
    raise UserError("unknown catalog representation %r (available: %s)"
                    % (name, ", ".join(CATALOG_REPS)))
