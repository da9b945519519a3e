"""Class functions and exact character tables of finite groups.

Character tables are computed by Dixon's method: the class-sum algebra is
diagonalized over a prime field F_p with p = 1 mod exp(G), p > 2*sqrt(|G|),
and the mod-p character values are lifted to exact cyclotomic numbers via
the eigenvalue-multiplicity discrete Fourier transform.  Row orthogonality
is checked exactly on every table before it is returned.
"""

import json
from fractions import Fraction
from math import isqrt

from .cyclotomic import ONE, ZERO, Cyclotomic, cyc, root_of_unity
from .errors import TheoremViolation, UserError


class ClassFunction:
    """A class function: one exact cyclotomic value per conjugacy class.

    Values are stored in the group's canonical class order (identity class
    first, then by ascending class size and smallest member).

    _memo holds what is derived from this class function and costly to
    recompute: eigenvalue multiplicities, log traces and obstruction classes
    (see logtrace).  An entry is stored only after every exact check on its
    input has passed, and it lives and dies with this object.
    """

    __slots__ = ("group", "values", "_memo")

    def __init__(self, group, values):
        values = tuple(cyc(v) for v in values)
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

    def conjugate(self):
        return ClassFunction(self.group, [a.conjugate() for a in self.values])

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


def class_function(group, values):
    return ClassFunction(group, values)


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
    total = ZERO
    for members, av, bv in zip(g.conjugacy_classes(), a.values, b.values):
        total = total + len(members) * av * bv.conjugate()
    return total * Fraction(1, g.n)


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
    raise AssertionError("no primitive root found")


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


def _kernel_basis(M, lam, p):
    n = len(M)
    A = [[(M[i][j] - (lam if i == j else 0)) % p for j in range(n)] for i in range(n)]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, n):
            if A[i][c]:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        ipiv = pow(A[r][c], p - 2, p)
        A[r] = [v * ipiv % p for v in A[r]]
        for i in range(n):
            if i != r and A[i][c]:
                f = A[i][c]
                Ar = A[r]
                A[i] = [(a - f * b) % p for a, b in zip(A[i], Ar)]
        piv_cols.append(c)
        r += 1
    pivset = set(piv_cols)
    basis = []
    for free in range(n):
        if free in pivset:
            continue
        v = [0] * n
        v[free] = 1
        for row_i, c in enumerate(piv_cols):
            v[c] = (-A[row_i][free]) % p
        basis.append(v)
    return basis


def _sqrt_mod(target, p):
    for d in range(1, p // 2 + 1):
        if d * d % p == target:
            return d
    raise AssertionError("no square root mod p for a degree")


def _matvec(M, v, p):
    return [sum(row[k] * v[k] for k in range(len(v))) % p for row in M]


def _solve_in_basis(basis, images, p):
    """Coordinates of each image vector in the span of `basis` (mod p)."""
    r = len(basis[0])
    s = len(basis)
    t = len(images)
    aug = [[basis[j][i] for j in range(s)] + [img[i] for img in images]
           for i in range(r)]
    piv_cols = []
    row = 0
    for c in range(s):
        piv = None
        for i in range(row, r):
            if aug[i][c]:
                piv = i
                break
        assert piv is not None, "basis vectors are dependent"
        aug[row], aug[piv] = aug[piv], aug[row]
        ipiv = pow(aug[row][c], p - 2, p)
        aug[row] = [v * ipiv % p for v in aug[row]]
        for i in range(r):
            if i != row and aug[i][c]:
                f = aug[i][c]
                Ar = aug[row]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], Ar)]
        piv_cols.append(c)
        row += 1
    # coordinates: column c of the answer sits in the pivot rows
    coords = [[aug[row_i][s + m] for m in range(t)] for row_i in range(s)]
    # consistency: non-pivot rows must be all zero in the image columns
    for i in range(s, r):
        assert all(aug[i][s + m] == 0 for m in range(t)), \
            "image left the subspace: class matrices do not commute?"
    return coords  # coords[j][m]: coefficient of basis[j] in images[m]


def _split_subspace(M, basis, p):
    """Split span(basis) into eigenspaces of M (which must preserve it)."""
    s = len(basis)
    images = [_matvec(M, b, p) for b in basis]
    coords = _solve_in_basis(basis, images, p)
    A = [[coords[j][m] for m in range(s)] for j in range(s)]
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
            piece = []
            for coord in kern:
                vec = [0] * len(basis[0])
                for j, cj in enumerate(coord):
                    if cj:
                        for idx in range(len(vec)):
                            vec[idx] = (vec[idx] + cj * basis[j][idx]) % p
                piece.append(vec)
            pieces.append(piece)
    assert sum(len(piece) for piece in pieces) == s, "eigenspaces do not fill"
    return pieces


def character_table(group):
    """All irreducible characters, sorted by (degree, serialized values)."""
    cached = getattr(group, "_char_table", None)
    if cached is not None:
        return cached
    if group.n == 1:
        table = (trivial_character(group),)
        group._char_table = table
        return table

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
    # subspace is a line; orthogonality mod p guarantees this terminates
    subspaces = [[[1 if i == j else 0 for i in range(r)] for j in range(r)]]
    for i in range(1, r):
        if all(len(s) == 1 for s in subspaces):
            break
        Mi = _class_matrix(group, i, p)
        nxt = []
        for s in subspaces:
            if len(s) == 1:
                nxt.append(s)
            else:
                nxt.extend(_split_subspace(Mi, s, p))
        subspaces = nxt
    assert all(len(s) == 1 for s in subspaces), \
        "class matrices failed to separate the irreducible characters"
    vectors = [s[0] for s in subspaces]

    chars = []
    for v in vectors:
        assert v[0] % p != 0, "eigenvector vanishes on the identity class"
        norm = pow(v[0], p - 2, p)
        omega = [x * norm % p for x in v]
        s = 0
        for k in range(r):
            s = (s + omega[k] * omega[sigma[k]] % p * inv_sizes[k]) % p
        d2 = group.n % p * pow(s, p - 2, p) % p
        d = _sqrt_mod(d2, p)
        tvals = [d * omega[i] % p * inv_sizes[i] % p for i in range(r)]
        values = []
        for i, g in enumerate(reps):
            o = group.order_of(g)
            wo = pow(w, e // o, p)
            inv_o = pow(o % p, p - 2, p)
            val = ZERO
            total_mult = 0
            for k in range(o):
                acc = 0
                for j in range(o):
                    acc = (acc + tvals[group.class_of(group.power(g, j))]
                           * pow(wo, (-j * k) % o, p)) % p
                m = acc * inv_o % p
                assert m <= d, "eigenvalue multiplicity exceeds the degree"
                total_mult += m
                if m:
                    val = val + m * root_of_unity(o, k)
            assert total_mult == d, "eigenvalue multiplicities do not sum to degree"
            values.append(val)
        chars.append(ClassFunction(group, values))

    chars.sort(key=_char_sort_key)
    table = tuple(chars)

    for s_i, a in enumerate(table):
        for t_i, b in enumerate(table):
            expected = ONE if s_i == t_i else ZERO
            assert inner_product(a, b) == expected, (
                "character table failed exact orthogonality for %s" % group.label
            )
    group._char_table = table
    return table


def _char_sort_key(chi):
    deg = chi.values[0]
    d = deg.to_rational()
    return (d, tuple(json.dumps(v.to_json(), sort_keys=True) for v in chi.values))


# -- decomposition and validity -----------------------------------------------


def decompose(v):
    """Multiplicities of v against the irreducibles, plus a genuineness flag.

    Returns (mults, genuine): mults are exact cyclotomics in table order;
    genuine is True when every one is a non-negative rational integer.
    """
    table = character_table(v.group)
    mults = [inner_product(v, chi) for chi in table]
    genuine = True
    for m in mults:
        q = m.to_rational()
        if q is None or q.denominator != 1 or q < 0:
            genuine = False
    return mults, genuine


def is_genuine_character(v):
    return decompose(v)[1]


def assert_genuine_character(v, what="class function"):
    mults, genuine = decompose(v)
    if not genuine:
        raise UserError(
            "%s is not a genuine character: multiplicities %s"
            % (what, [str(m) for m in mults])
        )
    return mults


# -- restriction / induction / transport ---------------------------------------


def restrict_to(v, sub):
    """Restrict a class function on sub.parent to the subgroup."""
    vals = [v.value(sub.to_parent(rep)) for rep in sub.group.class_reps()]
    return ClassFunction(sub.group, vals)


def induce_from(v, sub):
    """Induce a class function on sub.group up to sub.parent."""
    G = sub.parent
    if v.group is not sub.group:
        raise UserError("class function does not live on the given subgroup")
    scale = Fraction(1, sub.order)
    vals = []
    for rep in G.class_reps():
        total = ZERO
        for x in range(G.n):
            y = G.conj(G.inv[x], rep)
            local = sub.from_parent.get(y)
            if local is not None:
                total = total + v.value(local)
        vals.append(total * scale)
    return ClassFunction(G, vals)


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
    G = outer.parent
    scale = Fraction(1, inner.order)
    vals = []
    for rep in outer.group.class_reps():
        g_parent = outer.to_parent(rep)
        total = ZERO
        for x_parent in outer.elements:
            y = G.conj(G.inv[x_parent], g_parent)
            local = inner.from_parent.get(y)
            if local is not None:
                total = total + v.value(local)
        vals.append(total * scale)
    return ClassFunction(outer.group, vals)


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


def adams(v, j):
    """Adams operation: g -> v(g^j)."""
    g = v.group
    return ClassFunction(
        g, [v.values[g.power_class(i, j)] for i in range(len(v.values))]
    )


def dual(v):
    """Character of the dual representation, g -> v(g^-1)."""
    return adams(v, -1)


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
    scale = Fraction(1, o)
    mults = []
    for k in range(o):
        total = ZERO
        for j, pv in enumerate(powers):
            total = total + pv * root_of_unity(o, (-j * k) % o)
        m = (total * scale).to_rational()
        if m is None or m.denominator != 1 or m < 0:
            raise TheoremViolation(
                "values on the cyclic group of element %d are not eigenvalue "
                "multiplicities (got %r for exponent %d)" % (x, m, k)
            )
        mults.append(int(m))
    mults = tuple(mults)
    v._memo[key] = mults
    return mults


def lambda_minus_one_dual(v):
    """The alternating sum of exterior powers of the dual, as a class function.

    Value at g with order o: prod over eigenvalues zeta_o^k of g on v of
    (1 - zeta_o^-k), with multiplicities.
    """
    g = v.group
    vals = []
    for rep in g.class_reps():
        o = g.order_of(rep)
        mults = eigen_multiplicities(v, rep)
        prod = ONE
        for k, m in enumerate(mults):
            if m:
                prod = prod * (ONE - root_of_unity(o, (-k) % o)) ** m
        vals.append(prod)
    return ClassFunction(g, vals)


# -- invariants -----------------------------------------------------------------


def invariant_dimension(v, sub):
    """dim of the sub-fixed subspace: (1/|H|) sum_{h in H} v(h)."""
    total = ZERO
    for h in sub.elements:
        total = total + v.value(h)
    q = (total * Fraction(1, sub.order)).to_rational()
    if q is None or q.denominator != 1:
        raise TheoremViolation(
            "fixed-space dimension came out as %r, not an integer" % q
        )
    return int(q)


# -- catalog representations ------------------------------------------------------


def catalog_character(group, name):
    """Built-in characters: trivial, zero, regular, and per-family sl2/std."""
    name = name.strip().lower()
    if name == "trivial":
        return trivial_character(group)
    if name == "zero":
        return zero_character(group)
    if name == "regular":
        return regular_character(group)
    kind = group.catalog[0] if group.catalog else None
    if name == "sl2":
        if kind == "cyclic":
            n = group.catalog[1]
            vals = []
            for rep in group.class_reps():
                vals.append(root_of_unity(n, rep) + root_of_unity(n, -rep))
            return ClassFunction(group, vals)
        if kind == "binary_dihedral":
            n = group.catalog[1]
            m = 2 * n
            vals = []
            for rep in group.class_reps():
                if rep < m:
                    vals.append(root_of_unity(m, rep) + root_of_unity(m, -rep))
                else:
                    vals.append(ZERO)
            return ClassFunction(group, vals)
        raise UserError(
            "catalog representation 'sl2' is defined for cyclic and "
            "binary dihedral (incl. quaternion8) groups, not %s" % group.label
        )
    if name == "std":
        perms = getattr(group, "permutations", None)
        if perms is None:
            raise UserError(
                "catalog representation 'std' is defined for symmetric and "
                "alternating groups, not %s" % group.label
            )
        vals = []
        for rep in group.class_reps():
            fixed = sum(1 for i, img in enumerate(perms[rep]) if img == i)
            vals.append(cyc(fixed - 1))
        return ClassFunction(group, vals)
    raise UserError(
        "unknown catalog representation %r (available: trivial, zero, regular, "
        "sl2, std)" % name
    )
