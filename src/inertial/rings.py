"""Orbifold product rings on the inertia sectors of [V/G].

Two products are built on top of the sector bookkeeping: a rational one on
the per-sector fundamental classes (graded by age) and an integral one on
the per-sector representation rings.  Each has one routine that sums
contributions over diagonal classes of tuples: the ring is built from the
double classes, and the multiproduct check applies the same routine to the
triple classes.  Every evaluation map moves class functions onto an
element's centralizer through the conjugator the group keeps for it.

The table layer (GradedAlgebra, algebra_from_json, the checks, verify and
PairingMatrix) needs no character theory, so the character and log-trace
layers are imported by the builders that use them, after any memo lookup:
reading back a serialized ring loads neither.  The K basis, like the sector
index it numbers, is group state (k_basis); a ring's context holds its inputs.
"""

from fractions import Fraction
from math import lcm

from .errors import TheoremViolation, UserError, parse_rational
from .inertia import build_sectors, build_double_sectors, triple_sectors

class GradedAlgebra:
    """Finite-dimensional algebra with labeled basis, rational grading and
    sparse structure constants, kept as given (int in the K rings and in
    the Chow ring, whose constants are centralizer indices; Fraction where
    a constant may be a fraction).  context carries the build inputs
    {"kind", "group", "rep"} and is not serialized; an algebra parsed back
    from JSON has context None and supports only the table-level checks.
    """

    def __init__(self, labels, grading, table, scalar, identity_index,
                 context=None):
        self.labels = list(labels)
        n = len(self.labels)
        self.grading = [Fraction(g) for g in grading]
        if len(self.grading) != n:
            raise TheoremViolation("%d grades for %d basis elements"
                                   % (len(self.grading), n))
        self.table = {}
        for (i, j), terms in table.items():
            kept = {k: c for k, c in terms.items() if c != 0}
            for k in (i, j, *kept):
                if not 0 <= k < n:
                    raise TheoremViolation("basis index %r out of range 0..%d"
                                           % (k, n - 1))
            if kept:
                self.table[(i, j)] = kept
        if not 0 <= identity_index < n:
            raise TheoremViolation("identity index %r out of range 0..%d"
                                   % (identity_index, n - 1))
        self.scalar = scalar
        self.identity_index = identity_index
        self.context = context
        self.verified = {}

    @property
    def dim(self):
        return len(self.labels)

    def mul(self, va, vb):
        """Product of two sparse coefficient vectors (dicts index -> coefficient)."""
        out = {}
        for i, ca in va.items():
            for j, cb in vb.items():
                terms = self.table.get((i, j))
                if not terms:
                    continue
                cab = ca * cb
                for k, c in terms.items():
                    out[k] = out.get(k, 0) + cab * c
        return {k: c for k, c in out.items() if c != 0}

    def to_json(self):
        entries = []
        for (i, j) in sorted(self.table):
            terms = self.table[(i, j)]
            entries.append({
                "i": i,
                "j": j,
                "terms": [{"k": k, "c": str(terms[k])} for k in sorted(terms)],
            })
        return {
            "basis": list(self.labels),
            "grading": [str(g) for g in self.grading],
            "scalar": self.scalar,
            "identity": self.identity_index,
            "table": entries,
            "verified": {k: self.verified[k] for k in sorted(self.verified)},
        }


def _json_index(x, n):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError("index %r is not an integer" % (x,))
    if not 0 <= x < n:
        raise ValueError("basis index %r out of range 0..%d" % (x, n - 1))
    return x


def _json_number(s):
    """A JSON coefficient as an int when its denominator is 1, else a Fraction."""
    q = parse_rational(s)
    return q.numerator if q.denominator == 1 else q


def algebra_from_json(data):
    """Rebuild a GradedAlgebra from its JSON form (no build context)."""
    try:
        labels = data["basis"]
        if not isinstance(labels, list) or not all(
                isinstance(label, str) for label in labels):
            raise ValueError("basis must be a list of labels")
        n = len(labels)
        if not n:
            raise ValueError("the basis is empty")
        if not isinstance(data["grading"], list):
            raise ValueError("grading must be a list")
        grading = [parse_rational(g) for g in data["grading"]]
        if len(grading) != n:
            raise ValueError("%d grades for %d basis elements"
                             % (len(grading), n))
        table = {}
        for entry in data["table"]:
            terms = [(_json_index(t["k"], n), _json_number(t["c"]))
                     for t in entry["terms"]]
            ij = (_json_index(entry["i"], n), _json_index(entry["j"], n))
            if ij in table:
                raise ValueError("table entry %s is repeated" % (ij,))
            row = table[ij] = {}
            for k, c in terms:
                if k in row:
                    raise ValueError("table term %s is repeated" % ((*ij, k),))
                row[k] = c
        alg = GradedAlgebra(
            labels, grading, table,
            data.get("scalar", "rational"),
            _json_index(data.get("identity", 0), n),
        )
        alg.verified = dict(data.get("verified", {}))
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise UserError("malformed algebra JSON: %s" % exc)
    return alg


# -- the rational product on fundamental classes --------------------------------


def _chow_products(G, v, classes):
    """Structure constants of the rational product summed over diagonal classes.

    The obstruction class of a class of tuples m has rank
    [sum age(m_i) - age(prod)] + [dim V^<m> - dim V^prod], never negative,
    and the second bracket is never positive.  The class contributes exactly
    when both brackets are 0, so once the ages add up the fixed spaces must
    agree (TheoremViolation otherwise).  It then adds the index of its
    centralizer in the product's centralizer, an integer; the latter is a
    conjugate of the product's sector centralizer, so of the same order.
    Returns {(input sectors): {output sector: int}}, each sector that of
    its element.
    """
    from .logtrace import age, fixed_dimension

    sectors = build_sectors(G).sectors
    out = {}
    for cls in classes:
        ms = cls.rep
        prod = G.prod(ms)
        if sum(age(v, m) for m in ms) != age(v, prod):
            continue
        if fixed_dimension(v, ms) != fixed_dimension(v, (prod,)):
            raise TheoremViolation("the ages of %r add up but the fixed "
                                   "spaces differ" % (ms,))
        k = G.class_of(prod)
        coeff, rest = divmod(sectors[k].centralizer.order,
                             cls.centralizer.order)
        if rest:
            raise TheoremViolation("the centralizer of %r is not a subgroup "
                                   "of its product's" % (ms,))
        row = out.setdefault(tuple(map(G.class_of, ms)), {})
        row[k] = row.get(k, 0) + coeff
    return out


def _chow_labels(G):
    """One label per sector, the basis of the rational ring."""
    return ["x[%s]" % G.element_label(s.rep) for s in build_sectors(G).sectors]


def chow_ring(G, v):
    """The rational inertial product: one generator per sector, graded by age."""
    from .characters import check_linearization
    from .logtrace import age

    check_linearization(G, v)
    sectors = build_sectors(G)
    grading = [age(v, s.rep) for s in sectors.sectors]
    table = _chow_products(G, v, build_double_sectors(G))
    if sectors.sectors[0].rep != 0:
        raise TheoremViolation("the identity sector must come first")
    return GradedAlgebra(_chow_labels(G), grading, table, "rational", 0,
                         {"kind": "chow", "group": G, "rep": v})


# -- the integral product on centralizer representation rings -------------------


class _KBasis:
    """Numbering of the (sector, irreducible-of-centralizer) basis, with
    the degree of each basis irreducible, checked to be an integer."""

    def __init__(self, G):
        from .characters import character_table, dim_int

        self.offsets = []
        self.tables = []
        self.labels = []
        self.pairs = []
        self.degrees = []
        off = 0
        for s in build_sectors(G).sectors:
            table = character_table(s.centralizer.group)
            self.offsets.append(off)
            self.tables.append(table)
            for t, chi in enumerate(table):
                self.labels.append("[%s]:%d" % (G.element_label(s.rep), t))
                self.pairs.append((s.index, t))
                self.degrees.append(dim_int(chi))
            off += len(table)
        self.size = off

    def index(self, sector, t):
        return self.offsets[sector] + t


def k_basis(G):
    """G's K basis, a function of its table alone, kept in G's memo."""
    basis = G._memo.get("kbasis")
    if basis is None:
        basis = G._memo["kbasis"] = _KBasis(G)
    return basis


def _fold(u, w, fusion):
    """Coordinates of the product of two virtual characters, both given in
    coordinates, pushed through the fusion tensor."""
    out = [0] * len(u)
    for p, up in enumerate(u):
        if not up:
            continue
        row = fusion[p]
        for q, wq in enumerate(w):
            if wq:
                for k, n in row[q]:
                    out[k] += up * wq * n
    return out


def _folded(u, coords, fusion):
    """(t_1..t_l, coordinates of u * x_1[t_1] * ... * x_l[t_l]) for every
    choice of one vector from each list in coords, lexicographically."""
    if not coords:
        yield (), u
        return
    for t, c in enumerate(coords[0]):
        for ts, w in _folded(_fold(u, c, fusion), coords[1:], fusion):
            yield (t,) + ts, w


def _fusion(H):
    """The fusion tensor of H, kept in H's memo: row [p][q] lists (k, n) with
    n != 0 the multiplicity of irreducible k in the product of p and q."""
    fusion = H._memo.get("fusion")
    if fusion is None:
        from .characters import character_table, int_coords

        irr = character_table(H)
        fusion = H._memo["fusion"] = [
            [[(k, n) for k, n in enumerate(int_coords(a * b)) if n]
             for b in irr]
            for a in irr
        ]
    return fusion


def _restriction(G, x, Zm):
    """Rows, kept in G's memo: row t holds the coordinates over Irr(Z_m) of
    irreducible t of the centralizer Z_s of x's sector s, moved onto Z(x)
    by x's witness w and restricted to Z_m.  w must conjugate s's
    representative to x, and where Z_m is Z(x) itself conjugation permutes
    the irreducibles, so every row must be a unit vector: its entries sum
    to 1 and their squares too (TheoremViolation otherwise)."""
    key = ("restriction", x, Zm)
    cached = G._memo.get(key)
    if cached is None:
        from .characters import (
            character_table, int_coords, restrict_between, transport)

        s = build_sectors(G).sectors[G.class_of(x)]
        w = G.witness(x)
        if G.conj(w, s.rep) != x:
            raise TheoremViolation(
                "the witness %d of %d does not move the representative of "
                "sector %d onto it" % (w, x, s.index))
        Zs = s.centralizer
        cached = []
        for chi in character_table(Zs.group):
            moved, sub = transport(chi, Zs, w)
            row = int_coords(restrict_between(moved, sub, Zm))
            if sub is Zm and not sum(row) == 1 == sum(n * n for n in row):
                raise TheoremViolation(
                    "a conjugate of an irreducible of sector %d's "
                    "centralizer is not irreducible" % s.index)
            cached.append(row)
        G._memo[key] = cached
    return cached


def _lambda_dual(H, rho):
    """Coordinates of lambda_-1(rho^dual) for irreducible rho (an index
    into H's table), kept in H's memo."""
    key = ("lambda_dual", rho)
    cached = H._memo.get(key)
    if cached is None:
        from .characters import (
            character_table, int_coords, lambda_minus_one_dual)

        cached = H._memo[key] = int_coords(
            lambda_minus_one_dual(character_table(H)[rho]))
    return cached


def _k_products(G, v, classes):
    """Structure constants of the integral product summed over diagonal classes.

    For a class of tuples m with centralizer Z_m: move each input sector's
    irreducibles onto the entry's centralizer through its witness and
    restrict to Z_m; multiply them with the class factor, lambda_-1 of the
    dual of W = V(m) + V^{prod} - V^{<m>} (the obstruction class plus the
    excess of the fixed-space inclusion, 0 when the two agree); induce to
    the product's centralizer and move onto the product's sector.  Every step
    is Z-linear, so it all runs in integer coordinates over Irr(Z_m).  With
    H = <m> and col_E the pullback columns of (Z_m, H), the excess is
    sum_E (dim E^{prod} - [E trivial]) col_E, so W has non-negative integer
    coordinates w, and its factor is the product of lambda_-1(rho^dual)
    taken w_rho times; a factor is computed only for a rho with w_rho > 0,
    and only an E with a non-zero column adds to the excess.  For V = 0
    every class and column is zero, so the factor is 1.  Products fold
    through the fusion tensor of Z_m, and by Frobenius reciprocity
    induce-and-move is the transpose of move-and-restrict from the
    product's sector.  One restriction table per (element, Z_m) serves
    both ends.  Returns {(input basis indices): {output basis index: int}}.
    """
    from .characters import (
        character_table, eigen_multiplicities, trivial_index)
    from .logtrace import pullback_columns, twisted_pullback

    basis = k_basis(G)
    out = {}
    for cls in classes:
        ms = cls.rep
        prod = G.prod(ms)
        Zm = cls.centralizer
        fusion = _fusion(Zm.group)
        inputs = [G.class_of(m) for m in ms]
        coords = [_restriction(G, m, Zm) for m in ms]
        sk = G.class_of(prod)
        image = _restriction(G, prod, Zm)
        factor = [0] * len(fusion)
        factor[trivial_index(Zm.group)] = 1
        if not v.is_zero():
            H = G.generated(ms)
            w = list(twisted_pullback(v, ms).mults)
            one = trivial_index(H.group)
            for e, (chi, col) in enumerate(zip(character_table(H.group),
                                               pullback_columns(v, Zm, H))):
                if any(col):
                    n = (eigen_multiplicities(chi, H.from_parent[prod])[0]
                         - (e == one))
                    w = [a + n * c for a, c in zip(w, col)]
            for rho, n in enumerate(w):
                if n > 0:
                    lam = _lambda_dual(Zm.group, rho)
                    for _ in range(n):
                        factor = _fold(factor, lam, fusion)
        for ts, u in _folded(factor, coords, fusion):
            nonzero = [(p, up) for p, up in enumerate(u) if up]
            row = out.setdefault(
                tuple(basis.index(s, t) for s, t in zip(inputs, ts)), {}
            )
            for t, r in enumerate(image):
                n = sum(up * r[p] for p, up in nonzero)
                if n:
                    k = basis.index(sk, t)
                    row[k] = row.get(k, 0) + n
    return out


def k_ring(G, v):
    """The inertial product on the sum of centralizer representation rings,
    built from the double classes by _k_products.  The table is integral;
    this is checked."""
    from .characters import check_linearization, trivial_index

    check_linearization(G, v)
    basis = k_basis(G)
    table = _k_products(G, v, build_double_sectors(G))
    return GradedAlgebra(
        basis.labels, [Fraction(0)] * basis.size, table, "integer",
        basis.index(0, trivial_index(G)), {"kind": "k", "group": G, "rep": v},
    )


# -- the pairing -----------------------------------------------------------------


class PairingMatrix:
    def __init__(self, labels, matrix):
        self.labels = list(labels)
        self.matrix = matrix
        for i, row in enumerate(matrix):
            for j in range(i):
                if row[j] != matrix[j][i]:
                    raise TheoremViolation(
                        "pairing is not symmetric at (%d, %d)" % (i, j))

    def to_json(self):
        return {
            "basis": list(self.labels),
            "matrix": [[str(c) for c in row] for row in self.matrix],
        }


def eta_pairing(G, kind):
    """The Poincare pairing of the complete quotient [pt/G], on the basis
    of its rational ring (kind "chow") or of its integral ring.

    Sectors pair only with their inverse classes.  On fundamental classes
    the value is 1 over the centralizer order.  On representation classes
    it is the invariant multiplicity of chi_t1 times the second argument
    moved to the first centralizer through the inversion: the coordinate of
    the dual of t1 in the inverse sector's restriction row.
    """
    from .characters import ClassFunction

    sectors = build_sectors(G)
    sigma = sectors.sigma
    if kind == "chow":
        labels = _chow_labels(G)
        matrix = [[0] * len(labels) for _ in labels]
        for i, s in enumerate(sectors.sectors):
            matrix[i][sigma[i]] = Fraction(1, s.centralizer.order)
        return PairingMatrix(labels, matrix)
    basis = k_basis(G)
    matrix = [[0] * basis.size for _ in range(basis.size)]
    for si, s in enumerate(sectors.sectors):
        sj = sigma[si]
        # the inverse sector's irreducibles, moved onto Z(ri^-1) = Z(ri)
        rows = _restriction(G, G.inv[s.rep], s.centralizer)
        H, table = s.centralizer.group, basis.tables[si]
        where = {chi: t for t, chi in enumerate(table)}
        for t1, chi in enumerate(table):
            dual = where[ClassFunction(H, [
                chi.values[H.inverse_class(c)] for c in range(len(table))])]
            for t2, row in enumerate(rows):
                matrix[basis.index(si, t1)][basis.index(sj, t2)] = row[dual]
    return PairingMatrix(basis.labels, matrix)


# -- verification ----------------------------------------------------------------


def _check_identity(alg):
    e = alg.identity_index
    for j in range(alg.dim):
        unit = {j: 1}
        if alg.table.get((e, j), {}) != unit or alg.table.get((j, e), {}) != unit:
            return False
    return True


def _check_commutativity(alg):
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            if alg.table.get((i, j), {}) != alg.table.get((j, i), {}):
                return False
    return True


def _check_grading(alg):
    for (i, j), terms in alg.table.items():
        want = alg.grading[i] + alg.grading[j]
        for k, c in terms.items():
            if c != 0 and alg.grading[k] != want:
                return False
    return True


# The triple checks compare, for each pair (i, j), two lists over k at once.
# Structure constants are scaled by their common denominator D to integers,
# and the product e_m e_k is packed into one int, P[m][k] = sum_t D c_mk^t
# 2^(width t).  Packing is Z-linear and its digits are balanced (a negative
# coordinate borrows from the next digit), so a sum of packed products is the
# packed sum, and two packed ints whose coordinates are at most `bound` in
# absolute value are equal exactly when every coordinate is: a coordinate
# difference stays below 2^width and cannot carry into the next digit.


def _digit_width(bound):
    """Bits per packed digit for coordinates of absolute value <= bound."""
    return bound.bit_length() + 1


def _scaled_table(alg):
    """(D, table): D the common denominator of the structure constants and
    table[(i, j)] = {k: D c_ij^k}, all integers."""
    D = 1
    for terms in alg.table.values():
        for c in terms.values():
            D = lcm(D, c.denominator)
    return D, {key: {k: c.numerator * (D // c.denominator)
                     for k, c in terms.items()}
               for key, terms in alg.table.items()}


def _pack(terms, width):
    """The integer coordinates {t: c} as one int, sum_t c 2^(width t)."""
    return sum(c << (width * t) for t, c in terms.items())


def _packed_products(n, table, bound=0):
    """(rows, width): rows[m] lists (k, P[m][k]) for the non-zero packed
    products e_m e_k of the scaled table.  The digits are wide enough for a
    coordinate of absolute value at most bound or at most
    max|c| * max_(i,j) sum_k |c_ij^k|, which bounds every coordinate of a
    combination of packed products with the coefficients of one entry."""
    terms = table.values()
    top = max((abs(c) for t in terms for c in t.values()), default=0)
    most = max((sum(map(abs, t.values())) for t in terms), default=0)
    width = _digit_width(max(bound, top * most))
    rows = [[] for _ in range(n)]
    for m, k in table:
        rows[m].append((k, _pack(table[(m, k)], width)))
    return rows, width


def _combine(n, coeffs, rows):
    """sum_m c_m rows[m] over the pairs (m, c_m) of coeffs, each row a list
    of (k, x), as a list over k."""
    out = [0] * n
    for m, c in coeffs:
        for k, x in rows[m]:
            out[k] += c * x
    return out


def _first_failure(n, table, rows, right):
    """The first (i, j, k), lexicographically, at which
    sum_m c_ij^m rows[m][k] differs from right(i, j)[k], or None."""
    for i in range(n):
        for j in range(n):
            left = _combine(n, table.get((i, j), {}).items(), rows)
            other = right(i, j)
            if left != other:
                return next((i, j, k) for k in range(n)
                            if left[k] != other[k])
    return None


def _associator_failure(n, table, rows):
    """The first (i, j, k) at which sum_m c_ij^m rows[m][k] differs from
    sum_m c_jk^m rows[i][m], or None; the right side runs over the non-zero
    rows[i][m] and the entries c_jk^m != 0, gathered by (j, m)."""
    by_jm = [[[] for _ in range(n)] for _ in range(n)]
    for (j, k), terms in table.items():
        for m, c in terms.items():
            by_jm[j][m].append((k, c))
    return _first_failure(n, table, rows,
                          lambda i, j: _combine(n, rows[i], by_jm[j]))


def _check_associativity(alg):
    """(e_i e_j) e_k == e_i (e_j e_k), on packed products."""
    _, table = _scaled_table(alg)
    rows, _ = _packed_products(alg.dim, table)
    return _associator_failure(alg.dim, table, rows) is None


def _check_frobenius(alg):
    """eta(e_i e_j, e_k) == eta(e_i, e_j e_k): the associator with the
    pairing in place of the packed products, each side one number."""
    ctx = alg.context
    if ctx["rep"].dim() != 0:
        raise UserError(
            "the pairing is only defined for the complete quotient (V = 0)"
        )
    eta = eta_pairing(ctx["group"], ctx["kind"]).matrix
    rows = [[(k, x) for k, x in enumerate(row) if x] for row in eta]
    return _associator_failure(alg.dim, alg.table, rows) is None


def _check_multiproduct(alg):
    """(e_i e_j) e_k from the table against the product rule applied
    directly to the triple classes, both packed.  Both builders give integer
    constants, so a fractional one is refused (TheoremViolation)."""
    D, table = _scaled_table(alg)
    if D != 1:
        raise TheoremViolation("a structure constant of the built ring is "
                               "not an integer")
    ctx = alg.context
    G, v = ctx["group"], ctx["rep"]
    direct = (_chow_products if ctx["kind"] == "chow"
              else _k_products)(G, v, triple_sectors(G))
    n = alg.dim
    bound = max((max(map(abs, terms.values())) for terms in direct.values()
                 if terms), default=0)
    rows, width = _packed_products(n, table, bound)
    packed = {}
    for (i, j, k), terms in direct.items():
        packed.setdefault((i, j), [0] * n)[k] = _pack(terms, width)
    zero = [0] * n
    return _first_failure(n, table, rows,
                          lambda i, j: packed.get((i, j), zero)) is None


_CHECKS = {
    "identity": _check_identity,
    "commutativity": _check_commutativity,
    "associativity": _check_associativity,
    "grading": _check_grading,
    "frobenius": _check_frobenius,
    "multiproduct": _check_multiproduct,
}


def verify(algebra, checks):
    """Run the named table checks; returns {check: bool} and records them."""
    report = {}
    for name in checks:
        fn = _CHECKS.get(name)
        if fn is None:
            raise UserError(
                "unknown check %r (have: %s)" % (name, ", ".join(sorted(_CHECKS)))
            )
        if name in ("frobenius", "multiproduct") and algebra.context is None:
            raise UserError(
                "check %r needs a freshly built ring, not a parsed table" % name
            )
        report[name] = bool(fn(algebra))
    algebra.verified.update(report)
    return report
