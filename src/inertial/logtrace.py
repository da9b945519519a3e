"""Logarithmic traces, ages, and twisted pullback (obstruction) classes.

For a character V of G and an element g of order o, V splits under g into
eigenspaces for the o-th roots of unity; each eigenspace is a module over
the centralizer Z of g.  The logarithmic trace weights the k-th
eigencharacter by k/o; its rank is the age.  A tuple m, padded with its
inverse product, gives the twisted pullback V(m_1,...,m_l) over the
tuple's centralizer Z — the obstruction class that twists the inertial
products.  Every tuple check here (twisted_pullback, fw_check,
v_identity_check) takes the tuple unpadded and pads it itself, in one
place (_padded).  Z and H = <m> commute, so V pulls back along Z x H -> G,
(z, h) -> zh, to one integer table (pullback_columns); the class is
derived from log traces and from that table, and the two must agree
exactly on every call that builds one.

Log traces, obstruction classes, fixed-space characters and pullback
tables are memoized on the character (ClassFunction._memo), keyed by
element, by the given tuple, by ("invariants", H, Z) and by ("pullback",
Z, H): each distinct input is computed and checked once per character,
and only a result that passed every check is stored.
"""

from fractions import Fraction

from .characters import (
    ClassFunction,
    character_table,
    dim_int,
    eigen_multiplicities,
    inner_product,
    int_coords,
    restrict_between,
    restrict_to,
    trivial_index,
    zero_character,
)
from .cyclotomic import linear_combination, root_of_unity
from .errors import TheoremViolation, UserError


def age(v, g):
    """Sum of normalized eigenvalue exponents of g on v: sum_k (k/o) m_k."""
    o = v.group.order_of(g)
    mults = eigen_multiplicities(v, g)
    return Fraction(sum(k * m for k, m in enumerate(mults)), o)


def _check_centralizes(group, sub, g):
    t = group.table
    for x in sub.elements:
        if t[x][g] != t[g][x]:
            raise UserError(
                "subgroup element %d does not centralize element %d" % (x, g)
            )


class LogTraceClass:
    """The rational combination sum_k (k/o) V_k on Z, and its rank (the age)."""

    def __init__(self, sub, char, rank):
        self.sub = sub
        self.char = char
        self.rank = rank


def log_trace(v, g):
    """L(g)(V) = sum_k (k/o) V_k on the centralizer Z of g, o the order of
    g and V_k(z) = (1/o) sum_j zeta_o^(-jk) v(g^j z) the eigencharacter of
    zeta_o^k.  Computed as one weighted sum over the powers of g,

        L(g)(z) = sum_j w_j v(g^j z),  w_j = (1/o^2) sum_k k zeta_o^(-jk),

    k from 1 to o - 1; its rank must be the age of g.  Memoized on v by
    element.
    """
    key = ("log_trace", g)
    cached = v._memo.get(key)
    if cached is not None:
        return cached
    G = v.group
    Z = G.centralizer(g)
    o = G.order_of(g)
    ks = range(1, o)
    weights = [linear_combination(ks, [root_of_unity(o, -j * k) for k in ks],
                                  den=o * o) for j in range(o)]
    powers = [G.power(g, j) for j in range(o)]
    ones = [1] * o
    char = ClassFunction(Z.group, [
        linear_combination(ones, weights, [v.value(G.op(gj, z))
                                           for gj in powers])
        for z in map(Z.to_parent, Z.group.class_reps())])
    rank = char.values[0].to_rational()
    if rank is None or rank != age(v, g):
        raise TheoremViolation(
            "rank %r of the log trace of element %d disagrees with its age"
            % (rank, g)
        )
    lt = v._memo[key] = LogTraceClass(Z, char, rank)
    return lt


def invariants_char(v, ms, sub):
    """Character on sub of the fixed space of the subgroup generated by ms.

    Value at z: (1/|H|) sum_{h in H} v(hz), H = <ms>.  Every element of sub
    must centralize every m_i.  Memoized on v under ("invariants", H, sub):
    sub centralizes the generators of H exactly when it centralizes H, so
    an entry, stored only after that check passed, answers every tuple
    generating H.
    """
    G = v.group
    H = G.generated(ms)
    key = ("invariants", H, sub)
    cached = v._memo.get(key)
    if cached is not None:
        return cached
    for m in ms:
        _check_centralizes(G, sub, m)
    ones = [1] * H.order
    vals = [linear_combination(ones, [v.value(G.op(h, sub.to_parent(rep)))
                                      for h in H.elements], den=H.order)
            for rep in sub.group.class_reps()]
    fixed = v._memo[key] = ClassFunction(sub.group, vals)
    return fixed


def fixed_dimension(v, ms):
    """dim V^H, H = <ms>: the fixed-space character of H on the trivial
    subgroup, memoized by invariants_char, read at the identity and
    checked to be a non-negative integer."""
    return dim_int(invariants_char(v, ms, v.group.subgroup((0,))))


def pullback_columns(v, Z, H):
    """V pulled back along Z x H -> G, (z, h) -> zh, as an integer table.

    Column E (an irreducible of H, in table order) holds the coordinates
    over Irr(Z) of Hom_H(E, V), whose character at z is the inner product
    over H of h -> v(hz) (a class function, as Z centralizes H) with E.
    Every column is checked to be a non-negative integer vector, then the
    table is kept in v's memo under ("pullback", Z, H).
    """
    key = ("pullback", Z, H)
    cached = v._memo.get(key)
    if cached is not None:
        return cached
    G = v.group
    for h in H.elements:
        _check_centralizes(G, Z, h)
    slices = [ClassFunction(H.group, [v.value(G.op(H.to_parent(r), zp))
                                      for r in H.group.class_reps()])
              for zp in map(Z.to_parent, Z.group.class_reps())]
    columns = [int_coords(ClassFunction(Z.group, [inner_product(f, chi)
                                                  for f in slices]),
                          "a pullback column", nonnegative=True)
               for chi in character_table(H.group)]
    v._memo[key] = columns
    return columns


def _padded(G, ms):
    """The tuple ms followed by the inverse of its product, so of product
    1; the empty tuple gives (e,)."""
    return ms + (G.inv[G.prod(ms)],)


def _log_sum(v, ms, Z):
    """sum_i L(m_i)(V), each log trace restricted to Z."""
    total = zero_character(Z.group)
    for m in ms:
        lt = log_trace(v, m)
        total = total + restrict_between(lt.char, lt.sub, Z)
    return total


class TwistedClass:
    """The obstruction class V(m) on the tuple's centralizer.

    Carries the tuple, the centralizer subgroup, the class function, its
    multiplicities over the centralizer's irreducibles (always non-negative
    integers), and the rank.
    """

    def __init__(self, elements, sub, char, mults, rank):
        self.elements = elements
        self.sub = sub
        self.char = char
        self.mults = mults
        self.rank = rank

    def is_zero(self):
        return all(m == 0 for m in self.mults)


def twisted_pullback(v, ms):
    """V(m_1,...,m_l) over the tuple centralizer Z, for any non-empty tuple.

    The tuple is padded with (m_1...m_l)^-1 to the tuple m' of product 1,
    which has the same centralizer Z and generates the same H = <m>; then
    V(m) = sum_i L(m'_i)(V) + V^m - V.  Two derivations must meet exactly
    in integer coordinates over Irr(Z): (a) the pointwise sum above,
    decomposed, and (b) sum_E r_E col_E over the nontrivial irreducibles E
    of H, with r_E = sum_i age_E(m'_i) - dim E and col_E the pullback
    column.  The coordinates and every r_E must be non-negative integers,
    and the rank must equal the age formula.  The checked result is
    memoized on v by the given tuple.
    """
    G = v.group
    ms = tuple(ms)
    if not ms:
        raise UserError("the tuple must be non-empty")
    key = ("twisted_pullback", ms)
    cached = v._memo.get(key)
    if cached is not None:
        return cached
    padded = _padded(G, ms)
    Z = G.centralizer(*ms)
    H = G.generated(ms)
    total = (_log_sum(v, padded, Z) - restrict_to(v, Z)
             + invariants_char(v, ms, Z))
    what = "obstruction class for tuple %s" % (list(padded),)
    mults = int_coords(total, what, nonnegative=True)

    one = trivial_index(H.group)
    isotypic = [0] * len(mults)
    for e, (chi, col) in enumerate(zip(character_table(H.group),
                                       pullback_columns(v, Z, H))):
        if e == one:
            continue
        r = (sum((age(chi, H.from_parent[m]) for m in padded), Fraction(0))
             - dim_int(chi))
        if r.denominator != 1 or r < 0:
            raise TheoremViolation(
                "isotypic coefficient %s for tuple %s is not a non-negative "
                "integer" % (r, list(padded))
            )
        isotypic = [a + int(r) * c for a, c in zip(isotypic, col)]
    if isotypic != mults:
        raise TheoremViolation("%s: log-trace coordinates %s != isotypic %s"
                               % (what, mults, isotypic))

    rank = dim_int(total)
    expected = (
        sum((age(v, m) for m in padded), Fraction(0))
        + fixed_dimension(v, ms)
        - dim_int(v)
    )
    if rank != expected:
        raise TheoremViolation(
            "rank %s of the obstruction class disagrees with the age formula %s"
            % (rank, expected)
        )
    tc = v._memo[key] = TwistedClass(ms, Z, total, tuple(mults), rank)
    return tc


def fw_check(v, ms):
    """Report on the age-sum inequality for the tuple ms padded with the
    inverse of its product.

    lhs = sum of the padded tuple's ages, rhs = dim V - dim V^m; the
    guarantee checked is that lhs is an integer and lhs >= rhs.  Reports,
    never raises.
    """
    G = v.group
    ms = tuple(ms)
    lhs = sum((age(v, m) for m in _padded(G, ms)), Fraction(0))
    rhs = dim_int(v) - fixed_dimension(v, ms)
    integral = lhs.denominator == 1
    return {
        "lhs": lhs,
        "rhs": rhs,
        "integral": integral,
        "holds": integral and lhs >= rhs,
    }


def v_identity_check(v, triple):
    """Check the pairing identities and excess-term splits for a triple.

    With m4 = (m1 m2 m3)^-1 and everything restricted to Z = Z(m1,m2,m3):

      V(m1,m2,.) + V(m1m2,m3,.) = sum_i L(m_i)(V) + V^{<m1,m2>}
                                  + V^{<m1m2,m3>} - V^{m1m2} - V
    and the (2,3)/(1,23) counterpart; plus the splits

      V(m1,m2,m3,m4) = V(m1,m2,.) + V(m1m2,m3,.) + excess,
      excess = V^{<m1,m2,m3>} - V^{<m1,m2>} - V^{<m1m2,m3>} + V^{m1m2}

    (and the mirrored grouping).  Returns a report of booleans.
    """
    G = v.group
    m1, m2, m3 = triple
    full = twisted_pullback(v, (m1, m2, m3))
    Z = full.sub
    log_sum = _log_sum(v, _padded(G, (m1, m2, m3)), Z)
    v_z = restrict_to(v, Z)
    inv_full = invariants_char(v, (m1, m2, m3), Z)

    def grouping(p, q):
        # one grouping's two pair classes, p and q: its pairing identity
        # and its split, both through fixed = V^p + V^q - V^{prod p}
        pair_p, pair_q = (twisted_pullback(v, ms) for ms in (p, q))
        pairs = (restrict_between(pair_p.char, pair_p.sub, Z)
                 + restrict_between(pair_q.char, pair_q.sub, Z))
        fixed = (invariants_char(v, p, Z) + invariants_char(v, q, Z)
                 - invariants_char(v, (G.prod(p),), Z))
        return (pairs == log_sum + fixed - v_z,
                full.char == pairs + inv_full - fixed)

    left_pairing, left_split = grouping((m1, m2), (G.op(m1, m2), m3))
    right_pairing, right_split = grouping((m2, m3), (m1, G.op(m2, m3)))
    return {
        "left_pairing": left_pairing,
        "right_pairing": right_pairing,
        "left_split": left_split,
        "right_split": right_split,
        "holds": left_pairing and right_pairing and left_split and right_split,
    }
