"""Logarithmic traces, ages, and twisted pullback (obstruction) classes.

For a character V of G and an element g of order o, V splits under g into
eigenspaces for the o-th roots of unity; each eigenspace is a module over
any subgroup Z centralizing g.  The logarithmic trace weights the k-th
eigencharacter by k/o; its rank is the age.  Tuples with product 1 give the
logarithmic restriction V(m_1,...,m_l) over the tuple's centralizer — the
obstruction class that twists the inertial products.  Its non-negativity
and integrality, and the identity family used for associativity, are
verified exactly on every call that constructs one.

Log traces with the default centralizer and obstruction classes are
memoized on the character (ClassFunction._memo), keyed by element and by
tuple: each distinct input is computed and checked once per character, and
only a result that passed every check is stored.
"""

from fractions import Fraction

from .characters import (
    ClassFunction,
    character_table,
    decompose,
    eigen_multiplicities,
    inner_product,
    invariant_dimension,
    restrict_between,
    restrict_to,
    trivial_character,
    zero_character,
)
from .cyclotomic import ZERO, cyc, root_of_unity
from .errors import TheoremViolation, UserError


def dim_int(v):
    d = v.values[0].to_rational()
    if d is None or d.denominator != 1 or d < 0:
        raise TheoremViolation("character dimension %r is not a non-negative integer" % d)
    return int(d)


def age(v, g):
    """Sum of normalized eigenvalue exponents of g on v: sum_k (k/o) m_k."""
    o = v.group.order_of(g)
    mults = eigen_multiplicities(v, g)
    return sum((Fraction(k, o) * m for k, m in enumerate(mults)), Fraction(0))


class EigenDecomposition:
    """Eigencharacters V_k of an element g on V, as characters of Z."""

    def __init__(self, element, order, sub, parts):
        self.element = element
        self.order = order
        self.sub = sub
        self.parts = parts


def _check_centralizes(group, sub, g):
    t = group.table
    for x in sub.elements:
        if t[x][g] != t[g][x]:
            raise UserError(
                "subgroup element %d does not centralize element %d" % (x, g)
            )


def eigen_characters(v, g, sub=None):
    """Split v under the action of g into root-of-unity eigencharacters on sub.

    parts[k](z) = (1/o) sum_j zeta_o^(-jk) v(g^j z); sub defaults to the full
    centralizer of g.
    """
    G = v.group
    if sub is None:
        sub = G.centralizer(g)
    else:
        _check_centralizes(G, sub, g)
    o = G.order_of(g)
    scale = Fraction(1, o)
    powers = [G.power(g, j) for j in range(o)]
    reps_parent = [sub.to_parent(rep) for rep in sub.group.class_reps()]
    parts = []
    for k in range(o):
        vals = []
        for zp in reps_parent:
            total = ZERO
            for j, gj in enumerate(powers):
                total = total + root_of_unity(o, (-j * k) % o) * v.value(G.op(gj, zp))
            vals.append(total * scale)
        parts.append(ClassFunction(sub.group, vals))
    return EigenDecomposition(g, o, sub, parts)


class LogTraceClass:
    """The rational combination sum_k (k/o) V_k on Z, and its rank (the age)."""

    def __init__(self, element, sub, char, rank):
        self.element = element
        self.sub = sub
        self.char = char
        self.rank = rank


def log_trace(v, g, sub=None):
    """L(g)(V) on sub, which defaults to the centralizer of g.

    With the default centralizer the result is memoized on v by element.
    """
    key = ("log_trace", g)
    if sub is None:
        cached = v._memo.get(key)
        if cached is not None:
            return cached
    eigen = eigen_characters(v, g, sub)
    o = eigen.order
    total = zero_character(eigen.sub.group)
    for k in range(1, o):
        total = total + eigen.parts[k] * Fraction(k, o)
    rank = total.values[0].to_rational()
    if rank is None or rank != age(v, g):
        raise TheoremViolation(
            "rank %r of the log trace of element %d disagrees with its age"
            % (rank, g)
        )
    lt = LogTraceClass(g, eigen.sub, total, rank)
    if sub is None:
        v._memo[key] = lt
    return lt


def invariants_char(v, ms, sub):
    """Character on sub of the fixed space of the subgroup generated by ms.

    Value at z: (1/|H|) sum_{h in H} v(hz), H = <ms>.  Every element of sub
    must centralize every m_i.
    """
    G = v.group
    for m in ms:
        _check_centralizes(G, sub, m)
    H = G.generated(ms)
    scale = Fraction(1, H.order)
    vals = []
    for rep in sub.group.class_reps():
        zp = sub.to_parent(rep)
        total = ZERO
        for h in H.elements:
            total = total + v.value(G.op(h, zp))
        vals.append(total * scale)
    return ClassFunction(sub.group, vals)


def multiplicity_space_char(v, subH, chi, sub):
    """Character on sub of Hom_H(E, V) for an irreducible E of H (chi = its character).

    Value at z: (1/|H|) sum_{h in H} conj(chi(h)) v(hz).
    """
    G = v.group
    scale = Fraction(1, subH.order)
    vals = []
    for rep in sub.group.class_reps():
        zp = sub.to_parent(rep)
        total = ZERO
        for local, h in enumerate(subH.elements):
            total = total + chi.value(local).conjugate() * v.value(G.op(h, zp))
        vals.append(total * scale)
    return ClassFunction(sub.group, vals)


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


def log_restriction(v, ms):
    """V(m_1,...,m_l) = sum_i L(m_i)(V) + V^m - V, over the tuple centralizer.

    Requires the tuple product to be the identity.  The result is decomposed
    over the centralizer's irreducibles; non-negativity and integrality of
    the multiplicities is enforced, and the class is re-derived through the
    isotypic decomposition under H = <m> as an independent cross-check.
    The checked result is memoized on v by tuple.
    """
    G = v.group
    ms = tuple(ms)
    if not ms:
        raise UserError("the tuple must be non-empty")
    if G.prod(ms) != 0:
        raise UserError("tuple product must be the identity element")
    key = ("log_restriction", ms)
    cached = v._memo.get(key)
    if cached is not None:
        return cached
    Z = G.centralizer(*ms)
    total = -restrict_to(v, Z)
    for m in ms:
        lt = log_trace(v, m)
        total = total + restrict_between(lt.char, lt.sub, Z)
    total = total + invariants_char(v, ms, Z)

    mults = []
    for m in decompose(total)[0]:
        q = m.to_rational()
        if q is None or q.denominator != 1 or q < 0:
            raise TheoremViolation(
                "obstruction class for tuple %s has a multiplicity %r that is "
                "not a non-negative integer" % (list(ms), m)
            )
        mults.append(int(q))

    _validate_isotypic_reconstruction(v, ms, Z, total)

    rank = dim_int(total)
    expected = (
        sum((age(v, m) for m in ms), Fraction(0))
        + invariant_dimension(v, G.generated(ms))
        - dim_int(v)
    )
    if rank != expected:
        raise TheoremViolation(
            "rank %s of the obstruction class disagrees with the age formula %s"
            % (rank, expected)
        )
    tc = TwistedClass(ms, Z, total, tuple(mults), rank)
    v._memo[key] = tc
    return tc


def _validate_isotypic_reconstruction(v, ms, Z, total):
    """Re-derive V(m) from the H-isotypic pieces of V and compare exactly.

    V = (V^H x 1) + sum_E V_E x E over nontrivial irreducibles E of H = <m>;
    the class equals sum_E r_E V_E with r_E = sum_i age_E(m_i) - dim E.
    """
    G = v.group
    H = G.generated(ms)
    locals_ = [H.from_parent[m] for m in ms]
    triv = trivial_character(H.group)
    recon = zero_character(Z.group)
    for chi in character_table(H.group):
        if chi == triv:
            continue
        r = sum((age(chi, lm) for lm in locals_), Fraction(0)) - dim_int(chi)
        if r.denominator != 1 or r < 0:
            raise TheoremViolation(
                "isotypic coefficient %s for tuple %s is not a non-negative "
                "integer" % (r, list(ms))
            )
        if r:
            recon = recon + int(r) * multiplicity_space_char(v, H, chi, Z)
    if recon != total:
        raise TheoremViolation(
            "obstruction class for tuple %s fails the isotypic reconstruction"
            % (list(ms),)
        )


def twisted_pullback(v, ms):
    """Obstruction class of an arbitrary tuple: pad with the inverse product.

    Equals log_restriction(v, ms + ((m_1...m_l)^-1,)), re-indexed to the
    original tuple (same centralizer).
    """
    G = v.group
    ms = tuple(ms)
    if not ms:
        raise UserError("the tuple must be non-empty")
    padded = ms + (G.inv[G.prod(ms)],)
    tc = log_restriction(v, padded)
    if tc.sub is not G.centralizer(*ms):
        raise TheoremViolation(
            "padding tuple %s with its inverse product changed the centralizer"
            % (list(ms),)
        )
    return TwistedClass(ms, tc.sub, tc.char, tc.mults, tc.rank)


def fw_check(v, ms):
    """Report on the age-sum inequality for a tuple with product 1.

    lhs = sum of ages, rhs = dim V - dim V^m; the guarantee checked is that
    lhs is an integer and lhs >= rhs.  Reports, never raises.
    """
    G = v.group
    ms = tuple(ms)
    if G.prod(ms) != 0:
        raise UserError("tuple product must be the identity element")
    lhs = sum((age(v, m) for m in ms), Fraction(0))
    if ms:
        fixed = invariant_dimension(v, G.generated(ms))
    else:
        fixed = dim_int(v)
    rhs = dim_int(v) - fixed
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
    m12 = G.op(m1, m2)
    m23 = G.op(m2, m3)
    m4 = G.inv[G.op(m12, m3)]
    Z = G.centralizer(m1, m2, m3)

    def res(tc):
        return restrict_between(tc.char, tc.sub, Z)

    full = log_restriction(v, (m1, m2, m3, m4))
    pair_12 = res(log_restriction(v, (m1, m2, G.inv[m12])))
    pair_12_3 = res(log_restriction(v, (m12, m3, m4)))
    pair_23 = res(log_restriction(v, (m2, m3, G.inv[m23])))
    pair_1_23 = res(log_restriction(v, (m1, m23, m4)))

    log_sum = zero_character(Z.group)
    for m in (m1, m2, m3, m4):
        lt = log_trace(v, m)
        log_sum = log_sum + restrict_between(lt.char, lt.sub, Z)

    inv_12 = invariants_char(v, (m1, m2), Z)
    inv_12_3 = invariants_char(v, (m12, m3), Z)
    inv_23 = invariants_char(v, (m2, m3), Z)
    inv_1_23 = invariants_char(v, (m1, m23), Z)
    inv_m12 = invariants_char(v, (m12,), Z)
    inv_m23 = invariants_char(v, (m23,), Z)
    v_z = restrict_to(v, Z)
    inv_full = invariants_char(v, (m1, m2, m3), Z)

    left_pairing = pair_12 + pair_12_3 == log_sum + inv_12 + inv_12_3 - inv_m12 - v_z
    right_pairing = pair_23 + pair_1_23 == log_sum + inv_23 + inv_1_23 - inv_m23 - v_z

    full_res = restrict_between(full.char, full.sub, Z)
    excess_left = inv_full - inv_12 - inv_12_3 + inv_m12
    excess_right = inv_full - inv_23 - inv_1_23 + inv_m23
    left_split = full_res == pair_12 + pair_12_3 + excess_left
    right_split = full_res == pair_23 + pair_1_23 + excess_right

    return {
        "left_pairing": left_pairing,
        "right_pairing": right_pairing,
        "left_split": left_split,
        "right_split": right_split,
        "holds": left_pairing and right_pairing and left_split and right_split,
    }
