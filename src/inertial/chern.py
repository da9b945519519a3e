"""Rank shadow of the Chern character, support decomposition, and the
transplanted product on class functions.

The class-function model of the equivariant K-group of [V/G] decomposes by
support over the conjugacy classes.  The identity-supported summand of each
fixed-locus centralizer carries the inertial product; moving through the
restriction map f^! and its inverse transplants that product back onto
class functions of G.  In degree 0, orbifold Riemann-Roch gives it in
closed form: f^! sends the class delta d_i to e_s / n_s, where s is i's
sector, e_s its identity-supported element and n_s the value at h_s of
lambda_-1 of the dual of N_s = V - V^{h_s} on Z(h_s); the e_s span an
ideal that rank maps onto the Chow ring, e_s -> x_s.  As h_s acts on V^{h_s}
trivially, n_s is read off the eigenvalues of h_s on V alone
(characters.normal_factor).  So

    d_i * d_j = sum_k c_ij^k n_k / (n_i n_j) d_k,

with c the Chow structure constants, and the product needs the Chow table
and one normal factor per sector, not the integral ring.
"""

from .cyclotomic import ZERO
from .errors import UserError, TheoremViolation
from .characters import ClassFunction, check_linearization, normal_factor
from .inertia import build_sectors
from .rings import chow_ring, k_basis


def support_project(alpha, class_index):
    """The component of a class function supported on one conjugacy class."""
    r = len(alpha.values)
    if not 0 <= class_index < r:
        raise UserError("class index %d out of range (%d classes)" % (class_index, r))
    vals = [alpha.values[i] if i == class_index else ZERO for i in range(r)]
    return ClassFunction(alpha.group, vals)


def orbifold_chern(G, vec):
    """Per-sector rank vector of an element of the representation-ring basis.

    For a point or a linear quotient the degree-0 shadow is exact: each
    sector contributes the rank of its component, read off the K basis's
    integer degree column.  vec is a sparse dict over G's K basis, which
    every integral inertial ring of G shares.
    """
    basis = k_basis(G)
    out = [0] * len(basis.tables)
    for idx, coeff in vec.items():
        out[basis.pairs[idx][0]] += coeff * basis.degrees[idx]
    return out


def _star_table(G, v):
    """The transplanted product of the class deltas for v, built once and
    kept in v's memo: {(i, j): {k: c_ij^k n_k / (n_i n_j)}}, from the Chow
    table c and the normal factor n_s of each sector."""
    check_linearization(G, v)
    table = v._memo.get("star_table")
    if table is not None:
        return table
    factors = [normal_factor(v, s.rep) for s in build_sectors(G).sectors]
    if any(n.is_zero() for n in factors):
        raise TheoremViolation(
            "normal-bundle factor vanished at a sector element")
    inverses = [n.inverse() for n in factors]
    table = v._memo["star_table"] = {
        (i, j): {k: factors[k] * inverses[i] * inverses[j] * c
                 for k, c in terms.items()}
        for (i, j), terms in chow_ring(G, v).table.items()}
    return table


def star_T(alpha, beta, G, v):
    """Transplant of the inertial product onto class functions of G: the
    bilinear form sum_{i,j} alpha(h_i) beta(h_j) (d_i * d_j)."""
    table = _star_table(G, v)
    if alpha.group is not G or beta.group is not G:
        raise UserError("class function does not live on the given group")
    vals = [ZERO] * len(alpha.values)
    for i, a in enumerate(alpha.values):
        if a.is_zero():
            continue
        for j, b in enumerate(beta.values):
            if b.is_zero():
                continue
            ab = a * b
            for k, t in table.get((i, j), {}).items():
                vals[k] = vals[k] + ab * t
    return ClassFunction(G, vals)
