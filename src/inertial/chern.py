"""Rank shadow of the Chern character, support decomposition, twists, and
the transplanted product on class functions.

The class-function model of the equivariant K-group of [V/G] decomposes by
support over the conjugacy classes.  The identity-supported summand of each
fixed-locus centralizer carries the inertial product; moving through the
restriction map f^! (restrict, project, divide by the normal-bundle factor,
untwist) and its inverse (twist, multiply, induce) transplants that product
back onto class functions of G.  Both maps are linear and work in the
(sector, irreducible) coordinates of G's K basis (rings.k_basis): f^! is
diagonal there, and the forward map is one class function of G per element.
"""

from fractions import Fraction

from .cyclotomic import ZERO, cyc
from .errors import UserError, TheoremViolation
from .characters import (
    ClassFunction,
    check_linearization,
    restrict_to,
    induce_from,
    lambda_minus_one_dual,
    zero_character,
)
from .inertia import build_sectors
from .logtrace import invariants_char
from .rings import k_basis, k_ring


def support_project(alpha, class_index):
    """The component of a class function supported on one conjugacy class."""
    r = len(alpha.values)
    if not 0 <= class_index < r:
        raise UserError("class index %d out of range (%d classes)" % (class_index, r))
    vals = [alpha.values[i] if i == class_index else ZERO for i in range(r)]
    return ClassFunction(alpha.group, vals)


def mult_twist(alpha, h):
    """Twist by a central element: t_h(alpha)(z) = alpha(h z)."""
    g = alpha.group
    for x in range(g.n):
        if g.op(h, x) != g.op(x, h):
            raise UserError("the twisting element must be central")
    vals = [alpha.value(g.op(h, rep)) for rep in g.class_reps()]
    return ClassFunction(g, vals)


def orbifold_chern(G, vec):
    """Per-sector rank vector of an element of the representation-ring basis.

    For a point or a linear quotient the degree-0 shadow is exact: each
    sector contributes the rank of its component.  vec is a sparse dict over
    G's K basis, which every integral inertial ring of G shares.
    """
    basis = k_basis(G)
    out = [Fraction(0)] * len(basis.tables)
    for idx, coeff in vec.items():
        s, t = basis.pairs[idx]
        deg = basis.tables[s][t].values[0].to_rational()
        if deg is None or deg.denominator != 1:
            raise TheoremViolation("irreducible degree %r is not an integer"
                                   % deg)
        q = cyc(coeff).to_rational()
        if q is None:
            raise UserError("rank of a non-rational coefficient is undefined")
        out[s] += q * deg
    return out


def _k_maps(G, v):
    """(K, scales, images) for v, built once and kept in v's memo: the
    integral ring K, the normal factor's value at each sector element h_s,
    and the forward image induce(t_{h_s^-1}(chi_t) * nf_s) of each basis
    element (s, t), where nf_s is lambda_-1 of the dual of V - V^h on Z(h)."""
    check_linearization(G, v)
    entry = v._memo.get("k_maps")
    if entry is not None:
        return entry
    K = k_ring(G, v)
    scales, images = [], []
    for s, table in zip(build_sectors(G).sectors, k_basis(G).tables):
        Z = s.centralizer
        h_local = Z.from_parent[s.rep]
        if len(Z.group.conjugacy_classes()[Z.group.class_of(h_local)]) != 1:
            raise TheoremViolation(
                "a sector element must be central in its centralizer")
        fixed = invariants_char(v, (s.rep,), Z)
        nf = lambda_minus_one_dual(restrict_to(v, Z) - fixed)
        scale = nf.value(h_local)
        if scale.to_rational() == 0:
            raise TheoremViolation(
                "normal-bundle factor vanished at a sector element")
        scales.append(scale)
        h_inv = Z.group.inv[h_local]
        images.extend(induce_from(mult_twist(chi, h_inv) * nf, Z)
                      for chi in table)
    entry = v._memo["k_maps"] = (K, scales, images)
    return entry


def f_shriek(alpha, G, v):
    """Restriction to the fixed loci, in K-basis coordinates.  Restricting
    to Z(h_s), projecting onto the class of h_s, dividing by the normal
    factor and untwisting leaves the identity-supported component
    alpha(h_s) / scale_s, whose coordinate at (s, t) is that value times
    deg t / |Z_s|.  Zero coordinates are left out."""
    if alpha.group is not G:
        raise UserError("class function does not live on the given group")
    scales = _k_maps(G, v)[1]
    basis = k_basis(G)
    vec = {}
    for s, table in zip(build_sectors(G).sectors, basis.tables):
        c = alpha.value(s.rep) * scales[s.index].inverse()
        if c == ZERO:
            continue
        for t, chi in enumerate(table):
            vec[basis.index(s.index, t)] = c * Fraction(
                chi.values[0].to_rational(), s.centralizer.order)
    return vec


def push_twist(vec, G, v):
    """The forward map on K-basis coordinates: per basis element (s, t),
    twist chi_t by h_s^-1, multiply by the normal factor and induce up to
    G; the images are built once per character and summed here."""
    _, _, images = _k_maps(G, v)
    total = zero_character(G)
    for idx, c in vec.items():
        if not 0 <= idx < len(images):
            raise UserError("basis index %r out of range (%d elements)"
                            % (idx, len(images)))
        total = total + images[idx] * c
    return total


def star_T(alpha, beta, G, v):
    """Transplant of the inertial product onto class functions of G:
    f_*t( f^!(alpha) * f^!(beta) ) through the integral ring's table."""
    K = _k_maps(G, v)[0]
    return push_twist(K.mul(f_shriek(alpha, G, v), f_shriek(beta, G, v)),
                      G, v)
