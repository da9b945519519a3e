"""Rank shadow of the Chern character, support decomposition, twists, and
the transplanted product on class functions.

The class-function model of the equivariant K-group of [V/G] decomposes by
support over the conjugacy classes.  The identity-supported summand of each
fixed-locus centralizer carries the inertial product; moving through the
restriction map f^! (restrict, project, divide by the normal-bundle factor,
untwist) and its inverse (twist, multiply, induce) transplants that product
back onto class functions of G.
"""

from fractions import Fraction

from .cyclotomic import ZERO
from .errors import UserError, TheoremViolation
from .characters import (
    ClassFunction,
    check_linearization,
    restrict_to,
    induce_from,
    lambda_minus_one_dual,
)
from .logtrace import invariants_char
from .inertia import build_sectors
from .rings import k_ring


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


def orbifold_chern(algebra, vec):
    """Per-sector rank vector of an element of the representation-ring basis.

    For a point or a linear quotient the degree-0 shadow is exact: each
    sector contributes the rank of its component.  vec is a sparse dict over
    the basis of an integral inertial ring.
    """
    ctx = algebra.context
    if ctx is None or ctx.get("kind") != "k":
        raise UserError("the Chern map needs a freshly built integral ring")
    basis = ctx["kbasis"]
    sectors = ctx["sectors"]
    out = [Fraction(0)] * len(sectors.sectors)
    for idx, coeff in vec.items():
        s, t = basis.pairs[idx]
        deg = basis.tables[s][t].values[0].to_rational()
        if deg is None or deg.denominator != 1:
            raise TheoremViolation("irreducible degree %r is not an integer"
                                   % deg)
        if isinstance(coeff, Fraction) or isinstance(coeff, int):
            q = Fraction(coeff)
        else:
            q = coeff.to_rational()
            if q is None:
                raise UserError("rank of a non-rational coefficient is undefined")
        out[s] += q * deg
    return out


def _normal_factor(v, sector):
    """lambda_-1 of the dual normal class V - V^h at a sector, on Z(h); kept
    in v's memo by sector index, so v must live on the sectors' group."""
    key = ("normal_factor", sector.index)
    if key not in v._memo:
        Z = sector.centralizer
        fixed = invariants_char(v, (sector.rep,), Z)
        v._memo[key] = lambda_minus_one_dual(restrict_to(v, Z) - fixed)
    return v._memo[key]


def f_shriek(alpha, G, v):
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
        scale = _normal_factor(v, s).value(h_local)
        if scale.to_rational() == 0:
            raise TheoremViolation(
                "normal-bundle factor vanished at a sector element"
            )
        comp = mult_twist(proj * scale.inverse(), h_local)
        if any(val != ZERO for val in comp.values[1:]):
            raise TheoremViolation("component not supported at the identity")
        out.append(comp)
    return out


def push_twist(components, G, v):
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
        ind = induce_from(tcomp * _normal_factor(v, s), Z)
        total = ind if total is None else total + ind
    return total


def _expand_components(K, components):
    """Coefficients over the (sector, irreducible) basis of a stack of
    identity-supported components."""
    basis = K.context["kbasis"]
    sectors = K.context["sectors"]
    vec = {}
    for s, comp in zip(sectors.sectors, components):
        c = comp.values[0]
        if c == ZERO:
            continue
        order = s.centralizer.order
        for t, chi in enumerate(basis.tables[s.index]):
            deg = chi.values[0].to_rational()
            vec[basis.index(s.index, t)] = c * Fraction(deg, order)
    return vec


def star_T(alpha, beta, G, v):
    """Transplant of the inertial product onto class functions of G:
    f_*t( f^!(alpha) * f^!(beta) ) through the integral ring's table.  The
    ring is built once per character and kept in v's memo."""
    check_linearization(G, v)
    K = v._memo.get("k_ring")
    if K is None:
        K = v._memo["k_ring"] = k_ring(G, v)
    basis = K.context["kbasis"]
    sectors = K.context["sectors"]
    prod = K.mul(_expand_components(K, f_shriek(alpha, G, v)),
                 _expand_components(K, f_shriek(beta, G, v)))
    components = []
    for s in sectors.sectors:
        table = basis.tables[s.index]
        comp = ClassFunction(
            s.centralizer.group, [ZERO] * len(table)
        )
        for t, chi in enumerate(table):
            c = prod.get(basis.index(s.index, t), ZERO)
            if c != ZERO:
                comp = comp + chi * c
        components.append(comp)
    return push_twist(components, G, v)
