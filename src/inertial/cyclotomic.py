"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element of Q(zeta_N) is stored as integer numerators in the power basis
1, x, ..., x^(phi(N)-1) of Q[x]/(Phi_N(x)), x = zeta_N = exp(2*pi*i/N), over
one positive common denominator, the fraction reduced (the numerators and
the denominator share no factor).  Field arithmetic runs on Python ints;
Fractions appear only in to_rational, in display and in parsing input.

Every value is kept at its minimal conductor, never 2 mod 4 (Q(zeta_2m) =
Q(zeta_m) for odd m), so equality and hashing are structural: a function of
the conductor, the numerators and the denominator.  A sum or product at
conductor N is canonicalized by trying each divisor d of N in ascending
order: a cached integer left inverse of the lift Q(zeta_d) -> Q(zeta_N)
proposes coordinates at d, which are accepted only when they are integers
and lift back to the input exactly.  A product by a rational and a Galois
image keep the conductor (an automorphism maps each Q(zeta_d) onto itself),
so they skip that search.  linear_combination adds a whole sum of products
in integers and canonicalizes once.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import TheoremViolation, UserError, parse_rational

__all__ = [
    "Cyclotomic",
    "cyclotomic_polynomial",
    "euler_phi",
    "root_of_unity",
    "linear_combination",
    "cyc",
    "ZERO",
    "ONE",
]


@lru_cache(maxsize=None)
def euler_phi(n):
    phi, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            phi -= phi // p
        p += 1
    if m > 1:
        phi -= phi // m
    return phi


@lru_cache(maxsize=None)
def _divisors(n):
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def _poly_divmod_exact(num, den):
    """Exact division of integer polynomials, den monic; remainder must be 0."""
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        quot[i - deg_d] = c
        if c:
            for j, dj in enumerate(den):
                num[i - deg_d + j] -= c * dj
    if any(num):
        raise TheoremViolation("non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients (low to high, integer, monic) of Phi_n(x)."""
    if n == 1:
        return (-1, 1)
    # x^n - 1 divided by Phi_d for every proper divisor d.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly = _poly_divmod_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_rows(n):
    """x^k mod Phi_n for k = 0 .. n-1 (x^n = 1), each as its non-zero
    (index, integer coefficient) pairs."""
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    row = [1] + [0] * (phi - 1)
    rows = []
    for _ in range(n):
        rows.append(tuple((j, c) for j, c in enumerate(row) if c))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            for j in range(phi):
                row[j] -= top * mod[j]
    return tuple(rows)


def _reduce(n, poly):
    """Integer polynomial coefficients (any length) mod Phi_n, length phi(n)."""
    phi = euler_phi(n)
    out = poly[:phi] + [0] * (phi - len(poly))
    rows = _power_rows(n)
    for k in range(phi, len(poly)):
        c = poly[k]
        if c:
            for j, r in rows[k % n]:
                out[j] += c * r
    return out


@lru_cache(maxsize=None)
def _descent_table(d, n):
    """(L, D, pivots, zero_rows, lift) for the lift Q(zeta_d) -> Q(zeta_n).

    lift[j][k] is coordinate j of zeta_d^k = zeta_n^(k*n/d), d | n.  L is an
    integer left inverse of the pivot rows up to the scale D > 0:
    sum_p L[i][p] * lift[pivots[p]][k] == D * [i == k].  zero_rows are the
    coordinates every lift leaves at zero.
    """
    step = n // d
    phi_d, phi_n = euler_phi(d), euler_phi(n)
    rows = _power_rows(n)
    lift = [[0] * phi_d for _ in range(phi_n)]
    for k in range(phi_d):
        for j, r in rows[k * step]:
            lift[j][k] = r
    # integer Gauss-Jordan on [lift | identity]: the right half of a pivot
    # row records which combination of input rows it is
    aug = [row + [int(i == j) for i in range(phi_n)]
           for j, row in enumerate(lift)]
    pivots = []
    for c in range(phi_d):
        p = next(j for j in range(phi_n) if j not in pivots and aug[j][c])
        pivots.append(p)
        for j in range(phi_n):
            f = aug[j][c]
            if j != p and f:
                g = aug[p][c]
                row = [g * x - f * y for x, y in zip(aug[j], aug[p])]
                h = gcd(*row)
                aug[j] = [x // h for x in row]
    scale = lcm(*(abs(aug[p][c]) for c, p in enumerate(pivots)))
    inverse = tuple(
        tuple(aug[p][phi_d + q] * (scale // aug[p][c]) for q in pivots)
        for c, p in enumerate(pivots)
    )
    zero_rows = tuple(j for j, row in enumerate(lift) if not any(row))
    return inverse, scale, tuple(pivots), zero_rows, tuple(map(tuple, lift))


@lru_cache(maxsize=None)
def _descent_divisors(n):
    """Candidate smaller conductors of a conductor-n value, ascending."""
    return tuple(d for d in _divisors(n) if 1 < d < n and d % 4 != 2)


def _descend(nums, d, n):
    """The conductor-d numerators whose lift is nums, or None if there are none."""
    inverse, scale, pivots, zero_rows, lift = _descent_table(d, n)
    # a value at its full conductor usually fails here, before any product:
    # 89% of the descents the character tables of cyclic(8), (12) and (24)
    # try end here, and conductor-24 sums take a fifth of the time
    for j in zero_rows:
        if nums[j]:
            return None
    out = []
    for row in inverse:
        s = sum(c * nums[p] for c, p in zip(row, pivots))
        if s % scale:
            return None
        out.append(s // scale)
    # accepted only when lifting back reproduces the input exactly
    for row, x in zip(lift, nums):
        if sum(c * y for c, y in zip(row, out)) != x:
            return None
    return out


def _canonical(n, nums, den):
    """The Cyclotomic nums/den at conductor n, at its minimal conductor.

    nums is a list of phi(n) ints and den > 0.  Q(zeta_d) embeds in Q(zeta_n)
    for every d | n, and the value lies in the image for the smallest d that
    _descend accepts; a conductor 2 mod 4 always descends to its odd half.
    """
    if len(nums) != euler_phi(n):
        raise TheoremViolation("%d coefficients at conductor %d"
                               % (len(nums), n))
    if n == 1 or not any(nums[1:]):
        return _reduced(1, nums[:1], den)
    for d in _descent_divisors(n):
        small = _descend(nums, d, n)
        if small is not None:
            return _reduced(d, small, den)
    if n % 4 == 2:
        raise TheoremViolation("conductor %d failed to descend" % n)
    return _reduced(n, nums, den)


def _reduced(n, nums, den):
    """The Cyclotomic nums/den at conductor n, the fraction reduced."""
    g = gcd(den, *nums)
    if g > 1:
        return Cyclotomic(n, tuple(c // g for c in nums), den // g)
    return Cyclotomic(n, tuple(nums), den)


def linear_combination(coeffs, xs, ys=None, den=1, conjugate=False):
    """sum_i coeffs[i] * xs[i] * ys[i] / den, exact; without ys the sum of
    coeffs[i] * xs[i] / den.  With conjugate, each ys[i] enters as its
    complex conjugate.  coeffs are ints, den is a positive int, and xs and
    ys are sequences of Cyclotomics.

    Each factor is lifted once to the common conductor N, as integer
    multiples of powers of zeta_N in Z[x]/(x^N - 1), so a product is a sum
    of shifted monomials and conjugation negates the exponents.  The
    numerators are added over one common denominator, then reduced mod
    Phi_N and canonicalized once, where a loop of + and * builds and
    canonicalizes a Cyclotomic after every term.
    """
    if ys is None:
        ys = [ONE] * len(xs)
    n = lcm(*{x.conductor for x in xs}, *{y.conductor for y in ys})
    d = lcm(*{x.den for x in xs}) * lcm(*{y.den for y in ys})
    if n == 1:
        return _reduced(1, [sum(c * x.nums[0] * y.nums[0]
                                * (d // (x.den * y.den))
                                for c, x, y in zip(coeffs, xs, ys))], d * den)
    sign = -1 if conjugate else 1
    acc = [0] * n
    for c, x, y in zip(coeffs, xs, ys):
        if not c:
            continue
        c *= d // (x.den * y.den)
        step = n // x.conductor
        xt = [(k * step, c * a) for k, a in enumerate(x.nums) if a]
        step = sign * (n // y.conductor)
        for k, b in enumerate(y.nums):
            if b:
                e = k * step
                for i, a in xt:
                    acc[(i + e) % n] += a * b
    return _canonical(n, _reduce(n, acc), d * den)


class Cyclotomic:
    """An element of Q(zeta_N), immutable, always at minimal conductor:
    numerators nums in the power basis over the denominator den."""

    __slots__ = ("conductor", "nums", "den", "_hash")

    def __init__(self, conductor, nums, den):
        # Private: use cyc()/root_of_unity()/arithmetic instead of calling
        # this with unreduced data.
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    # -- basic predicates ----------------------------------------------------

    def is_zero(self):
        return self.conductor == 1 and self.nums[0] == 0

    def is_rational(self):
        return self.conductor == 1

    def to_rational(self):
        """The rational value, or None when the element is irrational."""
        if self.conductor == 1:
            return Fraction(self.nums[0], self.den)
        return None

    # -- arithmetic ----------------------------------------------------------

    def _at(self, n):
        """The numerators lifted to conductor n, a multiple of the conductor."""
        if self.conductor == n:
            return self.nums
        step = n // self.conductor
        rows = _power_rows(n)
        out = [0] * euler_phi(n)
        for k, c in enumerate(self.nums):
            if c:
                for j, r in rows[k * step]:
                    out[j] += c * r
        return out

    def _scale(self, p, q):
        """self * p/q for ints p and q != 0; the conductor stays."""
        if not p:
            return ZERO
        if p == q:
            return self
        if q < 0:
            p, q = -p, -q
        return _reduced(self.conductor, [c * p for c in self.nums],
                        self.den * q)

    def __add__(self, other):
        if not isinstance(other, Cyclotomic):
            other = cyc(other)
        n = self.conductor
        if n == 1 and not self.nums[0]:
            return other
        if other.conductor == 1 and not other.nums[0]:
            return self
        if n != other.conductor:
            n = lcm(n, other.conductor)
        a = self._at(n)
        b = other._at(n)
        da, db = self.den, other.den
        if da == db:
            return _canonical(n, [x + y for x, y in zip(a, b)], da)
        return _canonical(n, [x * db + y * da for x, y in zip(a, b)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-c for c in self.nums),
                          self.den)

    def __sub__(self, other):
        return self + (-cyc(other))

    def __rsub__(self, other):
        return cyc(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            other = cyc(other)
        if self.conductor == 1:
            return other._scale(self.nums[0], self.den)
        if other.conductor == 1:
            return self._scale(other.nums[0], other.den)
        n = self.conductor
        if n != other.conductor:
            n = lcm(n, other.conductor)
        a = self._at(n)
        b = other._at(n)
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _canonical(n, _reduce(n, prod), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        n = self.conductor
        if n == 1:
            return ONE._scale(self.den, self.nums[0])
        # 1/z = (product of the other Galois conjugates of z) / norm(z)
        others = ONE
        for j in range(2, n):
            if gcd(j, n) == 1:
                others = others * self.galois(j)
        norm = self * others
        if not norm.is_rational() or norm.is_zero():
            raise TheoremViolation("the norm of %r is not a non-zero rational"
                                   % (self,))
        return others._scale(norm.den, norm.nums[0])

    def __truediv__(self, other):
        other = cyc(other)
        if other.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if other.conductor == 1:
            return self._scale(other.den, other.nums[0])
        return self * other.inverse()

    def __rtruediv__(self, other):
        return cyc(other) / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- Galois --------------------------------------------------------------

    def galois(self, j):
        """Apply zeta_N -> zeta_N^j; j must be coprime to the conductor."""
        n = self.conductor
        j %= n
        if gcd(j, n) != 1:
            raise ValueError("galois exponent %d not coprime to conductor %d" % (j, n))
        if n == 1 or j == 1:
            return self
        rows = _power_rows(n)
        out = [0] * len(self.nums)
        for k, c in enumerate(self.nums):
            if c:
                for i, r in rows[j * k % n]:
                    out[i] += c * r
        return Cyclotomic(n, tuple(out), self.den)

    def conjugate(self):
        return self.galois(-1)

    # -- comparisons / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.conductor == 1 and self.to_rational() == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (self.conductor == other.conductor and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.conductor, self.nums, self.den))
            object.__setattr__(self, "_hash", h)
            return h

    def __bool__(self):
        return not self.is_zero()

    # -- display / serialization ----------------------------------------------

    def __str__(self):
        if self.conductor == 1:
            return str(self.to_rational())
        return self.__repr__()

    def __repr__(self):
        if self.conductor == 1:
            return "cyc(%s)" % self.to_rational()
        terms = []
        for k, c in enumerate(self.nums):
            if c == 0:
                continue
            c = Fraction(c, self.den)
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("%s*z%d" % (c, self.conductor))
            else:
                terms.append("%s*z%d^%d" % (c, self.conductor, k))
        return "(" + " + ".join(terms) + ")"

    def to_json(self):
        coeffs = []
        for c in self.nums:
            g = gcd(c, self.den)
            coeffs.append("%d/%d" % (c // g, self.den // g))
        return {"conductor": self.conductor, "coeffs": coeffs}

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict) or "conductor" not in obj or "coeffs" not in obj:
            raise UserError(
                'a serialized cyclotomic needs "conductor" and "coeffs" fields'
            )
        n = obj["conductor"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise UserError("bad conductor in cyclotomic JSON")
        raw = obj["coeffs"]
        if not isinstance(raw, list):
            raise UserError("cyclotomic coefficients must be a list")
        # phi(n) >= sqrt(n/2): a larger conductor cannot match the count,
        # and is refused before phi(n) is computed
        if n > 2 * len(raw) ** 2 or len(raw) != euler_phi(n):
            raise UserError("coefficient count does not match phi(conductor)")
        try:
            coeffs = [parse_rational(s) for s in raw]
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise UserError("bad cyclotomic coefficient: %s" % exc)
        den = lcm(*(c.denominator for c in coeffs))
        return _canonical(
            n, [c.numerator * (den // c.denominator) for c in coeffs], den)


def cyc(value):
    """Coerce ints, Fractions and Cyclotomics to Cyclotomic."""
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, int):
        return Cyclotomic(1, (int(value),), 1)
    if isinstance(value, Fraction):
        return Cyclotomic(1, (value.numerator,), value.denominator)
    raise TypeError("cannot interpret %r as a cyclotomic number" % (value,))


def root_of_unity(n, k=1):
    """zeta_n^k as an exact cyclotomic, reduced to minimal conductor."""
    if n < 1:
        raise ValueError("root_of_unity needs a positive order")
    return _root(n, k % n)


@lru_cache(maxsize=None)
def _root(n, k):
    g = gcd(n, k)
    n, k = n // g, k // g
    nums = [0] * euler_phi(n)
    for j, r in _power_rows(n)[k]:
        nums[j] = r
    return _canonical(n, nums, 1)


ZERO = Cyclotomic(1, (0,), 1)
ONE = Cyclotomic(1, (1,), 1)
