"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis of Q[x]/(Phi_N(x)) with x = zeta_N
= exp(2*pi*i/N), coefficients exact rationals.  Every value is kept at its
minimal conductor (never 2 mod 4), so equality and hashing are structural.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import TheoremViolation, UserError

Rational = Fraction

__all__ = [
    "Rational",
    "Cyclotomic",
    "cyclotomic_polynomial",
    "euler_phi",
    "root_of_unity",
    "cyc",
    "ZERO",
    "ONE",
]


@lru_cache(maxsize=None)
def euler_phi(n):
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


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
def _reduction_rows(n):
    """x^k mod Phi_n for k = 0 .. 2*phi(n)-2, as integer coefficient tuples."""
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    rows = []
    row = [0] * phi
    row[0] = 1
    rows.append(tuple(row))
    prev = row
    for _ in range(1, 2 * phi - 1):
        row = [0] + prev[:-1]
        top = prev[-1]
        if top:
            for j in range(phi):
                row[j] -= top * mod[j]
        rows.append(tuple(row))
        prev = row
    return tuple(rows)


def _reduce_power_list(n, coeffs):
    """Reduce a coefficient list (any length) mod Phi_n to length phi(n)."""
    phi = euler_phi(n)
    rows = None
    out = [Fraction(0)] * phi
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k < phi:
            out[k] += c
        else:
            if rows is None:
                rows = _reduction_rows(n)
            if k < len(rows):
                row = rows[k]
            else:
                row = _high_power_row(n, k)
            for j, rj in enumerate(row):
                if rj:
                    out[j] += c * rj
    return out


@lru_cache(maxsize=None)
def _high_power_row(n, k):
    # x^k mod Phi_n for k beyond the precomputed window (e.g. galois maps).
    k = k % n  # x^n = 1 in Q(zeta_n)
    rows = _reduction_rows(n)
    if k < len(rows):
        return rows[k]
    # multiply x^(len-1) by x repeatedly; n is small so this is fine
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    row = list(rows[-1])
    for _ in range(k - (len(rows) - 1)):
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            for j in range(phi):
                row[j] -= top * mod[j]
    return tuple(row)


@lru_cache(maxsize=None)
def _lift_rows(small, big):
    """Power-basis images of zeta_small^k in conductor big, k = 0..phi(small)-1."""
    if big % small:
        raise TheoremViolation("conductor %d does not divide %d" % (small, big))
    step = big // small
    phi_s = euler_phi(small)
    rows = []
    for k in range(phi_s):
        vec = [Fraction(0)] * (step * k + 1)
        vec[step * k] = Fraction(1)
        rows.append(tuple(_reduce_power_list(big, vec)))
    return tuple(rows)


def _solve_linear(columns, target):
    """Solve sum_j x_j * columns[j] = target over Fraction; None if inconsistent."""
    m = len(target)
    k = len(columns)
    aug = [[columns[j][i] for j in range(k)] + [target[i]] for i in range(m)]
    piv_cols = []
    r = 0
    for c in range(k):
        piv = None
        for i in range(r, m):
            if aug[i][c]:
                piv = i
                break
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
    # consistency: rows below rank must have zero rhs, and solution must verify
    for i in range(m):
        s = sum(sol[j] * columns[j][i] for j in range(k))
        if s != target[i]:
            return None
    return sol


class Cyclotomic:
    """An element of Q(zeta_N), immutable, always at minimal conductor."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor, coeffs):
        # Private: use cyc()/root_of_unity()/arithmetic instead of calling
        # this with unreduced data.
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", hash((conductor, coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rational(q):
        return Cyclotomic(1, (Fraction(q),))

    # -- basic predicates ----------------------------------------------------

    def is_zero(self):
        return self.conductor == 1 and self.coeffs[0] == 0

    def is_rational(self):
        return self.conductor == 1

    def to_rational(self):
        """The rational value, or None when the element is irrational."""
        if self.conductor == 1:
            return self.coeffs[0]
        return None

    # -- arithmetic ----------------------------------------------------------

    def _lift_coeffs(self, big):
        if self.conductor == big:
            return list(self.coeffs)
        rows = _lift_rows(self.conductor, big)
        out = [Fraction(0)] * euler_phi(big)
        for k, c in enumerate(self.coeffs):
            if c:
                for j, rj in enumerate(rows[k]):
                    if rj:
                        out[j] += c * rj
        return out

    def __add__(self, other):
        other = cyc(other)
        n = lcm(self.conductor, other.conductor)
        a = self._lift_coeffs(n)
        b = other._lift_coeffs(n)
        return _canonical(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-cyc(other))

    def __rsub__(self, other):
        return cyc(other) + (-self)

    def __mul__(self, other):
        other = cyc(other)
        if self.conductor == 1:
            q = self.coeffs[0]
            if q == 0:
                return ZERO
            return Cyclotomic(other.conductor, tuple(q * c for c in other.coeffs))
        if other.conductor == 1:
            return other * self
        n = lcm(self.conductor, other.conductor)
        a = self._lift_coeffs(n)
        b = other._lift_coeffs(n)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return _canonical(n, _reduce_power_list(n, prod))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        n = self.conductor
        if n == 1:
            return Cyclotomic(1, (Fraction(1) / self.coeffs[0],))
        # extended Euclid in Q[x] against Phi_n (irreducible over Q)
        mod = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if not r1:
                raise TheoremViolation(
                    "Phi_N divides a shorter nonzero polynomial?")
            if len(r1) == 1:
                inv = [c / r1[0] for c in s1]
                return _canonical(n, _reduce_power_list(n, inv))
            q, rem = _frac_poly_divmod(r0, r1)
            s_next = _frac_poly_sub(s0, _frac_poly_mul(q, s1))
            r0, r1 = r1, rem
            s0, s1 = s1, s_next

    def __truediv__(self, other):
        other = cyc(other)
        if other.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if other.conductor == 1:
            return self * Cyclotomic(1, (Fraction(1) / other.coeffs[0],))
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
        out = [Fraction(0)] * euler_phi(n)
        for k, c in enumerate(self.coeffs):
            if c:
                row = _high_power_row(n, (j * k) % n)
                for i, ri in enumerate(row):
                    if ri:
                        out[i] += c * ri
        return _canonical(n, out)

    def conjugate(self):
        return self.galois(-1)

    # -- comparisons / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.conductor == 1 and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    # -- display / serialization ----------------------------------------------

    def __str__(self):
        if self.conductor == 1:
            return str(self.coeffs[0])
        return self.__repr__()

    def __repr__(self):
        if self.conductor == 1:
            return "cyc(%s)" % self.coeffs[0]
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("%s*z%d" % (c, self.conductor))
            else:
                terms.append("%s*z%d^%d" % (c, self.conductor, k))
        return "(" + " + ".join(terms) + ")"

    def approx(self):
        """Float embedding via zeta_N -> exp(2*pi*i/N).  Diagnostics only."""
        import cmath

        z = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(float(c) * z**k for k, c in enumerate(self.coeffs))

    def to_json(self):
        return {
            "conductor": self.conductor,
            "coeffs": [_frac_str(c) for c in self.coeffs],
        }

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict) or "conductor" not in obj or "coeffs" not in obj:
            raise UserError(
                'a serialized cyclotomic needs "conductor" and "coeffs" fields'
            )
        n = obj["conductor"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise UserError("bad conductor in cyclotomic JSON")
        try:
            coeffs = [Fraction(s) for s in obj["coeffs"]]
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise UserError("bad cyclotomic coefficient: %s" % exc)
        if len(coeffs) != euler_phi(n):
            raise UserError("coefficient count does not match phi(conductor)")
        return _canonical(n, coeffs)


def _frac_str(q):
    return "%d/%d" % (q.numerator, q.denominator)


def _frac_poly_divmod(num, den):
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] / lead
        if c:
            quot[i - dn] = c
            for j, dj in enumerate(den):
                num[i - dn + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return quot, (num or [Fraction(0)])


def _frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _frac_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


@lru_cache(maxsize=None)
def _gal_subgroup(n, d):
    """Units j mod n with j = 1 mod d: the Galois group of Q(zeta_n)/Q(zeta_d)."""
    return tuple(
        j for j in range(2, n) if gcd(j, n) == 1 and (j - 1) % d == 0
    )


def _canonical(n, coeffs):
    """Build a Cyclotomic from conductor-n coefficients, minimizing the conductor.

    The element lies in Q(zeta_d) for d | n exactly when it is fixed by the
    units j = 1 mod d of (Z/n)*; the smallest such d is the conductor.  A
    conductor is never 2 mod 4 (Q(zeta_2m) = Q(zeta_m) for odd m), so those
    divisors are skipped — the halved divisor is checked instead.
    """
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) != euler_phi(n):
        raise TheoremViolation("%d coefficients at conductor %d"
                               % (len(coeffs), n))
    if all(c == 0 for c in coeffs[1:]):
        return Cyclotomic(1, (coeffs[0],))
    z = Cyclotomic(n, tuple(coeffs))
    for d in _divisors(n):
        if d == n:
            break
        if d % 4 == 2:
            continue
        if _fixed_by(z, n, d):
            return _express_at(z, d)
    if n % 4 == 2:
        raise TheoremViolation("conductor 2 mod 4 failed to descend")
    return z


def _fixed_by(z, n, d):
    for j in _gal_subgroup(n, d):
        if _raw_galois(z, j) != z.coeffs:
            return False
    return True


def _raw_galois(z, j):
    """Galois image coefficients without re-canonicalizing (avoids recursion)."""
    n = z.conductor
    out = [Fraction(0)] * euler_phi(n)
    for k, c in enumerate(z.coeffs):
        if c:
            row = _high_power_row(n, (j * k) % n)
            for i, ri in enumerate(row):
                if ri:
                    out[i] += c * ri
    return tuple(out)


def _express_at(z, d):
    """Re-express z (known fixed by Gal(N/d)) in the conductor-d power basis."""
    n = z.conductor
    rows = _lift_rows(d, n)  # zeta_d^k as conductor-n vectors
    sol = _solve_linear(rows, tuple(z.coeffs))
    if sol is None:
        raise TheoremViolation("Galois-invariant element failed to descend")
    if all(c == 0 for c in sol[1:]):
        return Cyclotomic(1, (sol[0],))
    return Cyclotomic(d, tuple(sol))


def cyc(value):
    """Coerce ints, Fractions and Cyclotomics to Cyclotomic."""
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic(1, (Fraction(value),))
    raise TypeError("cannot interpret %r as a cyclotomic number" % (value,))


def root_of_unity(n, k=1):
    """zeta_n^k as an exact cyclotomic, reduced to minimal conductor."""
    if n < 1:
        raise ValueError("root_of_unity needs a positive order")
    k %= n
    if k == 0:
        return ONE
    g = gcd(n, k)
    n, k = n // g, k // g
    if n == 1:
        return ONE
    if n == 2:
        return Cyclotomic(1, (Fraction(-1),))
    vec = [Fraction(0)] * (k + 1)
    vec[k] = Fraction(1)
    return _canonical(n, _reduce_power_list(n, vec))


ZERO = Cyclotomic(1, (Fraction(0),))
ONE = Cyclotomic(1, (Fraction(1),))
