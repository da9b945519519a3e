"""Microbenchmark of the exact scalar field: microseconds per operation.

    python3 tools/cyclotomic_microbench.py

Run it from the repository root (it puts src/ on the path itself); it uses
the standard library only.  For each conductor n in 1, 3, 4, 5, 8, 12 and 24
it times a + b, a * b and the complex conjugate a.galois(-1) (the
"conjugate" column) on two fixed elements of Q(zeta_n),

    a = sum_k (k + 2) zeta_n^k,    b = sum_k (-1)^k (2k + 1)/6 zeta_n^k,

k = 0 .. n-1, one with integer and one with rational coefficients, both at
conductor n.  It also times a sum of R (8) products, sum_i (i + 1) a_i b_i
with a_i = zeta_n^i a and b_i = zeta_n^(2i) b, two ways: fused by
linear_combination, and term by term with + and * (a Cyclotomic built and
canonicalized after every term).  Each figure is the best of REPEAT (5)
timeit repeats, each repeat running the operation long enough to take at
least 0.2 s.
"""

import os
import sys
import timeit
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from inertial.cyclotomic import (  # noqa: E402
    ZERO, cyc, linear_combination, root_of_unity)

CONDUCTORS = (1, 3, 4, 5, 8, 12, 24)
REPEAT = 5
R = 8


def operands(n):
    a = cyc(0)
    b = cyc(0)
    for k in range(n):
        z = root_of_unity(n, k)
        a = a + (k + 2) * z
        b = b + Fraction((-1) ** k * (2 * k + 1), 6) * z
    return a, b


def per_term(coeffs, xs, ys):
    total = ZERO
    for c, x, y in zip(coeffs, xs, ys):
        total = total + c * x * y
    return total


def per_op_us(fn):
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEAT, number)) / number * 1e6


def main():
    print("%9s %9s %9s %9s %11s %11s   (us per op)"
          % ("conductor", "add", "mul", "conjugate", "sum%d fused" % R,
             "sum%d loop" % R))
    for n in CONDUCTORS:
        a, b = operands(n)
        if a.conductor != n or b.conductor != n:
            raise SystemExit("operands at conductor %d came out at %d and %d"
                             % (n, a.conductor, b.conductor))
        coeffs = list(range(1, R + 1))
        xs = [root_of_unity(n, i) * a for i in range(R)]
        ys = [root_of_unity(n, 2 * i) * b for i in range(R)]
        if linear_combination(coeffs, xs, ys) != per_term(coeffs, xs, ys):
            raise SystemExit("fused and per-term sums differ at conductor %d"
                             % n)
        times = [per_op_us(fn)
                 for fn in (lambda: a + b, lambda: a * b, lambda: a.galois(-1),
                            lambda: linear_combination(coeffs, xs, ys),
                            lambda: per_term(coeffs, xs, ys))]
        print("%9d %9.1f %9.1f %9.1f %11.1f %11.1f" % (n, *times))


if __name__ == "__main__":
    main()
