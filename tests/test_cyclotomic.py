import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, lcm

from inertial.cyclotomic import (
    Cyclotomic,
    cyc,
    cyclotomic_polynomial,
    linear_combination,
    root_of_unity,
)
from inertial.errors import UserError, parse_rational
from oracles import (
    approx,
    coords,
    coords_json,
    reference_canonical,
    reference_galois,
    reference_linear_combination,
    reference_product,
    reference_root,
    reference_sum,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_rational_embedding():
    assert cyc(5).to_rational() == Fraction(5)
    assert cyc(Fraction(3, 4)).to_rational() == Fraction(3, 4)
    assert cyc(Fraction(-2, 7)).to_rational() == Fraction(-2, 7)
    assert cyc(0).is_zero()
    assert cyc(1).conductor == 1


def test_primitive_root_relations():
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 12):
        z = root_of_unity(n)
        power = cyc(1)
        for k in range(1, n):
            power = power * z
            assert power == root_of_unity(n, k), f"zeta_{n}^{k} mismatch"
            assert not power.is_zero()
        assert (power * z) == cyc(1), f"zeta_{n}^{n} != 1"


def test_cyclotomic_polynomial_degrees():
    # degree of Phi_n is Euler's totient
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 8: 4, 9: 6, 12: 4, 15: 8}
    for n, deg in expected.items():
        poly = cyclotomic_polynomial(n)
        assert len(poly) - 1 == deg, f"deg Phi_{n} = {len(poly) - 1}, want {deg}"


def test_minimal_conductor_normalization():
    # zeta_6 = -zeta_3^2 lives in conductor 3 after normalization? No:
    # conductor 6 is not minimal for zeta_6 + zeta_6^-1 = 1, which is rational.
    z6 = root_of_unity(6)
    assert (z6 + z6.inverse()).to_rational() == 1
    # zeta_4^2 = -1 must come back at conductor 1
    z4 = root_of_unity(4)
    sq = z4 * z4
    assert sq.conductor == 1 and sq.to_rational() == -1
    # zeta_3 + zeta_3^2 = -1
    z3 = root_of_unity(3)
    assert (z3 + z3 * z3).to_rational() == -1
    # sum over all n-th roots vanishes
    for n in (2, 3, 4, 5, 6, 8, 12):
        total = cyc(0)
        for k in range(n):
            total = total + root_of_unity(n, k)
        assert total.is_zero(), f"sum of all {n}-th roots != 0"


def test_field_operations():
    z5 = root_of_unity(5)
    a = cyc(2) + z5 - z5 * z5 * cyc(Fraction(1, 3))
    b = z5 * z5 * z5 + cyc(Fraction(7, 2))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == cyc(1)
    assert (a - a).is_zero()
    try:
        cyc(0).inverse()
        raise AssertionError("inverting zero must fail")
    except (UserError, ZeroDivisionError):
        pass


def test_conjugation_is_inversion_on_roots():
    for n in (3, 4, 5, 8):
        for k in range(1, n):
            z = root_of_unity(n, k)
            assert z.conjugate() == z.inverse()
            assert (z * z.conjugate()).to_rational() == 1


def test_json_round_trip():
    samples = [
        cyc(Fraction(22, 7)),
        root_of_unity(5),
        root_of_unity(8) + cyc(1),
        root_of_unity(12, 5) * cyc(Fraction(3, 2)) - root_of_unity(3),
    ]
    for z in samples:
        back = Cyclotomic.from_json(z.to_json())
        assert back == z, f"round trip changed {z!r}"
        assert back.conductor == z.conductor
    blob = root_of_unity(5).to_json()
    assert set(blob) == {"conductor", "coeffs"}
    assert all(isinstance(c, str) for c in blob["coeffs"])


def test_malformed_json_rejected():
    for bad in (
        {"conductor": 0, "coeffs": ["1"]},
        {"conductor": 3, "coeffs": []},
        {"conductor": 3},
        {"coeffs": ["1", "0"]},
        {"conductor": 3, "coeffs": ["1", "x"]},
    ):
        try:
            Cyclotomic.from_json(bad)
            raise AssertionError(f"accepted malformed input {bad}")
        except UserError:
            pass


def test_float_embedding_tracks_exact_values():
    # the float embedding of tests/oracles.py should be a ring hom
    z = root_of_unity(7, 3)
    w = root_of_unity(7, 4)
    assert abs(approx(z * w) - approx(z) * approx(w)) < 1e-9
    assert abs(approx(z + w) - (approx(z) + approx(w))) < 1e-9


def _agrees(z, ref):
    assert coords(z) == ref, f"{z!r}: library {coords(z)}, reference {ref}"
    assert (json.dumps(z.to_json(), sort_keys=True)
            == json.dumps(coords_json(ref), sort_keys=True))


def test_field_matches_the_reference_canonical_form():
    # every operation lands on the conductor and coefficients of the
    # Galois-fixed test and linear solve kept in tests/oracles.py
    rng = random.Random(7001)
    for n in range(1, 25):
        for k in range(n):
            _agrees(root_of_unity(n, k), reference_root(n, k))
    for _ in range(150):
        big = rng.randint(1, 24)
        n = rng.choice([d for d in range(1, big + 1) if big % d == 0])
        m = rng.choice([d for d in range(1, big + 1) if big % d == 0])
        values = []
        for order in (n, m):
            # sums of a few roots, sometimes of an order 2 mod 4 (6, 10, 14,
            # 18), which descends to its odd half
            if order % 2 and 2 * order <= 24 and rng.random() < 0.3:
                order *= 2
            z = cyc(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(order)
                q = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                zk = root_of_unity(order, k)
                _agrees(zk, reference_root(order, k))
                prev = z
                z = z + q * zk
                _agrees(z, reference_sum(coords(prev), coords(q * zk),
                                         lcm(prev.conductor, order)))
            values.append(z)
        z, w = values
        top = lcm(z.conductor, w.conductor)
        _agrees(z + w, reference_sum(coords(z), coords(w), top))
        _agrees(z * w, reference_product(coords(z), coords(w), top))
        _agrees(z - z, (1, (Fraction(0),)))
        units = [j for j in range(1, max(z.conductor, 2))
                 if gcd(j, z.conductor) == 1]
        j = rng.choice(units)
        _agrees(z.galois(j), reference_galois(coords(z), j))
        _agrees(z.conjugate(), reference_galois(coords(z), -1))
        if not z.is_zero():
            inv = z.inverse()
            assert reference_canonical(*coords(inv)) == coords(inv)
            _agrees(z * inv, (1, (Fraction(1),)))
        for lhs, rhs in ((approx(z + w), approx(z) + approx(w)),
                         (approx(z * w), approx(z) * approx(w))):
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def _element(rng, n):
    """A seeded element of Q(zeta_n): a rational plus a few rational
    multiples of n-th roots of unity."""
    z = cyc(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    for _ in range(rng.randint(1, 3)):
        q = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        z = z + q * root_of_unity(n, rng.randrange(n))
    return z


def _same(z, ref):
    assert (z.conductor, z.nums, z.den) == (
        ref.conductor, ref.nums, ref.den), f"fused {z!r}, per term {ref!r}"


def test_linear_combination_matches_the_per_term_loop():
    # the fused kernel lands on the canonical form the per-term loop of +
    # and * builds, at single and mixed conductors, with and without a
    # second factor, conjugated or not
    rng = random.Random(2024)
    conductors = (1, 3, 4, 5, 8, 12, 15, 24)
    for n in conductors:
        for mixed in (False, True):
            for _ in range(6):
                size = rng.randint(1, 6)
                orders = [rng.choice(conductors) if mixed else n
                          for _ in range(2 * size)]
                xs = [_element(rng, m) for m in orders[:size]]
                ys = [_element(rng, m) for m in orders[size:]]
                coeffs = [rng.randint(-5, 5) for _ in range(size)]
                den = rng.randint(1, 7)
                _same(linear_combination(coeffs, xs, den=den),
                      reference_linear_combination(coeffs, xs, den=den))
                for conj in (False, True):
                    _same(linear_combination(coeffs, xs, ys, den, conj),
                          reference_linear_combination(coeffs, xs, ys, den,
                                                       conj))
    # sums that descend: to the real subfield, to a smaller conductor, to
    # a rational, and sums that cancel to zero
    z8, z12, z15, z24 = (root_of_unity(n) for n in (8, 12, 15, 24))
    cases = [
        (([1, 1], [z8, z8.conjugate()]),
         root_of_unity(8) + root_of_unity(8, -1)),
        (([1], [z8], [z8]), root_of_unity(4)),
        (([1, 1], [z12 ** 4, z12 ** 8]), cyc(-1)),
        (([1, 1], [z15 ** 5, z15 ** 10]), cyc(-1)),
        (([2], [z24 ** 3], [z24 ** 5]), 2 * root_of_unity(3)),
        (([1, 1, 1], [z24, z8, z12], [z24, z8, z12], 3, True), cyc(1)),
        (([3, -3], [z24 + z15, z15 + z24]), cyc(0)),
        (([1, 1], [z8, z8], [z8 ** 3, z8 ** 7]), cyc(0)),
        (([], []), cyc(0)),
    ]
    for args, want in cases:
        got = linear_combination(*args)
        _same(got, want)
        _same(got, reference_linear_combination(*args))
        assert coords(got) == reference_canonical(*coords(got))
    assert root_of_unity(8) + root_of_unity(8, -1) != cyc(0)
    assert linear_combination([1, -1], [z8, z8]).is_zero()


def test_corrupted_descent_table_raises_under_optimize():
    # a wrong left inverse proposes wrong coordinates at conductor 3, the
    # lift-back check refuses them, and zeta_6 cannot descend: exit 3
    script = """
import sys
from inertial import cyclotomic
from inertial.cli import main
if not sys.flags.optimize:
    sys.exit(2)
real = cyclotomic._descent_table
def corrupted(d, n):
    inverse, scale, pivots, zero_rows, lift = real(d, n)
    inverse = tuple(tuple(c + 1 for c in row) for row in inverse)
    return inverse, scale, pivots, zero_rows, lift
cyclotomic._descent_table = corrupted
sys.exit(main(["chartable", "--group", "catalog:cyclic(6)"]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, env=env)
    assert proc.returncode == 3, proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert error["kind"] == "TheoremViolation"
    assert "conductor 6 failed to descend" in error["message"], error["message"]


def test_outside_numbers_are_parsed_in_bounded_time():
    start = time.perf_counter()
    for bad in ("1e10000000", "1E-10000000", "2.5e+1_0000000",
                "1e" + "9" * 5000, "1e4301", "1" * 4301):
        try:
            parse_rational(bad)
            raise AssertionError(f"accepted {bad[:20]}")
        except ValueError:
            pass
    # 100000000000031 is prime: phi by trial division would take seconds
    for bad in ({"conductor": 30000001, "coeffs": ["1"]},
                {"conductor": 100000000000031, "coeffs": ["1", "0"]},
                {"conductor": 3, "coeffs": ["1e10000000", "0"]}):
        try:
            Cyclotomic.from_json(bad)
            raise AssertionError(f"accepted {bad}")
        except UserError:
            pass
    assert time.perf_counter() - start < 1.0
    assert parse_rational(" -3/6 ") == Fraction(-1, 2)
    assert parse_rational("1.5e3") == 1500
    assert parse_rational("1e-4300") == Fraction(1, 10 ** 4300)
    assert parse_rational(7) == 7
