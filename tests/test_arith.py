import math

import numpy as np
import pytest

from ellrank.arith import IntPolynomial, cyclotomic, divisors, moebius, totient
from oracles import best_rational, recognize_rational


def test_moebius_values():
    assert moebius(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1
    with pytest.raises(ValueError):
        moebius(0)


def test_totient_values():
    assert totient(1) == 1
    assert totient(11) == 10
    assert totient(154) == 60


def test_divisor_sum_of_moebius_vanishes():
    # sum_{d|N} mu(d) = 0 for N > 1, for all N <= 1e4
    for N in range(2, 10_001):
        assert sum(moebius(d) for d in divisors(N)) == 0


def test_product_power_identity_exponents():
    # prod_{d|N} (N/d)^{mu(d)} = 1 for N with more than one prime factor:
    # the exponent of every prime in the product must sum to zero.
    from ellrank.arith import factorize

    for N in (6, 30, 154, 210, 2310, 4620):
        expo: dict[int, int] = {}
        for d in divisors(N):
            mu = moebius(d)
            if mu == 0:
                continue
            for p, e in factorize(N // d).items() if N // d > 1 else ():
                expo[p] = expo.get(p, 0) + mu * e
        assert all(v == 0 for v in expo.values()), N


def test_cyclotomic_small():
    assert cyclotomic(1).coefficients == (-1, 1)
    assert cyclotomic(6).coefficients == (1, -1, 1)
    # divide prod_{d|12} (X^{12/d}-1)^{mu(d)} exactly: X^4 - X^2 + 1
    assert cyclotomic(12).coefficients == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_and_constant():
    from ellrank.arith import factorize

    for n in range(1, 201):
        poly = cyclotomic(n)
        assert poly.degree == totient(n)
    assert cyclotomic(1).coefficients[0] == -1
    for n in range(2, 201):
        poly = cyclotomic(n)
        # constant term in {-1, 1}; value at 1 is p for prime powers else 1
        assert poly.coefficients[0] in (-1, 1)
        fac = factorize(n)
        assert poly(1) == (list(fac)[0] if len(fac) == 1 else 1)


def test_cyclotomic_product_is_xn_minus_1():
    for n in (1, 2, 8, 12, 30, 77, 154, 200):
        prod = [1]
        for d in divisors(n):
            c = cyclotomic(d).coefficients
            new = [0] * (len(prod) + len(c) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(c):
                    new[i + j] += a * b
            prod = new
        want = [0] * (n + 1)
        want[0], want[n] = -1, 1
        assert prod == want


def test_intpolynomial_eval():
    p = IntPolynomial((1, 0, -1, 0, 1))       # Phi_12
    z = np.exp(2j * np.pi / 12.0)
    assert abs(p(z)) < 1e-12
    assert p(2) == 13


def test_recognize_rational_examples():
    g = recognize_rational(0.5, 100, 1e-9)
    assert (g.numerator, g.denominator, g.residual) == (1, 2, 0.0)
    g = recognize_rational(0.3333333333, 100, 1e-8)
    assert (g.numerator, g.denominator) == (1, 3)
    assert recognize_rational(math.pi, 10, 1e-9) is None
    best = best_rational(math.pi, 10)
    assert (best.numerator, best.denominator) == (22, 7)
    assert abs(best.residual - 1.3e-3) < 2e-4
    # the closest fraction, not only the closest convergent
    best = best_rational(math.pi, 100)
    assert (best.numerator, best.denominator) == (311, 99)
    best = best_rational(math.sqrt(2.0), 4)
    assert (best.numerator, best.denominator) == (4, 3)


def test_recognize_rational_recovery_property(rng):
    # recovers p/q whenever |eps| < 1/(2 q Q) and q <= Q
    Q = 400
    for _ in range(500):
        q = int(rng.integers(1, Q + 1))
        p = int(rng.integers(-3 * q, 3 * q + 1))
        g = math.gcd(abs(p), q) or 1
        p, q = p // g, q // g
        eps = float(rng.uniform(-1, 1)) / (2.1 * q * Q)
        got = best_rational(p / q + eps, Q)
        assert (got.numerator, got.denominator) == (p, q), (p, q, eps)
