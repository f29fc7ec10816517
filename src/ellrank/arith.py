"""Exact integer utilities.

Moebius and totient by trial-division factorization (inputs stay below
1e6 here, so nothing fancier is warranted), divisor-power sums by a
sieve, and cyclotomic polynomials by exact Moebius inversion over Z[X].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    q = 5
    while q * q <= m:
        while m % q == 0:
            out[q] = out.get(q, 0) + 1
            m //= q
        q += 2 if q % 3 == 2 else 4  # skip multiples of 2 and 3
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def prime_divisors(n: int) -> list[int]:
    return sorted(factorize(n))


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(n: int) -> int:
    if n < 1:
        raise ValueError("totient needs n >= 1")
    t = n
    for p in factorize(n):
        t -= t // p
    return t


def index_psi(N: int) -> int:
    """[SL2(Z) : Gamma_0(N)] = N prod_{p|N} (1 + 1/p)."""
    psi = N
    for p in prime_divisors(N):
        psi = psi // p * (p + 1)
    return psi


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def divisor_sigma_table(nmax: int, power: float) -> np.ndarray:
    """sigma_power(n) = sum_{d | n} d^power for n = 0..nmax (entry 0 is 0),
    by a sieve; each entry adds its divisors' powers in ascending order."""
    out = np.zeros(nmax + 1)
    for d in range(1, nmax + 1):
        out[d::d] += float(d) ** power
    return out


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with exact integer coefficients, ascending degree."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        c = self.coefficients
        if len(c) > 1 and c[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        """Horner evaluation; x may be int, float or complex (scalar or ndarray)."""
        acc = 0 * x + self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            acc = acc * x + c
        return acc


def _mul_binomial(coeffs: list[int], k: int) -> list[int]:
    # multiply by (X^k - 1)
    out = [0] * (len(coeffs) + k)
    for i, c in enumerate(coeffs):
        out[i + k] += c
        out[i] -= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _div_binomial(coeffs: list[int], k: int) -> list[int]:
    # exact division by (X^k - 1): q[i] = q[i-k] - c[i], checked exact
    n = len(coeffs) - 1 - k
    q = [0] * (n + 1)
    for i in range(n + 1):
        prev = q[i - k] if i >= k else 0
        q[i] = prev - coeffs[i]
    # remainder check: top k coefficients of q*(X^k-1) must match
    for i in range(n + 1, len(coeffs)):
        prev = q[i - k] if i - k <= n else 0
        if prev != coeffs[i]:
            raise ArithmeticError("inexact cyclotomic division")
    return q


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """n-th cyclotomic polynomial by exact Moebius inversion,

        Phi_n(X) = prod_{d | n} (X^{n/d} - 1)^{mu(d)},

    realized as one dense product for mu = +1 divided exactly by the
    product for mu = -1.  Coefficients are exact Python integers.
    Built once per n and process; the result is frozen, so callers share it.
    """
    if n < 1:
        raise ValueError("cyclotomic needs n >= 1")
    if n > 100_000:
        raise ValueError("cyclotomic capped at n <= 1e5")
    num = [1]
    for d in divisors(n):
        if moebius(d) == 1:
            num = _mul_binomial(num, n // d)
    poly = num
    for d in divisors(n):
        if moebius(d) == -1:
            poly = _div_binomial(poly, n // d)
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return IntPolynomial(tuple(poly))
