"""Real-analytic Eisenstein (Epstein) series.

Three evaluators with disjoint machinery, used as mutual oracles:

  epstein_lattice_raw   the bare truncated double sum (s > 1 only,
                        slowly convergent; loose-tolerance oracle)
  epstein_lattice       theta-split lattice sum: with Q(v) = |mz+n|^2/y
                        (a unimodular, self-dual binary form),

          E*(z,s) = 1/(s-1) - 1/s
                  + sum'_v [ g(s, pi Q(v)) + g(1-s, pi Q(v)) ],

                        g(a,x) = x^-a Gamma(a,x); terms decay like
                        e^{-pi Q(v)}, the cutoff comes from an explicit
                        tail bound.  Valid at any s, but the public op
                        keeps the s > 1 contract of the raw sum.
  epstein_completed     Fourier expansion (production evaluator):

          E*(z,s) = 2 xi(2s) y^s + 2 xi(2s-1) y^{1-s}
                  + 8 sqrt(y) sum_{n>=1} n^{s-1/2} sigma_{1-2s}(n)
                        K_{s-1/2}(2 pi n y) cos(2 pi n x),

                        xi(v) = pi^{-v/2} Gamma(v/2) zeta(v); points are
                        SL2(Z)-reduced first (the lattice sum is fully
                        modular), so y >= sqrt(3)/2 and the terms are
                        cut below e^{-40}.  At nu = s - 1/2 = +-(m + 1/2),
                        K_nu(X) = sqrt(pi/2X) e^{-X} sum_{k<=m} c_k X^{-k}
                        (specialfn.bessel_k_half_coeffs), and the sum is
                        4 sum_k c_k (2 pi y)^{-k} Re sum_n sigma_{1-2s}(n)
                        n^{s-1-k} q^n: m + 1 Horner polynomials in q.

E* has simple poles at s = 0, 1 with residues -1, +1 and satisfies
E*(z,s) = E*(z,1-s) termwise in the Fourier form.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import divisor_sigma_table
from .halfplane import UHPoint, sl2z_reduce
from .specialfn import (
    EvalResult,
    PoleError,
    bessel_k_array,
    bessel_k_half_coeffs,
    completed_zeta,
    upper_gamma,
)


def _check_s_not_pole(s: float):
    if s in (0.0, 1.0):
        raise PoleError("E* has simple poles at s = 0 and s = 1")
    if abs(s - 0.5) < 1e-4:
        raise ValueError("constant terms cancel a removable pair at s = 1/2; "
                         "evaluate at |s - 1/2| >= 1e-4")


@lru_cache(maxsize=64)
def _star_constants(s: float, nmax: int) -> tuple:
    """E*'s per-(s, nmax) constants: 2 xi(2s), 2 xi(2s - 1) and the
    read-only table sigma_{1-2s}(n), n = 0..nmax."""
    sig = divisor_sigma_table(nmax, 1.0 - 2.0 * s)
    sig.flags.writeable = False
    return 2.0 * completed_zeta(2.0 * s), 2.0 * completed_zeta(2.0 * s - 1.0), sig


def epstein_star_array(x, y, s: float) -> np.ndarray:
    """Completed Epstein series E*(z,s) on arrays of points (Fourier form)."""
    _check_s_not_pole(s)
    xr, yr, _, _ = sl2z_reduce(np.asarray(x, float), np.asarray(y, float))
    nu = s - 0.5
    # truncation: K_nu(2 pi n y) < sqrt(pi/(4 pi n y)) e^{-2 pi n y + nu^2/(4 pi n y)}
    ymin = float(np.min(yr))
    nmax = 1
    while 2.0 * math.pi * nmax * ymin - nu * nu / (4.0 * math.pi * nmax * ymin) < 40.0 + abs(nu) * math.log(nmax + 1.0):
        nmax += 1
        if nmax > 64:
            break
    xi2s, xi2s1, sig = _star_constants(s, nmax)
    c = xi2s * yr**s + xi2s1 * yr ** (1.0 - s)
    m = round(abs(nu) - 0.5)
    if abs(nu) == m + 0.5:      # half-integer order: Horner in q (module docstring)
        k, n = np.arange(m + 1), np.arange(1.0, nmax + 1.0)[:, None]
        polyval = np.polynomial.polynomial.polyval    # loaded on first use, not at import
        coef = np.vstack([0.0 * k, bessel_k_half_coeffs(m) * sig[1:, None] * n ** (s - 1.0 - k)])
        P = polyval(np.exp(2j * math.pi * (xr + 1j * yr)), coef)     # row k: P_k(q)
        return c + 4.0 * polyval(0.5 / (math.pi * yr), P.real, tensor=False)
    acc = np.zeros_like(yr)
    for n in range(1, nmax + 1):
        kv = bessel_k_array(nu, 2.0 * math.pi * n * yr)
        acc += float(n) ** (s - 0.5) * sig[n] * kv * np.cos(2.0 * math.pi * n * xr)
    return c + 8.0 * np.sqrt(yr) * acc


def epstein_star_theta(x: float, y: float, s: float, tol: float = 1e-13) -> tuple[float, float]:
    """E*(z,s) through the incomplete-gamma (theta-split) lattice sum.

    Returns (value, tail_bound).  Tail bound: terms with pi Q(v) > X
    contribute at most (4 + 2 sqrt(X)) e^{-X} (two incomplete-gamma
    weights <= 2 e^{-x} each for x >= 8, ellipse-rim count ~ sqrt(X)).
    z is SL2(Z)-reduced first: the sum is invariant, and the enumeration
    below costs ~ y^{-1/2}.  Points of F pass through unchanged.
    """
    _check_s_not_pole(s)
    xr, yr, _, _ = sl2z_reduce(np.array([x], float), np.array([y], float))
    x, y = float(xr[0]), float(yr[0])
    X = max(12.0, math.log(1.0 / tol) + 6.0)
    while (4.0 + 2.0 * math.sqrt(X)) * math.exp(-X) > tol:
        X += 2.0
    R = X / math.pi
    # enumerate Q(m,n) = |mz+n|^2 / y <= R
    M = int(math.floor(math.sqrt(R / y))) + 1
    qs = []
    for m in range(-M, M + 1):
        # (mx+n)^2 <= R y - m^2 y^2
        rem = R * y - m * m * y * y
        if rem < 0:
            continue
        half = math.sqrt(rem)
        nlo = math.ceil(-m * x - half)
        nhi = math.floor(-m * x + half)
        for n in range(nlo, nhi + 1):
            if m == 0 and n == 0:
                continue
            qs.append(((m * x + n) ** 2 + (m * y) ** 2) / y)
    q = np.array(qs)
    xq = math.pi * q
    val = (1.0 / (s - 1.0) - 1.0 / s
           + float(np.sum(xq ** (-s) * upper_gamma(s, xq)))
           + float(np.sum(xq ** (s - 1.0) * upper_gamma(1.0 - s, xq))))
    return val, (4.0 + 2.0 * math.sqrt(X)) * math.exp(-X)


def _star_to_plain(s: float) -> float:
    # E = pi^s / Gamma(s) * E*
    return math.pi**s / math.gamma(s)


def epstein_lattice(z: UHPoint, s: float, tol: float = 1e-12) -> EvalResult:
    """Lattice sum sum' y^s/|mz+n|^(2s) for s > 1, to absolute tol."""
    if s <= 1.0:
        raise ValueError("epstein_lattice needs s > 1 (no continuation here)")
    star, bound = epstein_star_theta(z.x, z.y, s, tol=tol * 0.5)
    f = _star_to_plain(s)
    return EvalResult(f * star, abs(f) * bound + 1e-13 * abs(f * star))


def epstein_lattice_raw(z: UHPoint, s: float, M: int) -> float:
    """Bare truncated sum over 0 < max(|m|,|n|) <= M (test oracle)."""
    if s <= 1.0:
        raise ValueError("raw lattice sum needs s > 1")
    ms = np.arange(-M, M + 1)
    acc = 0.0
    for m in ms:
        ns = np.arange(-M, M + 1)
        if m == 0:
            ns = ns[ns != 0]
        w2 = (m * z.x + ns) ** 2 + (m * z.y) ** 2
        acc += float(np.sum(w2 ** (-s)))
    return z.y**s * acc


def epstein_completed(z: UHPoint, s: float) -> EvalResult:
    """Completed E*(z,s), valid for all real |s| <= 10 off the poles."""
    if abs(s) > 10.0:
        raise ValueError("|s| <= 10 supported")
    _check_s_not_pole(s)
    v = float(epstein_star_array(np.array([z.x]), np.array([z.y]), s)[0])
    return EvalResult(v, 1e-12 * (1.0 + abs(v)))


def richardson_limit(f, h0: float, levels: int = 3):
    """Extrapolate f(h) -> f(0) from the ladder h0, h0/2, h0/4, ...,
    assuming an expansion f(h) = L + c1 h + c2 h^2 + ...; returns
    (L, spread)."""
    hs = [h0 / 2.0**j for j in range(levels)]
    rows = [[f(h) for h in hs]]
    for k in range(1, levels):
        prev = rows[-1]
        rows.append([
            (2.0**k * prev[i + 1] - prev[i]) / (2.0**k - 1.0)
            for i in range(len(prev) - 1)
        ])
    last = rows[-1][0]
    spread = abs(rows[-2][-1] - last) if levels > 1 else float("nan")
    return last, spread


def epstein_residue(z: UHPoint) -> EvalResult:
    """Residue of E* at s = 1 by Richardson extrapolation of (s-1)E*."""
    def f(h):
        return h * float(epstein_star_array(np.array([z.x]), np.array([z.y]), 1.0 + h)[0])

    val, spread = richardson_limit(f, 0.01, levels=3)
    return EvalResult(val, 10.0 * spread + 1e-9)


def kronecker_limit_check(z: UHPoint) -> tuple[float, float, float]:
    """First limit formula: compare

        lhs = lim_{s->1} [E(z,s) - pi/(s-1)]       (numeric, Richardson)
        rhs = -pi log y + 2 pi (gamma - log 2) - 4 pi log|eta(z)|

    Returns (lhs, rhs, lhs - rhs)."""
    from .modular import log_abs_eta
    from .specialfn import EULER_GAMMA

    def f(h):
        s = 1.0 + h
        e_star = float(epstein_star_array(np.array([z.x]), np.array([z.y]), s)[0])
        return _star_to_plain(s) * e_star - math.pi / h

    lhs, _ = richardson_limit(f, 0.01, levels=4)
    rhs = (-math.pi * math.log(z.y)
           + 2.0 * math.pi * (EULER_GAMMA - math.log(2.0))
           - 4.0 * math.pi * log_abs_eta(z.x, z.y))
    return lhs, rhs, lhs - rhs
