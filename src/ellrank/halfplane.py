"""Upper half-plane bookkeeping: fundamental-domain reduction for
SL2(Z), the extended gcd and Hermite forms of integer matrices, and the
Atkin-Lehner cusp matrix that lifts a point to height sqrt(3)/(2L).

The point kernels are vectorized over flat numpy arrays.  For a point
z = gamma w with w in the fundamental domain F and gamma = [a b; c d],
the cusp gamma(infinity) = a/c is W_Q(infinity) for Q = L / gcd(c, L)
(L square-free), and the Hermite form U = [1 beta; 0 Q] of
diag(Q, 1) gamma is M gamma for an M in W_Q Gamma_0(L) (Cremona,
Algorithms for Modular Elliptic Curves; Cohen, GTM 138).  So
M z = (w + beta) / Q, with one exact integer matrix per point and no
search over the orbit.  The X_0(N) sweep in `domain` uses the same
matrices, one per coset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import is_squarefree

Y_MIN = math.sqrt(np.finfo(float).tiny)     # the lowest height sl2z_reduce takes


@dataclass(frozen=True)
class UHPoint:
    x: float
    y: float

    def __post_init__(self):
        if not (self.y > 0):
            raise ValueError("UHPoint needs y > 0")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def apply_moebius(a, b, c, d, x, y):
    """Image of x+iy under the integral matrix [[a,b],[c,d]] (any det > 0)."""
    a = np.asarray(a, float); b = np.asarray(b, float)
    c = np.asarray(c, float); d = np.asarray(d, float)
    det = a * d - b * c
    den = (c * x + d) ** 2 + (c * y) ** 2
    xn = ((a * x + b) * (c * x + d) + a * c * y * y) / den
    yn = det * y / den
    return xn, yn


def sl2z_reduce(x, y):
    """Reduce points to the standard fundamental domain of SL2(Z).

    Returns (xr, yr, (a, b, c, d)) with [[a,b],[c,d]] integral of det 1
    mapping the input points to the reduced ones.  The translations run in
    floating point, so every finite x reduces.  A point whose matrix needs
    a translation of 2^62 or more gets the zero matrix instead, which the
    readers of the matrix refuse (det != 1).  Heights below Y_MIN raise
    ValueError: there |z|^2 can underflow to 0.
    """
    x = np.array(x, dtype=float, copy=True)
    y = np.array(y, dtype=float, copy=True)
    if y.size and not y.min() >= Y_MIN:
        raise ValueError(f"Im z below {Y_MIN:.3g} (|z|^2 underflows)")
    n = x.shape
    a = np.ones(n, dtype=np.int64); b = np.zeros(n, dtype=np.int64)
    c = np.zeros(n, dtype=np.int64); d = np.ones(n, dtype=np.int64)
    wide = np.zeros(n, dtype=bool)
    for _ in range(600):
        kf = np.rint(x)
        x -= kf
        if np.abs(kf).max(initial=0.0) >= 2.0**62:      # beyond int64's reach
            wide |= np.abs(kf) >= 2.0**62
            kf[wide] = 0.0
        k = kf.astype(np.int64)
        a -= k * c
        b -= k * d
        r2 = x * x + y * y
        m = r2 < 1.0 - 1e-15
        if not m.any():
            break
        # z -> -1/z on the mask
        xm, ym, rm = x[m], y[m], r2[m]
        x[m] = -xm / rm
        y[m] = ym / rm
        am, bm = a[m].copy(), b[m].copy()
        a[m], b[m] = -c[m], -d[m]
        c[m], d[m] = am, bm
    else:
        raise RuntimeError("sl2z_reduce did not converge")
    for e in (a, b, c, d):
        e[wide] = 0
    return x, y, (a, b, c, d)


def ext_gcd(p: int, q: int) -> tuple[int, int, int]:
    """Extended Euclid on Python integers: (g, s, t) with s p + t q = g >= 0."""
    if q == 0:
        return (p, 1, 0) if p >= 0 else (-p, -1, 0)
    g, s, t = ext_gcd(q, p % q)
    return g, t, s - (p // q) * t


def hermite(m: int, a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """(alpha, beta, delta) of the Hermite form U = [alpha beta; 0 delta]
    of diag(m, 1) [a b; c d] (det 1): sigma U = diag(m, 1) [a b; c d]
    with sigma in SL2(Z), alpha delta = m and 0 <= beta < delta."""
    alpha, s, t = ext_gcd(m * a, c)      # s m a + t c = alpha
    delta = m // alpha
    return alpha, (s * m * b + t * d) % delta, delta


def boost_array(level: int, x, y):
    """Move each point by an Atkin-Lehner matrix of the square-free level
    to height at least sqrt(3) / (2 level).

    With w = gamma^{-1} z the SL2(Z)-reduced point, gamma = [a b; c d],
    Q = level / gcd(c, level) and U = [1 beta; 0 Q] the Hermite form of
    diag(Q, 1) gamma, the matrix M = U gamma^{-1} lies in
    W_Q Gamma_0(level) and M z = (w + beta) / Q, at height
    Im(w) / Q >= sqrt(3) / (2 level).  That floor is all the q-series
    needs; the result is not the top of the orbit.

    Returns (xb, yb, (A, B, C, D), Q): int64 arrays of the integral
    matrices M = [A B; C D] of det Q, mapping the input points to the
    boosted ones.  M is composed in Python integers, so an entry beyond
    int64 raises OverflowError instead of wrapping; so does a reduction
    matrix that sl2z_reduce could not hold in int64 (seen as det != 1:
    the zero matrix of a translation past 2^62, or a wrapped product at
    heights below about 1e-38).
    """
    if not is_squarefree(level):
        raise ValueError("boosting implemented for square-free level only")
    xr, yr, g = sl2z_reduce(x, y)
    cols = np.empty((6,) + xr.shape, dtype=np.int64)
    for i, (a, b, c, d) in enumerate(zip(*(e.tolist() for e in g))):
        if a * d - b * c != 1:
            raise OverflowError("SL2(Z) reduction matrix overflowed int64")
        # g = [a b; c d] maps z to w, so gamma = [d -b; -c a]
        Q = level // math.gcd(c, level)
        _, beta, _ = hermite(Q, d, -b, -c, a)
        cols[:, i] = (a + beta * c, b + beta * d, Q * c, Q * d, beta, Q)
    A, B, C, D, beta, Q = cols
    return (xr + beta) / Q, yr / Q, (A, B, C, D), Q
