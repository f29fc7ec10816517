"""Upper half-plane bookkeeping: fundamental-domain reduction for
SL2(Z), the extended gcd and Hermite forms of integer matrices, and the
Atkin-Lehner cusp matrix that lifts a point to height sqrt(3)/(2L).

sl2z_reduce moves flat numpy arrays of points into the fundamental
domain F and returns the points only.  boost_array takes the same float
steps point by point and composes the exact integer matrix with them:
for z = gamma w with w in F and gamma = [a b; c d], the cusp
gamma(infinity) = a/c is W_Q(infinity) for Q = L / gcd(c, L)
(L square-free), and the Hermite form U = [1 beta; 0 Q] of
diag(Q, 1) gamma is M gamma for an M in W_Q Gamma_0(L) (Cremona,
Algorithms for Modular Elliptic Curves; Cohen, GTM 138).  So
M z = (w + beta) / Q, with no search over the orbit.  The X_0(N) sweep
in `domain` uses the same Hermite forms, one per coset.
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


def finite_points(name: str, x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays; ValueError, naming the kernel, for a NaN
    or infinite entry or a height below Y_MIN (|z|^2 underflows there)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"{name} needs finite points (got NaN or inf)")
    if y.size and not y.min() >= Y_MIN:
        raise ValueError(f"Im z below {Y_MIN:.3g} (|z|^2 underflows)")
    return x, y


def sl2z_reduce(x, y):
    """Reduce points to the standard fundamental domain of SL2(Z).

    Returns (xr, yr).  The translations run in floating point, so every
    finite x reduces; boost_array repeats these steps per point to
    compose the reduction matrix.  NaN, inf and heights below Y_MIN
    raise ValueError (finite_points).
    """
    x, y = (a.copy() for a in finite_points("sl2z_reduce", x, y))
    for _ in range(600):
        x -= np.rint(x)
        r2 = x * x + y * y
        m = r2 < 1.0 - 1e-15
        if not m.any():
            break
        # z -> -1/z on the mask
        rm = r2[m]
        x[m] = -x[m] / rm
        y[m] = y[m] / rm
    else:
        raise RuntimeError("sl2z_reduce did not converge")
    return x, y


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
    needs; the result is not the top of the orbit.  At level 1, Q = 1,
    beta = 0 and M is the reduction matrix.

    Returns (xb, yb, (A, B, C, D), Q): int64 arrays of the integral
    matrices M = [A B; C D] of det Q, mapping the input points to the
    boosted ones.  Each point is reduced by sl2z_reduce's float steps,
    so w equals sl2z_reduce's point bit for bit, while gamma^{-1} is
    composed alongside in Python integers; an entry of M beyond int64
    raises OverflowError when it is stored, instead of wrapping.
    """
    if not is_squarefree(level):
        raise ValueError("boosting implemented for square-free level only")
    x, y = finite_points("boost_array", x, y)
    xr, yr = np.empty_like(x), np.empty_like(y)
    cols = np.empty((6,) + x.shape, dtype=np.int64)
    for i, (u, v) in enumerate(zip(x.tolist(), y.tolist())):
        a, b, c, d = 1, 0, 0, 1         # [a b; c d] = gamma^{-1} maps z to w
        for _ in range(600):            # sl2z_reduce's steps on one point
            k = round(u)
            u -= k
            a, b = a - k * c, b - k * d
            r2 = u * u + v * v
            if not r2 < 1.0 - 1e-15:
                break
            u, v = -u / r2, v / r2
            a, b, c, d = -c, -d, a, b
        else:
            raise RuntimeError("sl2z_reduce did not converge")
        xr[i], yr[i] = u, v
        Q = level // math.gcd(c, level)
        _, beta, _ = hermite(Q, d, -b, -c, a)
        cols[:, i] = (a + beta * c, b + beta * d, Q * c, Q * d, beta, Q)
    A, B, C, D, beta, Q = cols
    return (xr + beta) / Q, yr / Q, (A, B, C, D), Q
