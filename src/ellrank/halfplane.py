"""Upper half-plane bookkeeping: fundamental-domain reduction for
SL2(Z) and height maximization over Gamma_0(L) extended by the
Atkin-Lehner involutions.

All kernels are vectorized over flat numpy arrays of points; matrices
are tracked as exact int64 entries.  Height maximization works by
repeatedly extracting short vectors of the rank-2 lattice
Z*(L*w) + Z*Q (one lattice per Atkin-Lehner class Q) with Lagrange
reduction: an element g with lower row (L c, Q d) and det Q improves
Im by the factor Q/|L c w + Q d|^2, so improving moves correspond
exactly to lattice vectors of norm^2 below Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import divisors, is_squarefree


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


def sl2z_reduce(x, y, max_iter: int = 600):
    """Reduce points to the standard fundamental domain of SL2(Z).

    Returns (xr, yr, (a, b, c, d), loghalf) with [[a,b],[c,d]] integral
    of det 1 mapping the input points to the reduced ones, and
    loghalf = sum of log|w| over the inversion steps, accumulated
    incrementally (stable even for very deep starting points).  For a
    weight-k form F this gives log|F(w_in)| = log|F(w_red)| - k*loghalf.
    """
    x = np.array(x, dtype=float, copy=True)
    y = np.array(y, dtype=float, copy=True)
    n = x.shape
    a = np.ones(n, dtype=np.int64); b = np.zeros(n, dtype=np.int64)
    c = np.zeros(n, dtype=np.int64); d = np.ones(n, dtype=np.int64)
    loghalf = np.zeros(n, dtype=float)
    for _ in range(max_iter):
        k = np.rint(x).astype(np.int64)
        x -= k
        a -= k * c
        b -= k * d
        r2 = x * x + y * y
        m = r2 < 1.0 - 1e-15
        if not m.any():
            break
        # z -> -1/z on the mask
        xm, ym, rm = x[m], y[m], r2[m]
        loghalf[m] += 0.5 * np.log(rm)
        x[m] = -xm / rm
        y[m] = ym / rm
        am, bm = a[m].copy(), b[m].copy()
        a[m], b[m] = -c[m], -d[m]
        c[m], d[m] = am, bm
    else:
        raise RuntimeError("sl2z_reduce did not converge")
    return x, y, (a, b, c, d), loghalf


def ext_gcd_array(p, q):
    """Vectorized extended Euclid: returns (g, s, t) with s*p + t*q = g >= 0."""
    p = np.array(p, dtype=np.int64, copy=True)
    q = np.array(q, dtype=np.int64, copy=True)
    s0 = np.ones_like(p); s1 = np.zeros_like(p)
    t0 = np.zeros_like(p); t1 = np.ones_like(p)
    for _ in range(128):
        m = q != 0
        if not m.any():
            break
        k = np.zeros_like(p)
        k[m] = p[m] // q[m]
        p, q = np.where(m, q, p), np.where(m, p - k * q, q)
        s0, s1 = np.where(m, s1, s0), np.where(m, s0 - k * s1, s1)
        t0, t1 = np.where(m, t1, t0), np.where(m, t0 - k * t1, t1)
    neg = p < 0
    p = np.where(neg, -p, p)
    s0 = np.where(neg, -s0, s0)
    t0 = np.where(neg, -t0, t0)
    return p, s0, t0


def _lagrange_reduce(u_re, u_im, v_re, v_im):
    """Lagrange-reduce the rank-2 lattice basis (u, v) over the reals.

    Returns coefficient matrices (cu, du, cv, dv): the reduced basis is
    u' = cu*u0 + du*v0, v' = cv*u0 + dv*v0 in terms of the original one.
    """
    cu = np.ones_like(u_re, dtype=np.int64); du = np.zeros_like(cu)
    cv = np.zeros_like(cu); dv = np.ones_like(cu)
    ur, ui, vr, vi = u_re.copy(), u_im.copy(), v_re.copy(), v_im.copy()
    for _ in range(120):
        nu = ur * ur + ui * ui
        mu = np.rint((vr * ur + vi * ui) / np.where(nu > 0, nu, 1.0)).astype(np.int64)
        vr -= mu * ur
        vi -= mu * ui
        cv -= mu * cu
        dv -= mu * du
        swap = vr * vr + vi * vi < nu - 1e-18 * nu
        if not swap.any():
            break
        ur[swap], vr[swap] = vr[swap], ur[swap].copy()
        ui[swap], vi[swap] = vi[swap], ui[swap].copy()
        cu[swap], cv[swap] = cv[swap], cu[swap].copy()
        du[swap], dv[swap] = dv[swap], du[swap].copy()
    return cu, du, cv, dv


# combination window for short-vector candidates
_COMBOS = [(al, be) for al in range(-2, 3) for be in range(-2, 3) if (al, be) != (0, 0)]


def boost_array(level: int, x, y, max_iter: int = 220):
    """Maximize Im over the orbit of Gamma_0(level) joined with all its
    Atkin-Lehner involutions w_Q.

    Returns (xb, yb, (A, B, C, D), detQ): integral matrices with
    det = detQ (an exact divisor of the level) mapping input points to
    the boosted ones.
    """
    if not is_squarefree(level):
        raise ValueError("boosting implemented for square-free level only")
    qs = divisors(level)
    L = level
    x = np.array(x, dtype=float, copy=True)
    y = np.array(y, dtype=float, copy=True)
    n = x.shape[0]
    A = np.ones(n, dtype=np.int64); B = np.zeros(n, dtype=np.int64)
    C = np.zeros(n, dtype=np.int64); D = np.ones(n, dtype=np.int64)
    detQ = np.ones(n, dtype=np.int64)

    for _ in range(max_iter):
        k = np.rint(x).astype(np.int64)
        x -= k
        A -= k * C
        B -= k * D

        best_gain = np.full(n, 1.0 - 1e-12)   # |v|^2 / Q, improve when < this
        best_c = np.zeros(n, dtype=np.int64)
        best_d = np.zeros(n, dtype=np.int64)
        best_q = np.zeros(n, dtype=np.int64)

        for Q in qs:
            lfac = L // Q
            cu, du, cv, dv = _lagrange_reduce(L * x, L * y, np.full(n, float(Q)), np.zeros(n))
            for al, be in _COMBOS:
                cc = al * cu + be * cv
                dd = al * du + be * dv
                g = np.gcd(cc, dd)
                g = np.where(g == 0, 1, g)
                cc = cc // g
                dd = dd // g
                vr = L * cc * x + Q * dd
                vi = L * cc * y
                ratio = (vr * vr + vi * vi) / Q
                ok = np.gcd(Q * dd, lfac * cc) == 1
                better = ok & (ratio < best_gain)
                if better.any():
                    best_gain[better] = ratio[better]
                    best_c[better] = cc[better]
                    best_d[better] = dd[better]
                    best_q[better] = Q
        move = best_q != 0
        if not move.any():
            break
        # complete (L c, Q d) to [Q a, b; L c, Q d] of det Q:
        #   Q a d - (L/Q) c b = 1
        qm = best_q[move]
        cm = best_c[move]
        dm = best_d[move]
        lf = (L // qm)
        g, s, t = ext_gcd_array(qm * dm, lf * cm)
        # s*(Q d) + t*((L/Q) c) = 1  ->  a = s, b = -t
        am = s
        bm = -t
        Ma = qm * am; Mb = bm; Mc = L * cm; Md = qm * dm
        # apply to points
        xm, ym = x[move], y[move]
        fa, fb, fc, fd = Ma.astype(float), Mb.astype(float), Mc.astype(float), Md.astype(float)
        den = (fc * xm + fd) ** 2 + (fc * ym) ** 2
        x[move] = ((fa * xm + fb) * (fc * xm + fd) + fa * fc * ym * ym) / den
        y[move] = qm * ym / den
        # compose matrices and strip content
        A2 = Ma * A[move] + Mb * C[move]
        B2 = Ma * B[move] + Mb * D[move]
        C2 = Mc * A[move] + Md * C[move]
        D2 = Mc * B[move] + Md * D[move]
        cont = np.gcd(np.gcd(np.abs(A2), np.abs(B2)), np.gcd(np.abs(C2), np.abs(D2)))
        cont = np.where(cont == 0, 1, cont)
        A[move] = A2 // cont
        B[move] = B2 // cont
        C[move] = C2 // cont
        D[move] = D2 // cont
        detQ[move] = qm * detQ[move] // (cont * cont)
    else:
        raise RuntimeError("boost_array did not converge")

    k = np.rint(x).astype(np.int64)
    x -= k
    A -= k * C
    B -= k * D
    return x, y, (A, B, C, D), detQ
