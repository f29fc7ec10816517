"""Rankin-Selberg convolution L-functions and their completions.

Series data:  L_{f,g}(s) = zeta_N(2s) sum a_n b_n n^{-(s+1)} is
repackaged as Phi(s) = G(s) sum_k C_k k^{-s} with

    G(s) = (4 pi^2 / N)^{-s} Gamma(s) Gamma(s+1),
    C_k  = sum_{d^2 m = k, (d,N)=1} a_m b_m / m     (k C_k exact integer).

Analytic continuation (approximate functional equation): G is the
Mellin transform of phi(u) = 2 sqrt(u) K_1(2 sqrt(u)), so with
w_s(k,T) = Int_T^inf phi(A k x) x^{s-1} dx (A = 4 pi^2/N) and a split
parameter X,

    Phi(s) = sum_k C_k [w_s(k, 1/X) + w_{1-s}(k, X)]
             - R1 [X^{1-s}/(1-s) + X^{-s}/s],

R1 the residue at s = 1 (zero unless f = g).  For f = g the functional
equation holds for Phi+ = Phi * A with A(s) = prod_{p|N}(1-p^-s)^-1;
the same sum with the A-convolved coefficients then has the unknown R1+
eliminated by solving the two-split linear system (X = 1, 2).  With
x = T e^v, w_s(k, T) = T^s Int_0^inf phi(A k T e^v) e^{s v} dv, taken by
panel Gauss-Legendre quadrature at 180 nodes v.  Once per (series,
split T) the coefficients are contracted against the 48-node Chebyshev
interpolation in log(A k T) of w / e^{-2 sqrt(A k T)} (_afe_row), so a
new s costs one 180-term dot product.  The sums stay within 1e-13
relative of the per-k quadrature (7.6e-15 measured at N = 11, 154, 165,
210); afe_weight gives the weights themselves.

Weight decay e^{-4 pi sqrt(k T / N)} pins the coefficient cutoff:
k_max ~ (42/(4 pi))^2 N / T, e.g. ~3500 for N = 154 at T = 1/2, well
inside the 4e4 cap.

Orders at the Tate points are not fitted: the factorisation
L(H^2, s) = zeta(s-1)^2 H(s-1) L_{f,g}(s-1) states them, and what is
measured is a leading coefficient with its bar, residue_at_1 for f = g
and afe_eval at s = 1 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import index_psi, is_squarefree, prime_divisors
from .curves import CoefficientTable
from .modular import CuspFormEval
from .specialfn import (EvalResult, PoleError, euler_depletion, gauss_panels, xk1_fast,
                        zeta_depleted)


_SERIES_CACHE: dict = {}


@dataclass
class RankinSeries:
    af: CoefficientTable
    bg: CoefficientTable
    N1: int
    N2: int
    N: int
    M: int
    U: np.ndarray              # U_k = k C_k, exact (int64)
    k_max: int
    isogenous: bool

    @classmethod
    def build(cls, fe: CuspFormEval, ge: CuspFormEval, k_max: int | None = None):
        """The series of (fe, ge) to k_max, built once per process: a later
        call with forms of the same levels and coefficients returns the
        same object.  U is read-only; callers must not mutate it."""
        af, bg = fe.table, ge.table
        N1, N2 = fe.level, ge.level
        N, M = math.lcm(N1, N2), math.gcd(N1, N2)
        if k_max is None:
            k_max = min(af.nmax, bg.nmax)
        if k_max > min(af.nmax, bg.nmax):
            raise ValueError("coefficient tables shorter than requested k_max")
        a = af.coefficients
        b = bg.coefficients
        key = (N1, N2, k_max, a.tobytes(), b.tobytes())
        if (rs := _SERIES_CACHE.get(key)) is not None:
            return rs
        U = np.zeros(k_max + 1, dtype=np.int64)
        d = 1
        while d * d <= k_max:
            if math.gcd(d, N) == 1:
                dd = d * d
                ms = np.arange(1, k_max // dd + 1)
                U[dd * ms] += dd * a[ms] * b[ms]
            d += 1
        nlim = min(af.nmax, bg.nmax) + 1
        iso = N1 == N2 and np.array_equal(a[:nlim], b[:nlim])
        U.flags.writeable = False
        rs = _SERIES_CACHE[key] = cls(af, bg, N1, N2, N, M, U, k_max, iso)
        return rs

    @property
    def A_const(self) -> float:
        return 4.0 * math.pi**2 / self.N


def G_factor(rs: RankinSeries, s: float) -> float:
    return rs.A_const ** (-s) * math.gamma(s) * math.gamma(s + 1.0)


def L_direct(rs: RankinSeries, s: float, n_max: int | None = None) -> EvalResult:
    """zeta_N(2s) sum_{n<=n_max} a_n b_n n^{-(s+1)}; certified tail from
    |a_n b_n| <= 4 n^{5/4}, certified from s = 1.3."""
    if s < 1.3:
        raise ValueError("no finite tail certificate below s = 1.3; use the AFE pipeline")
    if n_max is None:
        n_max = min(rs.af.nmax, rs.bg.nmax)
    ns = np.arange(1, n_max + 1, dtype=float)
    ab = rs.af.coefficients[1 : n_max + 1].astype(float) * rs.bg.coefficients[1 : n_max + 1].astype(float)
    zn = zeta_depleted(2.0 * s, rs.N)
    val = zn.value * float(np.sum(ab * ns ** (-(s + 1.0))))
    tail = abs(zn.value) * 4.0 * n_max ** (1.25 - s) / (s - 1.25)
    return EvalResult(val, tail + 1e-13 * abs(val))


# ------------------------------------------------------------ AFE weights

_V_PANELS = (0.0, 0.5, 1.0, 1.75, 2.75, 4.0, 5.5, 7.25, 9.25, 11.5, 14.0)
_V_GL = 18


def _weights_numeric_sigma(sigma: float, beta: np.ndarray) -> np.ndarray:
    """w-integral in the form Int_0^vmax phi(beta e^v) e^{sigma v} dv by
    Gauss-Legendre panels (the integrand is analytic with doubly
    exponential decay, but does not vanish at v = 0)."""
    v, w = gauss_panels(_V_PANELS, _V_GL)
    u = beta[:, None] * np.exp(v)[None, :]
    x = 2.0 * np.sqrt(u)
    phi = xk1_fast(x)
    integrand = phi * np.exp(sigma * v)[None, :]
    return integrand @ w


_W_NODES = 48       # Chebyshev nodes of the log-weight fit; 32 lose 6e-11


def _weights_interpolated(sigma: float, beta: np.ndarray) -> np.ndarray:
    """_weights_numeric_sigma at every beta (increasing, positive) from
    the quadrature at _W_NODES Chebyshev nodes in t = log beta over
    [beta[0], beta[-1]]: log w is analytic in t, and the fit stays
    within 2e-12 relative of the quadrature for sigma in [-1.75, 2.75]
    (1.4e-13 measured at N = 154, 165, 210).  Fewer betas than nodes are
    integrated directly.

    The coefficients come from the cosine sum at the first-kind nodes;
    np.polynomial.Chebyshev.interpolate builds its Vandermonde matrix by
    the three-term recurrence and reaches only 1.6e-12 here."""
    if len(beta) <= _W_NODES:
        return _weights_numeric_sigma(sigma, beta)
    t = np.log(beta)
    mid, half = 0.5 * (t[-1] + t[0]), 0.5 * (t[-1] - t[0])
    theta = np.pi * (np.arange(_W_NODES) + 0.5) / _W_NODES
    logw = np.log(_weights_numeric_sigma(sigma, np.exp(mid + half * np.cos(theta))))
    c = np.cos(np.outer(np.arange(_W_NODES), theta)) @ logw * (2.0 / _W_NODES)
    c[0] *= 0.5
    return np.exp(np.polynomial.chebyshev.chebval((t - mid) / half, c))


def _weight_envelope(rs: RankinSeries, k: int, T: float) -> float:
    """Bound on |C_k| times the AFE weight at k and split T: |C_k| <=
    4 k^(1/4) d(k), and the weight is below 2 e^{-4 pi sqrt(k T / N)}."""
    return 128.0 * k**0.75 * math.exp(-4.0 * math.pi * math.sqrt(k * T / rs.N))


def _k_effective(rs: RankinSeries, T: float) -> int:
    """Largest k whose weight envelope exceeds 1e-17 (beyond: zeros)."""
    k = 16
    while k < rs.k_max and _weight_envelope(rs, k, T) > 1e-17:
        k *= 2
    return min(rs.k_max, k)


def afe_weight(rs: RankinSeries, sigma: float, T: float) -> np.ndarray:
    """w_sigma(k, T) = Int_T^inf phi(A k x) x^{sigma-1} dx for k = 1..k_max.

    The per-k reference: log w is fitted at _W_NODES Chebyshev nodes in
    log(A k T) and the fit evaluated at every k (_weights_interpolated).
    Zero beyond k_eff.  Not cached; the AFE sums contract the
    coefficients instead (_afe_row)."""
    keff = _k_effective(rs, T)
    beta = rs.A_const * np.arange(1, keff + 1, dtype=float) * T
    w = T**sigma * _weights_interpolated(sigma, beta)
    if keff < rs.k_max:
        w = np.concatenate([w, np.zeros(rs.k_max - keff)])
    return w


_AFE_ROWS: dict = {}


def _afe_row(rs: RankinSeries, T: float, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, r) with sum_k C_k w_sigma(k, T) = T^sigma r @ e^{sigma v} for
    every sigma, C_k = coeffs[k] / k: the 180-node v-rule of
    _weights_numeric_sigma with the coefficients contracted into it,
    built once per process per (N, k_max, T) and coefficient content.

    Up to _W_NODES betas A k T are integrated directly.  Beyond, g =
    W_sigma / E with E(beta) = e^{-2 sqrt beta} (phi's decay) is
    interpolated at the Chebyshev nodes beta_j in tau = normalised log
    beta.  The interpolant is linear in the nodal values, so sum_k C_k
    E_k g(tau_k) = sum_j D_j g(tau_j) with D_j = (2/n) sum'_m cos(m
    theta_j) mu_m and moments mu_m = sum_k C_k E_k T_m(tau_k) from the
    three-term recurrence: O(k_eff) memory, no k_eff x n matrix."""
    key = (rs.N, rs.k_max, T, coeffs.tobytes())
    if (row := _AFE_ROWS.get(key)) is not None:
        return row
    keff = _k_effective(rs, T)
    ks = np.arange(1.0, keff + 1)
    beta = rs.A_const * T * ks
    D = coeffs[1:keff + 1] / ks
    if keff > _W_NODES:
        t = np.log(beta)
        mid, half = 0.5 * (t[-1] + t[0]), 0.5 * (t[-1] - t[0])
        tau = (t - mid) / half
        ce = D * np.exp(-2.0 * np.sqrt(beta))
        mu = np.empty(_W_NODES)
        prev, cur = np.ones_like(tau), tau
        mu[0], mu[1] = 0.5 * ce.sum(), ce @ tau
        for m in range(2, _W_NODES):
            prev, cur = cur, 2.0 * tau * cur - prev
            mu[m] = ce @ cur
        theta = np.pi * (np.arange(_W_NODES) + 0.5) / _W_NODES
        beta = np.exp(mid + half * np.cos(theta))
        D = (2.0 / _W_NODES) * (np.cos(np.outer(theta, np.arange(_W_NODES))) @ mu)
        D *= np.exp(2.0 * np.sqrt(beta))
    v, w = gauss_panels(_V_PANELS, _V_GL)
    phi = xk1_fast(2.0 * np.sqrt(beta[:, None] * np.exp(v)[None, :]))
    row = _AFE_ROWS[key] = v, (D @ phi) * w
    return row


def _smooth_support(N: int, k_max: int) -> list[int]:
    out = [1]
    for p in prime_divisors(N):
        new = []
        for j in out:
            v = j * p
            while v <= k_max:
                new.append(v)
                v *= p
        out.extend(new)
    return sorted(out)


def _plus_coefficients(rs: RankinSeries) -> np.ndarray:
    """U+_k = k C+_k for Phi+ = Phi * prod (1 - p^-s)^{-1} (f = g case)."""
    U = rs.U
    out = np.zeros_like(U)
    for j in _smooth_support(rs.N, rs.k_max):
        ks = np.arange(j, rs.k_max + 1, j)
        out[ks] += j * U[ks // j]
    return out


def _afe_sum(rs: RankinSeries, s: float, X: float, coeffs: np.ndarray) -> float:
    """sum_k C_k [w_s(k, 1/X) + w_{1-s}(k, X)], C_k = coeffs[k] / k."""
    out = 0.0
    for sigma, T in ((s, 1.0 / X), (1.0 - s, X)):
        v, r = _afe_row(rs, T, coeffs)
        out += T**sigma * float(r @ np.exp(sigma * v))
    return out


def pole_term(s: float, X: float) -> float:
    return X ** (1.0 - s) / (1.0 - s) + X ** (-s) / s


def _two_split(rs: RankinSeries, s: float, X1: float, X2: float) -> tuple[float, float]:
    """Phi+(s) and the residue R+ from the Phi+ sums V1, V2 at splits X1
    and X2 (f = g): each is Phi+(s) + R+ pole_term(s, X), so
    R+ = (V1 - V2) / (g1 - g2) and Phi+(s) = V1 - R+ g1."""
    plus = _plus_coefficients(rs)
    V1 = _afe_sum(rs, s, X1, plus)
    V2 = _afe_sum(rs, s, X2, plus)
    g1 = pole_term(s, X1)
    Rplus = (V1 - V2) / (g1 - pole_term(s, X2))
    return V1 - Rplus * g1, Rplus


def _afe_tail(rs: RankinSeries, split: float) -> float:
    """Weight envelope at k_max: the AFE's truncation error at this split."""
    return _weight_envelope(rs, rs.k_max, min(1.0 / split, split) * 0.5)


def afe_unsupported(rs: RankinSeries, split: float = 1.0) -> str | None:
    """Why afe_eval cannot continue Phi for this pair at this split, or None."""
    if rs.M != 1 and not rs.isogenous:
        return (f"the AFE needs coprime levels or an isogenous pair; levels "
                f"{rs.N1} and {rs.N2} share the factor {rs.M}")
    if (tail := _afe_tail(rs, split)) > 3e-8:
        return f"k_max={rs.k_max} too small for the AFE tail ({tail:.2g}) at level {rs.N}"
    return None


def afe_eval(rs: RankinSeries, s: float, split: float = 1.0) -> EvalResult:
    """Phi(s) by the smoothed two-sided sum.

    Certified band s in [-0.5, 1.5]; accepted up to 2.75 for the
    mandatory overlap gate against the direct pipeline.  Coprime levels
    (M = 1, entire Phi) or f = g (Phi+ machinery with the residue
    eliminated through splits X and 2X) are supported.
    """
    if not -0.5 <= s <= 2.75:
        raise ValueError("afe_eval supports s in [-0.5, 2.75]")
    if why := afe_unsupported(rs, split):
        raise ValueError(why)
    tail = _afe_tail(rs, split)
    if rs.isogenous:
        if s in (0.0, 1.0):
            raise PoleError("Phi has a pole at s in {0,1} for f = g")
        phi_plus, Rplus = _two_split(rs, s, split, 2.0 * split)
        val = phi_plus * euler_depletion(s, rs.N)
        return EvalResult(val, tail + 1e-11 * (abs(val) + abs(Rplus)))
    val = _afe_sum(rs, s, split, rs.U)
    return EvalResult(val, tail + 1e-12 * abs(val))


def residue_at_1(rs: RankinSeries) -> dict:
    """Res_{s=1} Phi for f = g, from the split-dependence of the AFE sum
    at s = 1/2 (the sum itself is entire; only the pole terms carry X).
    'spread' is the largest distance of the Phi+ residue between three
    split pairs; 'residue' is an EvalResult whose error is that spread
    times the Euler factors at p | N, as the residue is."""
    if not rs.isogenous:
        raise ValueError("residue extraction applies to f = g")
    vals = {X: _two_split(rs, 0.5, *X)[1] for X in ((1.0, 2.0), (1.0, 4.0), (1.5, 3.0))}
    Rplus = vals[(1.0, 4.0)]
    spread = max(abs(v - Rplus) for v in vals.values())
    fac = euler_depletion(1.0, rs.N)
    return {"residue": EvalResult(Rplus * fac, spread * fac), "spread": spread}


def bad_factor_H(rs: RankinSeries, s: float) -> float:
    """Ogg's ad hoc bad Euler factor H(s):

        p | M:                 1/((1 - c_p p^-s)(1 - c_p p^-(s+1))),
                               c_p = a_p b_p = +-1,
        p | one level only:    1/(1 - a_p b_p p^-(s+1) + p^(-1-2s)).
    """
    if not (is_squarefree(rs.N1) and is_squarefree(rs.N2)):
        raise ValueError("square-free levels required")
    out = 1.0
    for p in prime_divisors(rs.N):
        a_p, b_p = rs.af.a(p), rs.bg.a(p)
        if rs.M % p == 0:
            c = a_p * b_p
            if abs(c) != 1:
                raise ValueError(f"c_p must be +-1 at p={p}")
            if c == 1 and s == 0.0:
                raise PoleError(f"H(s) pole at s=0 from p={p}, c_p=+1")
            out /= (1.0 - c * float(p) ** (-s)) * (1.0 - c * float(p) ** (-(s + 1.0)))
        else:
            out /= 1.0 - a_p * b_p * float(p) ** (-(s + 1.0)) + float(p) ** (-1.0 - 2.0 * s)
    return out


def sym2_report(curve, pet: EvalResult, rs: RankinSeries, res: dict) -> dict:
    """Symmetric-square bookkeeping for one curve (square-free conductor):

      residue_ratio   Res_{s=1} Phi / (2 pi psi(N) (f,f)), an EvalResult
                      with the first-order bar of the residue and the
                      norm; the paper states sum_{d|N} mu(d)/d
      sym2_edge       H(1) * Res_{s=1} L_{f,f}, recorded, never asserted

    pet is the Petersson norm (f, f) at the curve's level, rs the Rankin
    series of (f, f) and res its residue_at_1.
    """
    if not is_squarefree(curve.conductor):
        raise ValueError("square-free conductor required")
    N = curve.conductor
    if not pet.value > 0:
        raise ValueError("(f,f) must be positive")
    scale = 2.0 * math.pi * index_psi(N) * pet.value
    ratio = res["residue"].value / scale
    ratio_err = (res["residue"].abs_error_bound / scale
                 + abs(ratio) * pet.abs_error_bound / pet.value)
    sym2_edge = bad_factor_H(rs, 1.0) * (res["residue"].value / G_factor(rs, 1.0))
    return {
        "level": N,
        "petersson_ff": pet.value,
        "petersson_err": pet.abs_error_bound,
        "residue_phi": res["residue"].value,
        "residue_spread": res["spread"],
        "residue_ratio": EvalResult(ratio, ratio_err),
        "sym2_edge": sym2_edge,
    }
