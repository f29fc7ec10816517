"""Real-argument special functions with explicit error bookkeeping.

Double precision throughout.  Each public scalar operation returns an
EvalResult whose abs_error_bound dominates the truncation estimate of
the underlying scheme plus a rounding allowance; no interval arithmetic.

    zeta           Borwein's accelerated alternating series, classical
                   functional equation for s < 1/2
    zeta_depleted  zeta with Euler factors at p | N removed
    cosh_rule      trapezoid rule on K_nu(x) = int_0^inf exp(-x cosh t)
                   cosh(nu t) dt, its step following the integrand's
                   width 1/sqrt(x) at t = 0 (exponential convergence,
                   Trefethen & Weideman 2014); bessel_k_array, xk1_fast
                   and E*'s Fourier sum read K_nu from it
    gauss_panels   the package's one composite Gauss-Legendre panel rule
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .arith import prime_divisors

EULER_GAMMA = 0.57721566490153286061


@dataclass(frozen=True)
class EvalResult:
    value: object            # float or complex
    abs_error_bound: float

    def __post_init__(self):
        if not math.isfinite(self.abs_error_bound):
            raise ValueError("error bound must be finite")


class PoleError(ValueError):
    """Argument at (or too near) a pole of the requested function."""


_BORWEIN_N = 50


@cache
def _borwein_d() -> list[float]:
    """d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), n = _BORWEIN_N."""
    n = _BORWEIN_N
    d = []
    acc = 0
    for i in range(n + 1):
        acc += (
            math.factorial(n + i - 1) * 4**i
            // (math.factorial(n - i) * math.factorial(2 * i))
        )
        d.append(float(n * acc))
    return d


def _zeta_raw(s: float) -> float:
    if s == 0.0:
        return -0.5
    if s < 0.5:
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        return (
            2.0**s
            * math.pi ** (s - 1.0)
            * math.sin(math.pi * s / 2.0)
            * math.gamma(1.0 - s)
            * _zeta_raw(1.0 - s)
        )
    d = _borwein_d()
    n = _BORWEIN_N
    dn = d[n]
    acc = 0.0
    for k in range(n):
        term = (d[k] - dn) / (k + 1.0) ** s
        acc = acc - term if k % 2 else acc + term
    return -acc / (dn * (1.0 - 2.0 ** (1.0 - s)))


def zeta(s: float) -> EvalResult:
    """Riemann zeta for real s in [-10, 50], s != 1; absolute ~1e-12."""
    if not -10.0 <= s <= 50.0:
        raise ValueError("zeta supported on [-10, 50]")
    if s == 1.0:
        raise PoleError("zeta pole at s = 1")
    v = _zeta_raw(s)
    # Borwein error 3/(3+sqrt 8)^n / |1-2^(1-s)|, plus rounding
    tr = 3.0 / (3.0 + math.sqrt(8.0)) ** _BORWEIN_N
    sc = abs(1.0 - 2.0 ** (1.0 - min(abs(s), 60.0))) or 1e-3
    return EvalResult(v, tr / sc + 1e-14 * (1.0 + abs(v)))


def euler_depletion(s: float, N: int) -> float:
    """prod_{p | N} (1 - p^-s), the Euler factors at p | N; 1 for N = 1."""
    return math.prod(1.0 - float(p) ** (-s) for p in prime_divisors(N))


def zeta_depleted(s: float, N: int) -> EvalResult:
    """zeta_N(s) = zeta(s) * euler_depletion(s, N)."""
    base = zeta(s)
    fac = euler_depletion(s, N)
    return EvalResult(base.value * fac, base.abs_error_bound * abs(fac) + 1e-15 * abs(base.value * fac))


def completed_zeta(v: float) -> float:
    """xi(v) = pi^(-v/2) Gamma(v/2) zeta(v), computed on the reflection-
    stable side; exact functional equation xi(v) = xi(1-v).

    Poles at v = 0, 1 are rejected.
    """
    if v in (0.0, 1.0):
        raise PoleError("completed zeta pole at v in {0, 1}")
    if v < 0.5:
        v = 1.0 - v
    return math.pi ** (-v / 2.0) * math.gamma(v / 2.0) * _zeta_raw(v)


# --------------------------------------------------------------- quadrature

@cache
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def gauss_panels(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule with `order`
    nodes on each panel [edges[i], edges[i+1]], panel after panel."""
    gx, gw = _legendre(order)
    e = np.asarray(edges, dtype=float)
    mid, half = 0.5 * (e[1:] + e[:-1]), 0.5 * (e[1:] - e[:-1])
    return (mid[:, None] + half[:, None] * gx).ravel(), (half[:, None] * gw).ravel()


# ----------------------------------------------------------------- Bessel K

def cosh_rule(nu: float, xmin: float, xmax: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w of the trapezoid rule K_nu(x) ~ sum_t w_t
    exp(-x cosh t) for every x in [xmin, xmax].

    T is chosen so the integrand at the endpoint is below 1e-19 times
    the peak at xmin, and so at every larger x; the node count follows.
    The step is min(0.15, 0.5/sqrt(xmax)), xmax taken at most 745: above
    it every exp(-x cosh t) underflows to 0, whatever the step.
    """
    nu = abs(nu)
    # endpoint: x cosh T - nu T >= log-scale + 44
    T = 3.0
    for _ in range(40):
        target = (44.0 + nu * T + max(0.0, -math.log(xmin))) / xmin
        T, Tp = (math.asinh(target) if target > 3 else 3.0), T
        if abs(T - Tp) < 1e-9:
            break
    h = min(0.15, 0.5 / math.sqrt(min(xmax, 745.0)))
    t = np.arange(math.ceil(T / h) + 1) * h
    w = h * np.cosh(nu * t)
    w[[0, -1]] *= 0.5
    return t, w


def bessel_k_half_coeffs(m: int) -> np.ndarray:
    """c_k = (m+k)! / (k! (m-k)! 2^k), k = 0..m, of the closed form
    K_{m+1/2}(x) = sqrt(pi/2x) e^{-x} sum_k c_k x^{-k}."""
    f = math.factorial
    return np.array([f(m + k) / (f(k) * f(m - k) * 2.0**k) for k in range(m + 1)])


def bessel_k_array(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized K_nu over a positive array (NaN refused, +inf gives 0):
    one cosh_rule per octave of x, so each octave's endpoint and step stay
    sharp."""
    return _bessel_k_orders((nu,), x)[0]


def _bessel_k_orders(nus, x) -> list[np.ndarray]:
    """bessel_k_array for each order in nus, bit for bit, with one
    exp(-x cosh t) matrix per octave: cosh_rule's step depends on the
    octave alone, so every order's nodes are a prefix of the longest."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError("bessel_k needs x > 0 (not NaN)")
    if any(abs(nu) > 10.5 for nu in nus):
        raise ValueError("bessel_k supported for |nu| <= 10.5")
    outs = [np.empty_like(x) for _ in nus]
    octs = np.floor(np.log2(np.minimum(x, 1024.0))).astype(int)    # one batch from 1024 up
    lowest = octs.min(initial=0)
    for o in np.flatnonzero(np.bincount(octs.ravel() - lowest)) + lowest:
        m = octs == o
        xm = x[m]
        rules = [cosh_rule(nu, float(xm.min()), float(xm.max())) for nu in nus]
        t = max((t for t, _ in rules), key=len)
        e = np.exp(-xm[:, None] * np.cosh(t))
        for out, (_, w) in zip(outs, rules):
            out[m] = e[:, :len(w)] @ w
        del e           # two octaves' matrices at once would set the memory peak
    return outs


@cache
def _xk1_table():
    # h(t) = x K_1(x) e^x on a log grid; h' in log-x from (xK1)' = -xK0
    lo, hi, n = math.log(0.04), math.log(600.0), 9000
    t = np.linspace(lo, hi, n)
    x = np.exp(t)
    k1, k0 = _bessel_k_orders((1.0, 0.0), x)
    h = x * k1 * np.exp(x)
    # dh/dt = x * d/dx [x K1 e^x] = x e^x (x K1 - x K0) = x^2 e^x (K1 - K0)
    dh = x * x * np.exp(x) * (k1 - k0)
    return lo, hi, n, t, h, dh


def xk1_fast(x: np.ndarray) -> np.ndarray:
    """x*K_1(x): one cosh_rule below 0.05; cubic-Hermite interpolation
    on a precomputed log grid up to 600 (about 4e-14 relative, measured);
    the two-term asymptotic sqrt(pi x/2) e^-x (1 + 3/(8x)) below 740
    (at most 3.3e-7 relative while the value is a normal double, up to
    x ~ 705); zero from 740 on, +inf included."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError("xk1_fast needs x > 0 (not NaN)")
    lo, hi, n, t, h, dh = _xk1_table()
    out = np.zeros_like(x)
    big = (x > 600.0) & (x < 740.0)
    if big.any():
        xb = x[big]
        out[big] = np.sqrt(math.pi * xb / 2.0) * np.exp(-xb) * (1.0 + 3.0 / (8.0 * xb))
    inside = (x >= 0.05) & (x <= 600.0)
    if inside.any():
        xi = x[inside]
        ti = np.log(xi)
        step = (hi - lo) / (n - 1)
        idx = np.clip(((ti - lo) / step).astype(int), 0, n - 2)
        u = (ti - t[idx]) / step
        h0, h1 = h[idx], h[idx + 1]
        d0, d1 = dh[idx] * step, dh[idx + 1] * step
        u2, u3 = u * u, u * u * u
        val = ((2 * u3 - 3 * u2 + 1) * h0 + (u3 - 2 * u2 + u) * d0
               + (-2 * u3 + 3 * u2) * h1 + (u3 - u2) * d1)
        out[inside] = val * np.exp(-xi)
    low = x < 0.05
    if low.any():
        xl = x[low]
        t, w = cosh_rule(1.0, float(xl.min()), float(xl.max()))
        out[low] = xl * (np.exp(-xl[:, None] * np.cosh(t)) @ w)
    return out


# ------------------------------------------------ upper incomplete gamma

def upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) = int_x^inf t^(a-1) e^-t dt for real a (|a| <= 12), x > 0.

    Continued fraction (modified Lentz) for x >= max(1.5, a + 1), valid
    for any real a but losing digits below x = a; below that, the
    lower-gamma series (at a parameter lifted above 1, followed by
    downward recursion Gamma(a, x) = (Gamma(a+1, x) - x^a e^-x)/a).
    """
    x = np.asarray(x, dtype=float)
    if not (np.all(x > 0) and np.isfinite(x).all()):
        raise ValueError("upper_gamma needs finite x > 0 (not NaN or inf)")
    out = np.empty_like(x)
    hi = x >= max(1.5, a + 1.0)
    if np.any(hi):
        out[hi] = _upper_gamma_cf(a, x[hi])
    lo = ~hi
    if np.any(lo):
        out[lo] = _upper_gamma_series(a, x[lo])
    return out


def _upper_gamma_cf(a: float, x: np.ndarray) -> np.ndarray:
    # Gamma(a,x) = e^-x x^a / (x + 1 - a - 1(1-a)/(x + 3 - a - 2(2-a)/(...)))
    tiny = 1e-300
    b0 = x + 1.0 - a
    c = np.full_like(x, 1e300)
    d = 1.0 / np.where(np.abs(b0) > tiny, b0, tiny)
    h, done = d.copy(), False
    for i in range(1, 200):
        an = -i * (i - a)
        b = x + 2.0 * i + 1.0 - a
        d = b + an * d
        d = 1.0 / np.where(np.abs(d) > tiny, d, tiny)
        c = b + an / c
        c = np.where(np.abs(c) > tiny, c, tiny)
        delta = c * d
        h = h * delta
        done = done | (np.abs(delta - 1.0) < 4e-16)     # 2 ulp, then latched
        if np.all(done):
            break
    else:
        raise RuntimeError(f"upper_gamma continued fraction did not converge at a = {a}")
    with np.errstate(over="ignore"):
        pref = np.exp(-x + a * np.log(x))
    return pref * h


def _upper_gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    m = 0
    ah = a
    while ah <= 1.0:
        ah += 1.0
        m += 1
    # lower gamma series at ah in (1, 2]
    term = np.full_like(x, 1.0 / ah)
    acc = term.copy()
    for n in range(1, 300):
        term = term * x / (ah + n)
        acc += term
        if np.all(term < 1e-18 * acc):
            break
    lower = np.exp(-x + ah * np.log(x)) * acc
    g = math.gamma(ah) - lower
    # downward recursion to a; Gamma(0, x) = E1(x) needs its own series
    for j in range(1, m + 1):
        aj = ah - j
        if aj == 0.0:
            g = _exp_integral_e1(x)
        else:
            g = (g - np.exp(-x + aj * np.log(x))) / aj
    return g


def _exp_integral_e1(x: np.ndarray) -> np.ndarray:
    # E1(x) = -gamma - log x + sum_{k>=1} (-1)^(k+1) x^k/(k k!), for x < 1.5
    acc = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(1, 60):
        term = term * (-x) / k
        acc -= term / k
        if np.all(np.abs(term) < 1e-18):
            break
    return -EULER_GAMMA - np.log(x) + acc
