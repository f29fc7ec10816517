"""Weight-2 cusp forms from q-expansions, log|eta| and the modular
unit log|Delta_N|, the q-logarithm, and the summed cyclotomic q-logarithm.

Evaluation strategy for f(z) = sum a_n q^n at square-free level L: map
z by its Atkin-Lehner cusp matrix M in W_Q Gamma_0(L)
(halfplane.boost_array) to height at least sqrt(3)/(2L), run the
truncated q-series there, transport back through the weight-2
automorphy factor and the Atkin-Lehner eigenvalue eps(Q), the product
of -a_p over p | Q (Atkin-Lehner, Math. Ann. 185, 1970).
Truncation uses |a_n| <= 2n (Hasse plus divisor slack), so the tail
after M terms is below
2 e^{-2 pi y (M+1)} ((M+1)/(1-r) + r/(1-r)^2), r = e^{-2 pi y};
every form value is truncated below FORM_TOL.

The summed cyclotomic q-logarithm C = log|Delta_N| / 24 runs through the
Moebius factorisation log|Phi_N(X)| = sum_{d|N} mu(d) log|1 - X^{N/d}|,
whose q-expansion has the coefficients
c_k = sum_{d|N, (N/d)|k} mu(d) sigma_{-1}(k d / N).  The sweep's route is
cyclotomic_qlog_sum_family: C at (z + beta) / Q for every beta mod Q and
a point z of F, one matrix product in q = e^{2 pi i z} and one FFT of
length Q over beta, every omitted term below e^{-40}.
cyclotomic_qlog_sum_array is the point-wise reference, kept for the tests
and for the benchmark's tracer, which binds its name: per point, the
(divisor, point) rows sorted into octaves of their effective height
(N/d) y, per octave a direct head of ceil(sqrt(40/r)) terms and a Lambert
tail cut below e^{-40}, and the eta product below y = 0.0025.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import divisor_sigma_table, divisors, is_squarefree, moebius, prime_divisors, totient
from .curves import CoefficientTable, CurveModel, an_table, ap_table
from .halfplane import UHPoint, boost_array, sl2z_reduce
TWO_PI = 2.0 * math.pi
FORM_TOL = 1e-11      # absolute q-series truncation of every form value


def series_length(y: float, tol: float) -> int:
    """Smallest M with the |a_n| <= 2n tail bound below tol at height y."""
    r = math.exp(-TWO_PI * y)
    M = max(1, int(35.0 / (TWO_PI * y)))
    while M < 10_000_000:
        tail = 2.0 * r ** (M + 1) * ((M + 1) / (1 - r) + r / (1 - r) ** 2)
        if tail < tol:
            return M
        M = M + max(1, M // 8)
    raise ValueError("requested tolerance unreachable")


def _qseries(coeffs: np.ndarray, x, y) -> np.ndarray:
    """sum_{n>=1} a_n e^{2 pi i n z} on arrays; points are bucketed by
    octaves of y so each bucket runs one Horner loop of the length its
    lowest point needs to stay below FORM_TOL."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    out = np.zeros(x.shape, dtype=complex)
    nmax_have = len(coeffs) - 1
    q = np.exp(TWO_PI * (1j * x - y))
    octs = np.floor(np.log2(y)).astype(int)
    for o in np.unique(octs):
        m = octs == o
        L = series_length(float(y[m].min()), FORM_TOL)
        if L > nmax_have:
            raise ValueError(f"coefficient table too short: need n_max >= {L}")
        qm = q[m]
        acc = np.zeros_like(qm)
        for n in range(L, 0, -1):
            acc = acc * qm + coeffs[n]
        out[m] = acc * qm
    return out


# ------------------------------------------------------------------- eta

def log_abs_eta_array(x, y) -> np.ndarray:
    """log|eta(z)| for arbitrary points, via SL2(Z) reduction:
    log|eta| = -pi y/12 + log|prod_{n<=8} (1 - q^n)| at the reduced point, minus
    half the accumulated log|w| from the inversion steps."""
    xr, yr, _, loghalf = sl2z_reduce(np.asarray(x, float), np.asarray(y, float))
    q = np.exp(TWO_PI * (1j * xr - yr))
    qk, prod = q, 1.0 - q
    for _ in range(7):  # |q| <= e^{-pi sqrt 3}, so |q|^9 < 1e-21: 8 factors
        qk = qk * q
        prod *= 1.0 - qk
    return -math.pi * yr / 12.0 + np.log(np.abs(prod)) - 0.5 * loghalf


def log_abs_eta(x: float, y: float) -> float:
    return float(log_abs_eta_array(np.array([x]), np.array([y]))[0])


def log_abs_delta_array(x, y) -> np.ndarray:
    return 24.0 * log_abs_eta_array(x, y)


def log_abs_delta_N_array(x, y, N: int) -> np.ndarray:
    """log|Delta_N(z)| = sum_{d|N} mu(d) log|Delta(N z/d)|, each factor
    SL2(Z)-reduced; Gamma_0(N)-invariant for square-free N."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    acc = np.zeros(x.shape)
    for d in divisors(N):
        mu = moebius(d)
        if mu == 0:
            continue
        acc += mu * log_abs_delta_array(N * x / d, N * y / d)
    return acc


def qlog(z: UHPoint, t: complex) -> float:
    """q-logarithm (1/24) log|q t| + sum_{n>=1} log|1 - q^n t| for t on
    the unit circle, geometric tail below 1e-12."""
    if abs(abs(t) - 1.0) > 1e-12:
        raise ValueError("t must lie on the unit circle")
    q = cmath.exp(TWO_PI * 1j * z.z)
    M = series_length(z.y, 1e-13)
    acc = math.log(abs(q * t)) / 24.0
    qk = 1.0 + 0.0j
    for _ in range(M):
        qk *= q
        u = 1.0 - qk * t
        au = abs(u)
        if au < 1e-300:
            raise ValueError("1 - q^n t vanished to machine precision")
        acc += math.log(au)
    return acc


def _powers(u: np.ndarray, n: int) -> np.ndarray:
    """Rows u^1 .. u^n of a 1-d array u, by doubling: rows k+1 .. 2k are
    rows 1 .. k times u^k."""
    P = np.empty((n,) + u.shape, dtype=complex)
    P[0] = u
    k = 1
    while k < n:
        t = min(k, n - k)
        np.multiply(P[:t], P[k - 1], out=P[k:k + t])
        k += t
    return P


def cyclotomic_qlog_sum_array(x, y, N: int, deep_threshold: float = 0.0025):
    """sum over primitive k mod N of qlog(z, xi^k), the point-wise reference
    for cyclotomic_qlog_sum_family, through the Moebius factorisation of the
    cyclotomic polynomial,
    log|Phi_N(X)| = sum_{d|N} mu(d) log|1 - X^{N/d}|:

        phi(N)/24 * log|q| + sum_{d|N} mu(d) sum_{n>=1} log|1 - u^n|,

    u = q^e, e = N/d, one row per (divisor, point), sorted into octaves of
    e y.  In an octave of lowest e y = t, |u| <= e^{-r} with r = 2 pi t; for
    L = 40/r the first h = ceil(sqrt(L)) terms are summed directly as
    log|prod_{n<=h} (1 - u^n)|, and the rest by the Lambert series

        sum_{n>h} log|1 - u^n| = -Re sum_{j>=1} u^{j(h+1)} / (j (1 - u^j))

    up to J = floor(L/(h+1)) + 1, the first j with j(h+1) > L, so every
    omitted term has |u|^{j(h+1)} < e^{-40}.  A row with 2 pi e y >= 40 is
    below that cut as a whole and is skipped.  Points should be
    Gamma_0(N)-reduced by the caller (the function is an invariant);
    points with y below deep_threshold take the eta-product route
    instead (reported via the returned mask).

    Returns (values, deep_mask).
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    out = np.empty(x.shape)
    deep = y < deep_threshold
    if deep.any():
        out[deep] = log_abs_delta_N_array(x[deep], y[deep], N) / 24.0
    e, mu = np.array([(N // d, moebius(d)) for d in divisors(N) if moebius(d)], float).T
    xk, yk = x[~deep], y[~deep]
    ey = np.outer(e, yk).ravel()            # row i * yk.size + k: divisor i, point k
    terms = np.zeros(ey.shape)
    live = np.flatnonzero(ey < 40.0 / TWO_PI)       # the other rows stay 0
    octs = np.frexp(ey[live])[1].astype(np.int8)    # ey in [2^(k-1), 2^k): octave k
    order = live[np.argsort(octs, kind="stable")]   # a radix sort: buckets become slices
    ey, ez = ey[order], np.outer(e, TWO_PI * (1j * xk - yk)).ravel()[order]
    counts = np.bincount(octs - octs.min(initial=0))
    edges = np.cumsum(np.r_[0, counts[counts > 0]])
    for a, b in zip(edges[:-1], edges[1:]):
        L = 40.0 / (TWO_PI * float(ey[a:b].min()))
        h = math.ceil(math.sqrt(L))
        J = int(L / (h + 1)) + 1            # J <= h, since L / (h+1) < sqrt(L)
        u = np.exp(ez[a:b])
        U = _powers(u, h)                   # u^n, n = 1 .. h
        W = _powers(U[-1] * u, J)           # u^{j(h+1)}, j = 1 .. J
        V = np.subtract(1.0, U, out=U)      # 1 - u^n, in place
        tail = (1.0 / np.arange(1.0, J + 1.0)) @ np.divide(W, V[:J], out=W).real
        terms[order[a:b]] = np.log(np.abs(np.prod(V, axis=0))) - tail
    out[~deep] = -TWO_PI * yk * totient(N) / 24.0 + mu @ terms.reshape(mu.size, -1)
    return out, deep


@lru_cache(maxsize=64)
def _cyclotomic_coeffs(N: int, K: int) -> np.ndarray:
    """c_0 .. c_{K-1} of sum_{d|N} mu(d) sum_{n>=1} log|1 - q^{n N/d}| =
    -Re sum_k c_k q^k: c_k = sum_{d|N, (N/d)|k} mu(d) sigma_{-1}(k d / N),
    c_0 = 0 (read-only)."""
    sig = divisor_sigma_table(K, -1.0)
    c = np.zeros(K)
    for d in divisors(N):
        e = N // d
        c[::e] += moebius(d) * sig[:(K - 1) // e + 1]     # k = e j takes sigma_{-1}(j)
    c.flags.writeable = False
    return c


_FAMILY_BLOCK = 1 << 13     # complex entries per node block's (nodes, Q) arrays, 128 kB


def cyclotomic_qlog_sum_family(x, y, N: int, Q: int) -> np.ndarray:
    """The cyclotomic q-logarithm sum C at ((x + beta) / Q, y / Q), row beta
    of a (Q, n) array for beta = 0 .. Q-1, at n points (x, y) of F.

    With t = e^{2 pi i (z + beta) / Q}, the q-expansion of log|Delta_N| / 24
    (Apostol, GTM 41, ch. 3) gives C = -2 pi (y/Q) phi(N)/24 - Re sum_k c_k t^k
    (_cyclotomic_coeffs).  Split k = r + m Q: since beta is an integer,

        sum_k c_k t^k = sum_{r<Q} e^{2 pi i r (z + beta) / Q} P_r(q),
        P_r(q) = sum_{m<M} c_{r + m Q} q^m,  q = e^{2 pi i z},

    and the omitted terms, k >= M Q with M = ceil(40 / (2 pi min y)) (8 on
    F), are below e^{-40}, the cut of cyclotomic_qlog_sum_array.  Every
    P_r comes from one (n, M) @ (M, Q) product, and the sum over r for all
    beta is one inverse FFT of length Q.  The nodes run in blocks of
    _FAMILY_BLOCK // Q, so no temporary exceeds about 128 kB."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    M = math.ceil(40.0 / (TWO_PI * float(y.min())))
    c = _cyclotomic_coeffs(N, M * Q).reshape(M, Q)     # row m, column r: c_{r + m Q}
    ifft = np.fft.ifft                                  # loaded on first use, not at import
    phase = (2j * math.pi / Q) * np.arange(Q)
    out = np.empty((Q, x.size))
    step = max(1, _FAMILY_BLOCK // Q)
    for a in range(0, x.size, step):
        z = x[a:a + step] + 1j * y[a:a + step]
        P = np.exp(np.multiply.outer(TWO_PI * 1j * z, np.arange(M))) @ c
        S = ifft(P * np.exp(np.multiply.outer(z, phase)), axis=1)
        out[:, a:a + step] = (-TWO_PI * totient(N) / (24.0 * Q)) * y[a:a + step] - Q * S.real.T
    return out


_FORM_CACHE: dict = {}


@dataclass
class CuspFormEval:
    """Evaluator for a weight-2 newform given by its coefficient table."""

    table: CoefficientTable
    level: int

    _coeffs_f: np.ndarray = None

    def __post_init__(self):
        if not is_squarefree(self.level):
            raise ValueError("square-free level required")
        self._coeffs_f = self.table.coefficients.astype(float)

    @classmethod
    def from_curve(cls, curve: CurveModel, n_max: int = 4000) -> "CuspFormEval":
        """The form of `curve` with coefficients to n_max, built once per
        process: a later call with the same (ainvs, conductor, n_max)
        returns the same object.  Its coefficient arrays are read-only;
        callers must not mutate it."""
        key = (curve.ainvs, curve.conductor, n_max)
        form = _FORM_CACHE.get(key)
        if form is not None:
            return form
        table = an_table(curve.conductor, ap_table(curve, n_max), n_max)
        form = cls(table=table, level=curve.conductor)
        table.coefficients.flags.writeable = False
        form._coeffs_f.flags.writeable = False
        _FORM_CACHE[key] = form
        return form

    def sign_for(self, Q: int) -> int:
        """The eigenvalue of the Atkin-Lehner involution w_Q, Q || level:
        the product of -a_p over the primes p | Q."""
        return math.prod(-self.table.a(p) for p in prime_divisors(Q))


def eval_form_array(form: CuspFormEval, x, y) -> np.ndarray:
    """f at arbitrary points: move z by its cusp matrix M in
    W_Q Gamma_0(level) to height >= sqrt(3)/(2 level), evaluate the
    q-series there, transport back:  f(z) = eps(Q) * Q * j^{-2} * f(M z),
    j = c z + d for M = [a,b;c,d] of determinant Q."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    xb, yb, (A, B, C, D), Q = boost_array(form.level, x, y)
    fb = _qseries(form._coeffs_f, xb, yb)
    j = C * (x + 1j * y) + D
    signs = np.zeros(form.level + 1)
    for q in divisors(form.level):
        signs[q] = form.sign_for(q)
    eps = signs[Q]
    return eps * Q * fb / (j * j)
