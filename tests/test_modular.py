import cmath
import math

import numpy as np
import pytest

from ellrank.curves import curve_by_label
from ellrank.halfplane import UHPoint, apply_moebius, boost_array, sl2z_reduce
from ellrank.modular import (cyclotomic_qlog_sum_array, cyclotomic_qlog_sum_family,
                             eval_form_array, log_abs_delta_N_array, log_abs_eta_array,
                             series_length)


def _form_at(form, z: complex) -> complex:
    return complex(eval_form_array(form, np.array([z.real]), np.array([z.imag]))[0])


def _log_eta_at(x: float, y: float) -> float:
    return float(log_abs_eta_array(np.array([x]), np.array([y]))[0])


def _log_delta_N_at(z: complex, N: int) -> float:
    return float(log_abs_delta_N_array(np.array([z.real]), np.array([z.imag]), N)[0])


def test_log_abs_eta_transport():
    # deep point: reduce and compare against the direct product at the
    # equivalent high point
    z = UHPoint(0.123456, 3e-4)
    v = _log_eta_at(z.x, z.y)
    assert math.isfinite(v)
    # weight-1/2 consistency: |eta(-1/z)| = |z|^(1/2) |eta(z)|
    z2 = UHPoint(0.2, 0.7)
    w = -1.0 / z2.z
    lhs = _log_eta_at(w.real, w.imag)
    rhs = 0.5 * math.log(abs(z2.z)) + _log_eta_at(z2.x, z2.y)
    assert abs(lhs - rhs) < 1e-12


def test_log_abs_eta_array_against_mpmath():
    # the 8-factor product at the reduced point, against -pi y/12 + log|(q; q)_inf|
    # at the original point (|q| <= e^{-pi/2} here, so mp.qp converges fast)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(18)
    xs, ys = rng.uniform(-1.5, 1.5, 200), rng.uniform(0.25, 4.0, 200)
    got = log_abs_eta_array(xs, ys)
    for x, y, g in zip(xs, ys, got):
        q = mp.exp(2j * mp.pi * mp.mpc(x, y))
        want = -mp.pi * y / 12 + mp.log(abs(mp.qp(q)))
        assert abs(g - float(want)) < 1e-15, (x, y)


def test_log_abs_eta_array_at_deep_points():
    # z = gamma^-1 w for w in F and an exact gamma in SL2(Z) with |c| <= 1000,
    # down to y ~ 4e-7: against mpmath's -pi Im(gamma z)/12 + log|(q; q)_inf| at
    # gamma z minus (1/2) log|c z + d|, in 40 digits from the float z
    from ellrank.halfplane import ext_gcd

    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(23)
    zs, refs = [], []
    while len(zs) < 100:
        c, d = (int(v) for v in rng.integers(1, 1001, 2))
        if math.gcd(c, d) != 1:
            continue
        _, s, t = ext_gcd(d, c)             # s d + t c = 1: gamma = [s -t; c d]
        a, b = s, -t
        x = float(rng.uniform(-0.5, 0.5))
        w = mp.mpc(x, float(rng.uniform(math.sqrt(1.0 - x * x), 2.0)))
        zin = (d * w - b) / (-c * w + a)
        z = mp.mpc(float(zin.real), float(zin.imag))
        gz = (a * z + b) / (c * z + d)
        zs.append(complex(z))
        refs.append(-mp.pi * gz.imag / 12 + mp.log(abs(mp.qp(mp.exp(2j * mp.pi * gz))))
                    - mp.log(abs(c * z + d)) / 2)
    zs = np.array(zs)
    got = log_abs_eta_array(zs.real, zs.imag)
    assert zs.imag.min() < 1e-6
    assert max(abs(g - float(r)) for g, r in zip(got, refs)) < 1e-10


def test_form_values_and_modularity(form_11a):
    # tail at z = 5i: |q| = e^{-10 pi}; 30 terms are overkill
    z = 5j
    v = _form_at(form_11a, z)
    q = cmath.exp(2j * math.pi * z)
    partial = sum(form_11a.table.a(n) * q**n for n in range(1, 31))
    assert abs(v - partial) < 1e-14
    # periodicity
    assert abs(_form_at(form_11a, 0.3 + 1.1j) - _form_at(form_11a, -0.7 + 1.1j)) < 1e-12
    # weight-2 modularity for [4,1;11,3] at z = 0.2 + 0.8i
    z0 = complex(0.2, 0.8)
    w = (4 * z0 + 1) / (11 * z0 + 3)
    fz = _form_at(form_11a, z0)
    fw = _form_at(form_11a, w)
    assert abs(fw - (11 * z0 + 3) ** 2 * fz) < 1e-8 * abs(fw)


def test_eval_form_requires_table_length(form_11a):
    from ellrank.curves import an_table, ap_table

    short = type(form_11a)(table=an_table(11, ap_table(curve_by_label("11a"), 4), 4), level=11)
    with pytest.raises(ValueError, match="n_max"):
        _form_at(short, 0.2 + 0.9j)


def _boost_one(level, x, y):
    xb, yb, m, Q = boost_array(level, np.array([x]), np.array([y]))
    return float(xb[0]), float(yb[0]), tuple(int(e[0]) for e in m), int(Q[0])


def test_al_boost_examples():
    xb, yb, _, Q = _boost_one(11, 0.0, 10.0)
    assert (xb, yb, Q) == (0.0, 10.0, 1)              # already high: unchanged
    xb, yb, (a, b, c, d), Q = _boost_one(11, 0.0, 1.0 / 11.0)
    assert yb >= math.sqrt(3.0) / 22.0
    # boosting the boosted point keeps its height
    assert abs(_boost_one(11, xb, yb)[1] - yb) < 1e-12
    # M maps z to the boosted point
    xn, yn = apply_moebius(a, b, c, d, np.array([0.0]), np.array([1.0 / 11.0]))
    assert abs(xn[0] - xb) < 1e-12
    assert abs(yn[0] - yb) < 1e-12 * yb


def test_boost_floor_guarantee(rng):
    # M = [A B; C D] lies in W_Q Gamma_0(N) (det Q, Q | A, N | C, Q | D),
    # maps z to the boosted point and lifts it to sqrt(3)/(2N) or above
    for N in (1, 11, 14, 154, 210):
        x = rng.uniform(-0.5, 0.5, 1000)
        y = np.exp(rng.uniform(math.log(1e-4), 0.0, 1000))
        xb, yb, (A, B, C, D), Q = boost_array(N, x, y)
        assert yb.min() >= math.sqrt(3.0) / (2.0 * N) * (1.0 - 1e-9), N
        assert np.all(N % Q == 0) and np.all(A * D - B * C == Q), N
        assert np.all(A % Q == 0) and np.all(C % N == 0) and np.all(D % Q == 0), N
        xn, yn = apply_moebius(A, B, C, D, x, y)
        assert np.max(np.abs(yn - yb) / yb) < 1e-12, N
        assert np.max(np.abs(xn - xb) / np.hypot(xb, yb)) < 1e-12, N
    # at level 1 the boost is the SL2(Z) reduction: its points are
    # sl2z_reduce's bit for bit, also far out in x, deep in y, just
    # inside the unit circle (the inversion test's slack) and at
    # half-integer x (the translation's tie rule)
    t = rng.uniform(-0.5, 0.5, 200)
    x = np.concatenate([x, rng.uniform(-1e18, 1e18, 200), rng.uniform(-0.5, 0.5, 200), t,
                        np.arange(-4.5, 5.0)])
    y = np.concatenate([y, np.exp(rng.uniform(math.log(1e-3), 2.0, 200)),
                        np.exp(rng.uniform(math.log(1e-30), 0.0, 200)),
                        np.sqrt(1.0 - t * t) * (1.0 - np.geomspace(1e-17, 1e-12, 200)),
                        np.full(10, 0.9)])
    xb, yb, (A, B, C, D), Q = boost_array(1, x, y)
    xr, yr = sl2z_reduce(x, y)
    assert xb.tobytes() == xr.tobytes() and yb.tobytes() == yr.tobytes()
    A, B, C, D = (e.astype(object) for e in (A, B, C, D))     # exact products
    assert np.all(Q == 1) and np.all(A * D - B * C == 1)
    # both refuse heights where |z|^2 can underflow
    for reduce in (sl2z_reduce, lambda x, y: boost_array(1, x, y)):
        with pytest.raises(ValueError, match="underflows"):
            reduce(np.array([0.3]), np.array([1e-300]))
    # a reduction matrix past int64 raises instead of wrapping, also where
    # only its translation entry b would wrap (its det stays 1)
    with pytest.raises(OverflowError):
        boost_array(11, np.array([1.2345e-5]), np.array([1e-45]))
    with pytest.raises(OverflowError):
        boost_array(11, np.array([1e19]), np.array([1.0]))


def test_al_signs():
    # the transport identity f(W_Q z) Q / (c z + d)^2 = eps(Q) f(z) for
    # every Q || L, both sides by direct q-series at three points near the
    # cusp -d/c of W_Q = [Q, b; L, Q d'] (det Q); sign_for(Q) = -a_p for a
    # prime Q, so a sign +a_p fails here
    from ellrank.arith import divisors
    from ellrank.halfplane import ext_gcd
    from ellrank.modular import CuspFormEval, _qseries

    for label in ("11a", "14a", "15a", "37a"):
        form = CuspFormEval.from_curve(curve_by_label(label), 1000)
        L = form.level
        for Q in divisors(L):
            g, u, v = ext_gcd(Q, L // Q)        # Q u + (L/Q) v = 1
            a, b, c, d = Q, -v, L, Q * u
            assert g == 1 and a * d - b * c == Q
            for t in (0.85, 1.0, 1.22):
                z = complex(-d / c + 0.031 * t, t * math.sqrt(Q) / L)
                w = (a * z + b) / (c * z + d)
                fz, fw = (complex(_qseries(form._coeffs_f, np.array([p.real]),
                                           np.array([p.imag]))[0]) for p in (z, w))
                ratio = fw * Q / ((c * z + d) ** 2 * fz)
                assert abs(ratio - form.sign_for(Q)) < 1e-6, (label, Q, t, ratio)


def test_fricke_involution_numerically(form_14a):
    # f(w_N z) = eps_N (N z)^2 / N f(z) with w_N = [0,-1;N,0]
    N = 14
    z = complex(0.05, 0.35)
    w = -1.0 / (N * z)
    fz = _form_at(form_14a, z)
    fw = _form_at(form_14a, w)
    eps = form_14a.sign_for(14)
    assert abs(fw - eps * (N * z**2) * fz) < 1e-8 * abs(fw)


def test_log_abs_delta_N_examples():
    z = complex(0.21, 0.53)
    # N = 1 reduces to log|Delta|
    v2 = 24.0 * _log_eta_at(z.real, z.imag)
    assert abs(_log_delta_N_at(z, 1) - v2) < 1e-12
    # Gamma_0(14) invariance via [3,1;14,5]
    w = (3 * z + 1) / (14 * z + 5)
    assert abs(_log_delta_N_at(z, 14) - _log_delta_N_at(w, 14)) < 1e-9


def test_asai_product_form():
    # log|Delta_N(z)| = log|q^phi(N) prod Phi_N(q^n)^24| at z = 0.1+0.9i, N = 6
    from ellrank.arith import cyclotomic, totient

    z = complex(0.1, 0.9)
    N = 6
    q = cmath.exp(2j * math.pi * z)
    poly = cyclotomic(N)
    rhs = totient(N) * math.log(abs(q))
    for n in range(1, 60):
        rhs += 24.0 * math.log(abs(poly(q**n)))
    assert abs(_log_delta_N_at(z, N) - rhs) < 1e-9


def qlog(z: UHPoint, t: complex) -> float:
    """The q-logarithm (1/24) log|q t| + sum_{n>=1} log|1 - q^n t| for t on
    the unit circle, the scalar oracle of the cyclotomic q-logarithm sum;
    the geometric tail is below 1e-12."""
    q = cmath.exp(2j * math.pi * z.z)
    acc = math.log(abs(q * t)) / 24.0
    qk = 1.0 + 0.0j
    for _ in range(series_length(z.y, 1e-13)):
        qk *= q
        acc += math.log(abs(1.0 - qk * t))
    return acc


def test_qlog_definitions():
    z = UHPoint(0.3, 1.2)
    assert abs(qlog(z, 1.0) - _log_eta_at(z.x, z.y)) < 1e-12
    # partial-sum oracle at q real, t = -1
    zi = UHPoint(0.0, 0.9)
    q = math.exp(-2.0 * math.pi * 0.9)
    acc = math.log(abs(q * -1.0)) / 24.0
    for n in range(1, 10_001):
        acc += math.log(abs(1.0 - q**n * -1.0))
    assert abs(qlog(zi, -1.0) - acc) < 1e-10


def test_qlog_bridge_to_delta_N():
    # sum over primitive k mod N of qlog(z, xi^k) = (1/24) log|Delta_N|
    N = 6
    z = UHPoint(0.1, 0.9)
    s = sum(qlog(z, cmath.exp(2j * math.pi * k / N))
            for k in range(1, N + 1) if math.gcd(k, N) == 1)
    assert abs(s - _log_delta_N_at(z.z, N) / 24.0) < 1e-9


def test_cyclotomic_qlog_sum_matches_eta_route(rng):
    xs = rng.uniform(-0.5, 0.5, 200)
    ys = np.exp(rng.uniform(math.log(3e-3), math.log(2.0), 200))
    for N in (6, 14, 154):
        v1, deep = cyclotomic_qlog_sum_array(xs, ys, N)
        v2 = log_abs_delta_N_array(xs, ys, N) / 24.0
        assert not deep.any()
        assert np.max(np.abs(v1 - v2)) < 1e-9, N


def test_assembled_integrand_invariance(form_11a, form_14a, rng):
    from ellrank.domain import random_gamma0_elements

    N = 154
    x = rng.uniform(-0.4, 0.4, 6)
    y = rng.uniform(0.7, 1.4, 6)
    F = eval_form_array(form_11a, x, y)
    G = eval_form_array(form_14a, x, y)
    base = F * np.conj(G) * y**2
    for g in random_gamma0_elements(N, 20, seed=3):
        a, b, c, d = g
        gx, gy = apply_moebius(np.full(6, a), np.full(6, b), np.full(6, c),
                               np.full(6, d), x, y)
        F2 = eval_form_array(form_11a, gx, gy)
        G2 = eval_form_array(form_14a, gx, gy)
        moved = F2 * np.conj(G2) * gy**2
        assert np.max(np.abs(moved - base)) < 1e-8 * max(1e-30, np.max(np.abs(base)))


def cyclotomic_qlog_sum_loop(x, y, N, head=48, deep_threshold=0.0025):
    """Horner oracle for cyclotomic_qlog_sum_array: the first `head` terms
    through the coefficients of Phi_N, one Horner loop per n = 1..head,
    the rest through the geometric tails of the divisor form; deep route
    and octave buckets as in the production code."""
    from ellrank.arith import cyclotomic, divisors, moebius, totient

    out = np.empty(x.shape)
    deep = y < deep_threshold
    if deep.any():
        out[deep] = log_abs_delta_N_array(x[deep], y[deep], N) / 24.0
    coeffs = np.array(cyclotomic(N).coefficients, dtype=float)
    phiN = totient(N)
    octs = np.where(deep, 99, np.floor(np.log2(y)).astype(int))
    for o in np.unique(octs):
        if o == 99:
            continue
        m = octs == o
        xm, ym = x[m], y[m]
        q = np.exp(2.0 * math.pi * (1j * xm - ym))
        acc = -2.0 * math.pi * ym * phiN / 24.0
        qn = np.ones_like(q)
        for _ in range(head):
            qn = qn * q
            val = np.zeros_like(q) + coeffs[-1]
            for c in coeffs[-2::-1]:
                val = val * qn + c
            acc = acc + np.log(np.abs(val))
        ymin = float(ym.min())
        for d in divisors(N):
            mu = moebius(d)
            if mu == 0:
                continue
            e = N // d
            u = q**e
            jmax = max(2, int(40.0 / (2.0 * math.pi * ymin * e * (head + 1))) + 2)
            t = np.zeros_like(acc)
            uj = np.ones_like(q)
            ujh = u**head
            upow = np.ones_like(q)
            for j in range(1, jmax + 1):
                uj = uj * u
                upow = upow * ujh
                num = uj * upow
                t -= np.real(num / (1.0 - uj)) / j
                if np.all(np.abs(num) < 1e-17):
                    break
            acc = acc + mu * t
        out[m] = acc
    return out, deep


@pytest.mark.parametrize("head", [48, 96])
def test_cyclotomic_qlog_matches_horner_oracle(rng, head):
    # the divisor-form kernel against the Phi_N-coefficient Horner route, on
    # points spread over many octaves of y, a few below the eta threshold
    xs = rng.uniform(-0.5, 0.5, 300)
    ys = np.exp(rng.uniform(math.log(1e-3), math.log(20.0), 300))
    for N in (6, 14, 154, 165, 210, 407):
        v, deep = cyclotomic_qlog_sum_array(xs, ys, N)
        w, deep_w = cyclotomic_qlog_sum_loop(xs, ys, N, head=head)
        assert deep.any() and np.array_equal(deep, deep_w)
        assert np.max(np.abs(v - w)) <= 1e-12, (N, head)
    # far up the cusp (octave 99 and beyond) only phi(N)/24 log|q| is left
    v, _ = cyclotomic_qlog_sum_array(np.array([0.1, 0.1]), np.array([1e30, 2.0**99]), 6)
    assert np.allclose(v, -2.0 * math.pi * np.array([1e30, 2.0**99]) * 2 / 24.0, rtol=1e-15)


@pytest.mark.parametrize("N", [6, 11, 154, 165, 210, 407])
def test_cyclotomic_family_matches_pointwise_kernel(N, rng):
    # row beta of the family route is C at ((x + beta) / Q, y / Q), for every
    # Q | N and beta mod Q: against the point-wise kernel and log|Delta_N| / 24,
    # on the depth-0 grid's nodes and on random F-points up to y = 30; at
    # N = 407 the kernel takes its eta fallback on some of these points
    from ellrank.arith import divisors
    from ellrank.domain import build_grid

    g = build_grid(N, depth=0)
    x = rng.uniform(-0.5, 0.5, 100)
    y = np.exp(rng.uniform(np.log(np.sqrt(1.0 - x * x)), math.log(30.0)))
    deep_seen = False
    for xs, ys in ((g.xs, g.ys), (x, y)):
        for Q in divisors(N):
            fam = cyclotomic_qlog_sum_family(xs, ys, N, Q)
            assert fam.shape == (Q, xs.size)
            px = ((xs + np.arange(Q)[:, None]) / Q).ravel()     # row beta, as fam
            py = np.broadcast_to(ys / Q, fam.shape).ravel()
            old, deep = cyclotomic_qlog_sum_array(px, py, N)
            ref = log_abs_delta_N_array(px, py, N) / 24.0
            scale = np.maximum(1.0, np.abs(ref))
            assert np.max(np.abs(fam.ravel() - old) / scale) < 1e-12, (N, Q)
            assert np.max(np.abs(fam.ravel() - ref) / scale) < 1e-12, (N, Q)
            deep_seen |= bool(deep.any())
    assert deep_seen == (N == 407)


def test_eval_form_sign_table_bit_identical(form_14a, rng):
    # the Atkin-Lehner sign lookup table gives exactly the per-point signs
    from ellrank.modular import _qseries

    x = rng.uniform(-0.5, 0.5, 400)
    y = np.exp(rng.uniform(math.log(2e-3), math.log(1.5), 400))
    xb, yb, (A, B, C, D), Q = boost_array(14, x, y)
    assert len(set(Q.tolist())) == 4
    fb = _qseries(form_14a._coeffs_f, xb, yb)
    j = C * (x + 1j * y) + D
    eps = np.array([form_14a.sign_for(int(q)) for q in Q], dtype=float)
    assert np.array_equal(eval_form_array(form_14a, x, y), eps * Q * fb / (j * j))


def test_series_length_monotone():
    assert series_length(0.5, 1e-12) < series_length(0.05, 1e-12)
    with pytest.raises(ValueError):
        series_length(1e-9, 1e-300)


def test_from_curve_builds_each_form_once():
    from ellrank.modular import CuspFormEval

    curve = curve_by_label("37a")
    f = CuspFormEval.from_curve(curve, 300)
    assert CuspFormEval.from_curve(curve_by_label("37a"), 300) is f
    g = CuspFormEval.from_curve(curve, 400)
    assert g is not f and g.table.nmax == 400
    assert np.array_equal(g.table.coefficients[:301], f.table.coefficients)
    # the shared object is read-only
    with pytest.raises(ValueError):
        f.table.coefficients[2] = 0
    with pytest.raises(ValueError):
        f._coeffs_f[2] = 0.0
