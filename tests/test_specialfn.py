import math

import numpy as np
import pytest

from ellrank.specialfn import (EvalResult, PoleError, bessel_k_array,
                               bessel_k_half_coeffs, completed_zeta,
                               upper_gamma, zeta, zeta_depleted)


def test_zeta_classics():
    assert abs(zeta(2.0).value - math.pi**2 / 6.0) < 1e-13
    assert zeta(0.0).value == -0.5
    assert abs(zeta(-1.0).value + 1.0 / 12.0) < 1e-13
    with pytest.raises(PoleError):
        zeta(1.0)


def test_zeta_functional_equation_self_consistency():
    for s in (2.0, 3.0, 4.5):
        lhs = zeta(1.0 - s).value
        rhs = (2.0 ** (1.0 - s) * math.pi**-s * math.sin(math.pi * (1.0 - s) / 2.0)
               * math.gamma(s) * zeta(s).value)
        assert abs(lhs - rhs) < 1e-10


def test_zeta_depleted():
    assert abs(zeta_depleted(2.0, 1).value - math.pi**2 / 6) < 1e-13
    assert abs(zeta_depleted(2.0, 2).value - math.pi**2 / 8) < 1e-13
    want = math.pi**2 / 6 * (3.0 / 4.0) * (8.0 / 9.0)
    assert abs(zeta_depleted(2.0, 6).value - want) < 1e-13


def test_bessel_half_integer_closed_forms():
    v1, v2 = bessel_k_array(0.5, np.array([1.0, 2.0]))
    assert abs(v1 - math.sqrt(math.pi / 2) * math.exp(-1)) < 1e-14
    assert abs(v2 - math.sqrt(math.pi / 4) * math.exp(-2)) < 1e-15
    # the quadrature at half-integer order; x = 11.1 = (0.5/0.15)^2 is
    # where cosh_rule's step leaves its cap for 0.5/sqrt(x)
    xs = np.array([0.01, 0.3, 11.1, 12.0, 300.0, 690.0])
    for m in (1, 4, 10):
        closed = (np.sqrt(math.pi / (2.0 * xs)) * np.exp(-xs)
                  * np.polynomial.polynomial.polyval(1.0 / xs, bessel_k_half_coeffs(m)))
        assert np.max(np.abs(bessel_k_array(m + 0.5, xs) / closed - 1.0)) < 5e-14, m


def _k_series_oracle(nu, x, terms=60):
    """Ascending series for integer nu = 1 via I-Bessel combination:
    K_1 = (1/x) + I_1(x) log(x/2) - series; implemented directly from
    K_1(x) = lim of the standard expansion (independent of quadrature)."""
    from math import log

    # K_1 via K_nu = pi/2 (I_{-nu} - I_nu)/sin(pi nu) at nu -> 1 limit:
    # use the explicit logarithmic series for K_1.
    def In(n, x):
        acc, term = 0.0, (x / 2.0) ** n / math.factorial(n)
        for k in range(terms):
            acc += term
            term *= (x / 2.0) ** 2 / ((k + 1) * (n + k + 1))
        return acc

    # K1(x) = (1/x) + I1(x) ln(x/2) - (x/4) sum_{k} [psi(k+1)+psi(k+2)] (x^2/4)^k /(k!(k+1)!)
    psi = [-0.5772156649015329]
    for k in range(1, terms + 2):
        psi.append(psi[-1] + 1.0 / k)
    acc = 0.0
    term = x / 4.0
    for k in range(terms):
        acc += term * (psi[k] + psi[k + 1])
        term *= (x * x / 4.0) / ((k + 1) * (k + 2))
    return 1.0 / x + In(1, x) * log(x / 2.0) - acc


def test_bessel_k1_vs_ascending_series_oracle():
    # spec example: K_1(2) ~ 0.13986588
    xs = (0.3, 1.0, 2.0, 5.0)
    vals = bessel_k_array(1.0, np.array(xs))
    assert abs(vals[2] - 0.13986588) < 5e-8
    for x, v in zip(xs, vals):
        assert v > 0
        assert abs(v / _k_series_oracle(1.0, x) - 1.0) < 1e-11, x


def test_bessel_properties(rng):
    # decreasing in x, symmetric in nu, asymptotic ratio
    xs = np.sort(rng.uniform(0.1, 30.0, 40))
    vals = bessel_k_array(1.3, xs)
    assert np.all(np.diff(vals) < 0)
    for nu in (0.4, 2.2, 7.0):
        a = bessel_k_array(nu, xs)
        b = bessel_k_array(-nu, xs)
        assert np.max(np.abs(a / b - 1.0)) < 1e-12
    x = 50.0
    ratio = bessel_k_array(0.9, np.array([x]))[0] / (math.sqrt(math.pi / (2 * x)) * math.exp(-x))
    assert abs(ratio - 1.0) < 0.01


def test_bessel_orders_share_one_matrix_bit_for_bit(rng):
    # each order's cosh_rule nodes are a prefix of the longest order's,
    # so one exp matrix per octave serves them all without changing a bit
    from ellrank.specialfn import _bessel_k_orders

    xs = np.exp(rng.uniform(math.log(0.01), math.log(700.0), 400))
    nus = (1.0, 0.0, 2.5, -7.3)
    for nu, got in zip(nus, _bessel_k_orders(nus, xs)):
        assert np.array_equal(got, bessel_k_array(nu, xs)), nu


def test_bessel_k_against_mpmath():
    # the fixed-step trapezoid rule, octave by octave, from x = 0.01 to 690
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    xs = np.geomspace(0.01, 690.0, 60)
    for nu in (0.0, 0.3, 1.0, 2.7, 7.3, 10.3):
        want = np.array([float(mp.besselk(nu, x)) for x in xs])
        assert np.max(np.abs(bessel_k_array(nu, xs) / want - 1.0)) < 5e-14, nu


def test_bessel_underflow_and_rejection():
    assert bessel_k_array(1.0, np.array([800.0]))[0] == 0.0
    with np.errstate(invalid="raise"):
        assert np.all(bessel_k_array(10.5, np.array([745.2, 1e300, np.inf])) == 0.0)
    with pytest.raises(ValueError):
        bessel_k_array(1.0, np.array([-1.0]))


def test_bessel_kernels_refuse_nan():
    # NaN fails every comparison: a check written as x <= 0 lets it through
    from ellrank.specialfn import xk1_fast

    for kernel in (lambda x: bessel_k_array(1.0, x), xk1_fast):
        with pytest.raises(ValueError, match="NaN"):
            kernel(np.array([1.0, np.nan]))
        assert np.all(kernel(np.array([np.inf])) == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["upper_gamma", "sl2z_reduce", "boost_array",
                                  "log_abs_eta_array", "epstein_star_array"])
def test_array_kernels_refuse_non_finite(name, bad):
    # NaN passes a check written as a comparison, and inf turns into NaN
    # inside a kernel: each array kernel refuses both at its entry, in x
    # and in y, with its own name in the message
    from ellrank.eisenstein import epstein_star_array
    from ellrank.halfplane import boost_array, sl2z_reduce
    from ellrank.modular import log_abs_eta_array
    from ellrank.specialfn import upper_gamma

    if name == "upper_gamma":
        with pytest.raises(ValueError, match=name):
            upper_gamma(1.5, np.array([1.0, bad]))
        return
    kernel = {"sl2z_reduce": sl2z_reduce, "boost_array": lambda x, y: boost_array(11, x, y),
              "log_abs_eta_array": log_abs_eta_array,
              "epstein_star_array": lambda x, y: epstein_star_array(x, y, 2.0)}[name]
    for i in (0, 1):
        xy = [np.array([0.1, 0.2]), np.array([1.0, 2.0])]
        xy[i][1] = bad
        with pytest.raises(ValueError, match=name):
            kernel(*xy)


def test_upper_gamma_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for a in (-3.0, -2.5, -1.0, -0.3, 0.0, 0.5, 1.0, 2.5, 3.5):
        for x in (0.05, 0.3, 1.0, 1.49, 1.51, 5.0, 20.0, 45.0):
            got = float(upper_gamma(a, np.array([x]))[0])
            want = float(mp.gammainc(a, x, mp.inf))
            assert abs(got / want - 1.0) < 5e-13, (a, x)


def test_upper_gamma_wide_parameters_against_mpmath():
    # the continued fraction stops at 2 ulp on |a| up to 11.9 and x up to
    # 600, each batch as a whole; below x = a + 1 the lower-gamma series
    # runs instead (the fraction lost 3.6e-8 at a = 11.9, x = 1.5)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for a in (-11.9, -6.5, 6.5, 11.9):
        xs = np.array([1.5, 3.0, 12.0, 60.0, 250.0, 600.0])
        got = upper_gamma(a, xs)
        want = np.array([float(mp.gammainc(a, x, mp.inf)) for x in xs])
        assert np.max(np.abs(got / want - 1.0)) < 5e-13, a


def test_completed_zeta_reflection():
    for v in (0.3, 2.0, -1.5, 4.2, 0.8):
        assert abs(completed_zeta(v) - completed_zeta(1.0 - v)) < 1e-13
    with pytest.raises(PoleError):
        completed_zeta(1.0)


def test_eval_result_requires_finite_bound():
    with pytest.raises(ValueError):
        EvalResult(1.0, float("inf"))


def test_xk1_fast_regimes_against_mpmath():
    from ellrank.specialfn import xk1_fast

    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30

    def rel_err(x):
        ref = np.array([float(mp.mpf(t) * mp.besselk(1, t)) for t in x])
        return np.max(np.abs(xk1_fast(x) / ref - 1.0))

    # interpolation: measured 4.6e-14 on a log and a linear sweep
    x = np.concatenate([np.geomspace(0.05, 600.0, 150), np.linspace(0.05, 600.0, 150)])
    assert rel_err(x) < 1e-13
    # two-term asymptotic while the value is a normal double
    assert rel_err(np.linspace(600.001, 705.0, 60)) <= 3.3e-7
    assert np.all(xk1_fast(np.array([740.0, 800.0, 1400.0])) == 0.0)
