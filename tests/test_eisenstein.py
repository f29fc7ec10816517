import math

import numpy as np
import pytest

from ellrank.eisenstein import (epstein_completed, epstein_lattice,
                                epstein_lattice_raw, epstein_residue,
                                epstein_star_array, epstein_star_theta,
                                kronecker_limit_check, richardson_limit)
from ellrank.halfplane import UHPoint
from ellrank.specialfn import PoleError


def test_lattice_at_i_closed_form():
    # sum' 1/(m^2+n^2)^2 = 4 zeta(2) beta(2)
    beta2 = 0.915965594177219015  # Catalan
    want = 4.0 * (math.pi**2 / 6.0) * beta2
    got = epstein_lattice(UHPoint(0.0, 1.0), 2.0, tol=1e-12)
    assert abs(got.value - want) < 1e-11
    # and the bare truncated sum approaches it slowly
    raw = epstein_lattice_raw(UHPoint(0.0, 1.0), 2.0, 800)
    assert abs(raw - want) < 1e-5
    assert abs(raw - want) > 1e-8  # genuinely different accuracy class


def test_lattice_translation_and_modular_invariance():
    z = UHPoint(0.37, 1.21)
    a = epstein_lattice(z, 1.5, tol=1e-12).value
    b = epstein_lattice(UHPoint(z.x + 1.0, z.y), 1.5, tol=1e-12).value
    assert abs(a - b) < 1e-12 * abs(a)
    # z -> -1/z
    w = -1.0 / complex(z.x, z.y)
    c = epstein_lattice(UHPoint(w.real, w.imag), 1.5, tol=1e-12).value
    assert abs(a - c) < 1e-10 * abs(a)


def test_lattice_rejects_s_below_1():
    with pytest.raises(ValueError):
        epstein_lattice(UHPoint(0.0, 1.0), 0.9)


def test_mutual_oracle_grid(rng):
    worst = 0.0
    for _ in range(20):
        x = float(rng.uniform(-0.45, 0.45))
        y = float(rng.uniform(0.6, 3.0))
        s = float(rng.uniform(1.2, 3.0))
        bessel = float(epstein_star_array(np.array([x]), np.array([y]), s)[0])
        theta, bound = epstein_star_theta(x, y, s)
        worst = max(worst, abs(bessel / theta - 1.0))
    assert worst < 1e-9


@pytest.mark.parametrize("s", [2.0, 3.0, -1.0])
def test_half_integer_order_horner_against_theta(s):
    # integer s puts K_{s-1/2} at half-integer order, where the Fourier form
    # runs by Horner in q; points off F (|x| up to 2, y down to 0.05) too
    rng = np.random.default_rng(18)
    xs, ys = rng.uniform(-2.0, 2.0, 30), np.geomspace(0.05, 5.0, 30)
    fourier = epstein_star_array(xs, ys, s)
    for x, y, f in zip(xs, ys, fourier):
        theta, _ = epstein_star_theta(float(x), float(y), s)
        assert abs(f / theta - 1.0) < 1e-12, (x, y, s)


def _mp_star_fourier(mp, x, y, s):
    """E*(z,s) by its Fourier-Bessel expansion in mpmath, at the point
    reduced into F in mpmath, every term above e^{-110} kept."""
    z = mp.mpc(x, y)
    while True:
        z -= mp.nint(z.real)
        if abs(z) >= 1:
            break
        z = -1 / z
    x, y, s = z.real, z.imag, mp.mpf(s)
    nu = s - mp.mpf(1) / 2

    def xi(v):
        return mp.pi ** (-v / 2) * mp.gamma(v / 2) * mp.zeta(v)

    val = 2 * xi(2 * s) * y**s + 2 * xi(2 * s - 1) * y ** (1 - s)
    for n in range(1, int(110 / (2 * math.pi * float(y))) + 3):
        sig = sum(mp.mpf(d) ** (1 - 2 * s) for d in range(1, n + 1) if n % d == 0)
        val += (8 * mp.sqrt(y) * mp.mpf(n) ** nu * sig * mp.besselk(nu, 2 * mp.pi * n * y)
                * mp.cos(2 * mp.pi * n * x))
    return val


@pytest.mark.parametrize("s", [-9.7, -2.3, 0.3, 1.001, 1.5001, 2.5, 5.25, 9.9])
def test_general_order_fourier_sum_against_mpmath(s):
    # away from half-integer order every harmonic comes from one cosh_rule
    # taken at the lowest harmonic of the batch: points of F, the corner,
    # unreduced points and reduced heights up to 1e3, in one call; alone,
    # a reduced height of 1e25, where every harmonic underflows to 0
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    pts = [(0.0, 1.0), (0.5, math.sqrt(3.0) / 2.0), (-0.31, 0.97), (0.37, 1.21),
           (0.25, 3.0), (-0.3, 12.0), (0.2, 1e3), (2.7, 0.05), (-0.45, 0.4),
           (0.0, 1e-3), (5.123, 0.31)]
    xs, ys = np.array(pts).T
    got = np.append(epstein_star_array(xs, ys, s), epstein_star_array([0.1], [1e25], s))
    for (x, y), g in zip(pts + [(0.1, 1e25)], got):
        want = float(_mp_star_fourier(mp, x, y, s))
        assert abs(g - want) <= 1e-13 * max(1.0, abs(want)), (x, y, s, g, want)


def test_theta_at_tall_points():
    # the reduced height sets the vector count, about 2 sqrt(11 y): at
    # y = 1e6 the rows still match the Fourier form, and past the cap
    # the sum refuses before enumerating
    for x, y in ((0.3, 1e6), (0.0, 1e-6)):
        theta, _ = epstein_star_theta(x, y, 2.0)
        bessel = float(epstein_star_array(np.array([x]), np.array([y]), 2.0)[0])
        assert abs(bessel / theta - 1.0) < 1e-12, (x, y)
    for y in (1e20, 1e-150):
        with pytest.raises(ValueError, match="cap"):
            epstein_star_theta(0.0, y, 2.0)


def test_mutual_oracle_at_s_three_halves():
    # pi^{-1.5} Gamma(1.5) * lattice(i, 1.5) against the Fourier form
    b = float(epstein_star_array(np.array([0.0]), np.array([1.0]), 1.5)[0])
    t, _ = epstein_star_theta(0.0, 1.0, 1.5)
    assert abs(b / t - 1.0) < 1e-9


def test_functional_equation_continued_region():
    pts = [(0.0, 1.0), (0.3, 1.7), (-0.2, 0.9), (0.45, 2.4), (0.1, 1.2)]
    for s in (-0.5, 0.25, 0.3, 0.4):
        for x, y in pts:
            a = epstein_completed(UHPoint(x, y), s).value
            b = epstein_completed(UHPoint(x, y), 1.0 - s).value
            assert abs(a - b) < 1e-9


def test_translation_invariance_continued():
    a = epstein_completed(UHPoint(0.2, 1.3), -0.5).value
    b = epstein_completed(UHPoint(1.2, 1.3), -0.5).value
    assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_pole_rejection():
    with pytest.raises(PoleError):
        epstein_completed(UHPoint(0.0, 1.0), 1.0)
    with pytest.raises(PoleError):
        epstein_completed(UHPoint(0.0, 1.0), 0.0)


def test_residue_is_one_independent_of_z():
    vals = []
    for x, y in ((0.0, 1.0), (0.5, 3.0), (0.23, 0.9)):
        r = epstein_residue(UHPoint(x, y))
        vals.append(r.value)
        assert abs(r.value - 1.0) < 1e-6
    assert abs(vals[0] - vals[1]) < 1e-6
    # Richardson orders 2 and 3 agree (fine ladder), as do 3 and 4
    def f(h):
        return h * float(epstein_star_array(np.array([0.0]), np.array([1.0]), 1.0 + h)[0])

    r2, _ = richardson_limit(f, 0.001, levels=2)
    r3, _ = richardson_limit(f, 0.001, levels=3)
    assert abs(r2 - r3) < 1e-6
    r3b, _ = richardson_limit(f, 0.01, levels=3)
    r4, _ = richardson_limit(f, 0.01, levels=4)
    assert abs(r3b - r4) < 1e-6


def test_laurent_structure_at_both_poles():
    # residue at 0: s E*(z, s) -> -1, probed from s = -h
    def f0(h):
        s = -h
        return s * float(epstein_star_array(np.array([0.2]), np.array([1.1]), s)[0])

    r0, _ = richardson_limit(f0, 0.01, levels=3)
    assert abs(r0 + 1.0) < 1e-6


def test_kronecker_limit_formula():
    for x, y in ((0.0, 1.0), (0.0, 2.0), (0.3, 1.4)):
        lhs, rhs, diff = kronecker_limit_check(UHPoint(x, y))
        assert abs(diff) < 1e-6, (x, y, lhs, rhs)


def test_kronecker_periodicity():
    l1, _, _ = kronecker_limit_check(UHPoint(0.2, 1.5))
    l2, _, _ = kronecker_limit_check(UHPoint(1.2, 1.5))
    assert abs(l1 - l2) < 1e-8 * max(1.0, abs(l1))
