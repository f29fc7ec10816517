import math

import numpy as np
import pytest

from ellrank.arith import prime_divisors
from ellrank.curves import curve_by_label
from ellrank.lseries import (G_factor, L_direct, RankinSeries, afe_eval, bad_factor_H,
                             residue_at_1, sym2_report)
from ellrank.specialfn import PoleError, _zeta_raw
from oracles import Phi, assemble_LH2, order_of_vanishing, recognize_rational


def test_rankin_series_structure(rs_11_14, rs_11_11):
    assert (rs_11_14.N, rs_11_14.M) == (154, 1)
    assert (rs_11_11.N, rs_11_11.M) == (11, 11)
    assert rs_11_11.isogenous and not rs_11_14.isogenous
    assert rs_11_14.U[1] == 1                     # C_1 = 1


def test_L_direct_positive_and_tail_monotone(rs_11_11):
    a = L_direct(rs_11_11, 2.0, n_max=2000)
    b = L_direct(rs_11_11, 2.0, n_max=4000)
    assert a.value > 0
    assert abs(b.value - a.value) < a.abs_error_bound       # doubling stays inside the bound
    with pytest.raises(ValueError):
        L_direct(rs_11_11, 1.22)                  # no finite certificate there


def test_repackaging_oracle(rs_11_14):
    """G(2) sum C_k k^-2 against (2 pi/sqrt N)^-4 Gamma(2) Gamma(3) L(2),
    the d-sum extended far enough that both truncations agree to 1e-9."""
    rs = rs_11_14
    s = 2.0
    K = 450_000
    lhs = 0.0
    d = 1
    while d * d <= K:
        if math.gcd(d, rs.N) == 1:
            ms = np.arange(1, min(K // (d * d), rs.af.nmax) + 1)
            ab = rs.af.coefficients[ms].astype(float) * rs.bg.coefficients[ms].astype(float)
            lhs += float(d) ** (-2 * s) * float(np.sum(ab / ms.astype(float) ** (s + 1.0)))
        d += 1
    lhs *= G_factor(rs, s)
    rhs = G_factor(rs, s) * L_direct(rs, s).value
    assert abs(lhs - rhs) < 1e-9 * abs(rhs)


def test_pipeline_agreement_big_tables(big_tables, rs_11_14, rs_11_11, form_11a, form_14a):
    """direct vs AFE; attainable at 1e-8 for s in {2, 2.5} (pair) and
    s = 2.5 (isogenous); at s = 1.5 the direct tail dominates and only
    the evaluator's own crude tail certificate can be asserted."""
    big_pair = RankinSeries(big_tables["11a"], big_tables["14a"], 11, 14, 154, 1,
                            rs_11_14.U, rs_11_14.k_max, False)
    big_iso = RankinSeries(big_tables["11a"], big_tables["11a"], 11, 11, 11, 11,
                           rs_11_11.U, rs_11_11.k_max, True)
    for rs_big, rs_small, spts in ((big_pair, rs_11_14, (2.0, 2.5)),
                                   (big_iso, rs_11_11, (2.5,))):
        for s in spts:
            d = L_direct(rs_big, s, n_max=120_000)
            a = afe_eval(rs_small, s)
            phi_d = G_factor(rs_small, s) * d.value
            assert abs(phi_d - a.value) < 1e-8 * abs(a.value), s
        d = L_direct(rs_big, 1.5, n_max=120_000)
        a = afe_eval(rs_small, 1.5)
        phi_d = G_factor(rs_small, 1.5) * d.value
        assert abs(phi_d - a.value) <= (G_factor(rs_small, 1.5) * d.abs_error_bound
                                         + a.abs_error_bound)


def test_afe_split_invariance(rs_11_14):
    for s in (-0.3, 0.0, 0.5, 1.0, 1.4):
        v1 = afe_eval(rs_11_14, s, split=1.0).value
        v2 = afe_eval(rs_11_14, s, split=2.0).value
        assert abs(v1 - v2) < 1e-7 * max(1.0, abs(v1)), s


def test_afe_self_dual_point_split_consistency(rs_11_14):
    v1 = afe_eval(rs_11_14, 0.5, split=1.0).value
    v2 = afe_eval(rs_11_14, 0.5, split=2.0).value
    assert abs(v1 - v2) < 1e-7


def test_functional_equation_residuals(rs_11_14, rs_11_11):
    # |Phi+(s) - Phi+(1-s)|, Phi+ = Phi prod_{p | M} (1 - p^-s)^-1; the
    # asymmetric split 1.6 keeps the two sides different sums (at split 1
    # the AFE is symmetric in s <-> 1-s by construction)
    def plus(rs, u):
        A = math.prod(1.0 - p ** -u for p in prime_divisors(rs.M))
        return afe_eval(rs, u, split=1.6).value / A

    for rs, s in ((rs_11_14, 0.3), (rs_11_14, -0.25), (rs_11_11, 0.3)):   # 11/11 via Phi+
        assert abs(plus(rs, s) - plus(rs, 1.0 - s)) < 1e-6


def test_phi_pipelines_and_pole(rs_11_14, rs_11_11):
    # the direct series above the strip, the AFE inside it
    assert Phi(rs_11_14, 2.0).value == G_factor(rs_11_14, 2.0) * L_direct(rs_11_14, 2.0).value
    assert Phi(rs_11_14, 1.4) == afe_eval(rs_11_14, 1.4)
    # non-isogenous coprime pair: Phi(0) = Phi(1)
    assert abs(Phi(rs_11_14, 0.0).value - Phi(rs_11_14, 1.0).value) < 1e-6
    with pytest.raises(PoleError):
        Phi(rs_11_11, 1.0)


def test_residue_isogenous(run_ctx, rs_11_11):
    from ellrank.arith import index_psi

    res = residue_at_1(rs_11_11)
    assert res["spread"] < 1e-9
    residue = res["residue"].value
    want = 2.0 * math.pi * (10.0 / 11.0) * index_psi(11) * run_ctx.pet_ff.value.real
    assert abs(residue - want) < 1e-3 * want
    # (s-1) Phi(s) extrapolates to the same residue
    vals = [(s - 1.0) * afe_eval(rs_11_11, s).value for s in (1.2, 1.1, 1.05)]
    extr = vals[2] + (vals[2] - vals[1])  # crude linear step
    assert abs(extr - residue) < 0.05 * residue


def test_L_value_at_1_nonvanishing(rs_11_14):
    # |L_{f,g}(1)| > 10x its error bound for the orthogonal pair
    phi1 = afe_eval(rs_11_14, 1.0)
    L1 = phi1.value / G_factor(rs_11_14, 1.0)
    assert abs(L1) > 10.0 * phi1.abs_error_bound / G_factor(rs_11_14, 1.0)


def test_L_derivative_at_0(rs_11_14, rs_11_11):
    # L'_{f,g}(0) = Phi(0) by the AFE; f = g has a pole there
    r = afe_eval(rs_11_14, 0.0)
    assert abs(r.value) > 10.0 * r.abs_error_bound
    with pytest.raises(PoleError):
        afe_eval(rs_11_11, 0.0)
    # sign stability under doubling the split (truncation knob)
    r2 = afe_eval(rs_11_14, 0.0, split=2.0)
    assert np.sign(r2.value) == np.sign(r.value)
    assert abs(r2.value - r.value) < 1e-8 * abs(r.value)


def test_afe_unsupported_mixed_level(form_14a):
    # M > 1 with f != g: fabricate a second 'form' at level 14 by
    # flipping one Hecke eigenvalue (guard test only, not a real form)
    import copy

    fake = copy.deepcopy(form_14a)
    fake.table.coefficients = form_14a.table.coefficients.copy()
    fake.table.coefficients[3] += 1
    rs = RankinSeries.build(form_14a, fake)
    assert not rs.isogenous and rs.M == 14
    with pytest.raises(ValueError):
        afe_eval(rs, 0.5)


def test_bad_factor_H(rs_11_14, rs_11_11, form_14a):
    # M = 1 pair (11, 14): hand-assembled from the a_p
    a = rs_11_14.af.a
    b = rs_11_14.bg.a
    want = 1.0
    for p in (2, 7, 11):
        want /= 1.0 - a(p) * b(p) / p + 1.0 / p          # s = 0
    assert abs(bad_factor_H(rs_11_14, 0.0) - want) < 1e-12
    # p | M with c_p = +1 at s = 0 is a pole
    with pytest.raises(PoleError):
        bad_factor_H(rs_11_11, 0.0)
    # p | M with c_p = -1 at s = 0: factor 1/((1-(-1))(1-(-1)/p)) = p/(2(p+1))
    import copy

    fake = copy.deepcopy(form_14a)
    fake.table.coefficients = form_14a.table.coefficients.copy()
    fake.table.coefficients[2] = -form_14a.table.a(2)
    fake.table.coefficients[7] = -form_14a.table.a(7)
    rs = RankinSeries.build(form_14a, fake)
    h = bad_factor_H(rs, 0.0)
    want = (2.0 / (2.0 * 3.0)) * (7.0 / (2.0 * 8.0))
    assert abs(h - want) < 1e-12


def test_assemble_and_pole_orders(rs_11_14, rs_11_11):
    o = order_of_vanishing(lambda s: _zeta_raw(s), 1.0)
    assert o["order"] == -1 and not o["inconclusive"]
    o = order_of_vanishing(lambda s: (s - 1.0) ** 2, 1.0)
    assert o["order"] == 2 and o["residual"] < 1e-10
    o = order_of_vanishing(lambda s: Phi(rs_11_11, s).value / G_factor(rs_11_11, s), 1.0)
    assert o["order"] == -1 and not o["inconclusive"]
    o = order_of_vanishing(lambda s: assemble_LH2(rs_11_11, s), 2.0)
    assert o["order"] == -3
    o = order_of_vanishing(lambda s: assemble_LH2(rs_11_14, s), 2.0)
    assert o["order"] == -2


def test_sym2_report_and_rejection_path(run_ctx):
    rep = sym2_report(curve_by_label("11a"), run_ctx.pet_ff, run_ctx.rs_ff, run_ctx.res_ff)
    ratio = rep["residue_ratio"].value
    # the stated sum_{d|11} mu(d)/d = 10/11, and the ratio is recognized as it
    best = recognize_rational(ratio, 576, 1e-4)
    assert (best.numerator, best.denominator) == (10, 11)
    assert best.residual < 1e-4
    assert abs(ratio - 10.0 / 11.0) < 1e-4
    assert rep["petersson_ff"] > 0
    # rejection path: a 1% perturbation no longer recognizes at the
    # true denominator scale
    assert recognize_rational(ratio * 1.01, 11, 1e-4) is None


def test_interpolated_afe_weights_match_quadrature(run_ctx):
    """The Chebyshev fit of log w against the 180-node quadrature at
    every k, over the sigma band of the AFE and N = 154, 165, 210."""
    from ellrank import lseries
    from ellrank.modular import CuspFormEval

    he = CuspFormEval.from_curve(curve_by_label("15a"), run_ctx.n_max)
    worst = 0.0
    for fe, ge in ((run_ctx.fe, run_ctx.ge), (run_ctx.fe, he), (run_ctx.ge, he)):
        rs = RankinSeries.build(fe, ge)
        for sigma in (-1.75, -0.5, 0.2345, 1.16, 2.75):
            for T in (0.5, 1.0, 2.0):
                w = lseries.afe_weight(rs, sigma, T)
                keff = lseries._k_effective(rs, T)
                assert keff > lseries._W_NODES and not w[keff:].any()
                beta = rs.A_const * np.arange(1, keff + 1) * T
                ref = T**sigma * lseries._weights_numeric_sigma(sigma, beta)
                big = np.abs(ref) > 1e-17
                worst = max(worst, float(np.max(np.abs(w[:keff][big] / ref[big] - 1.0))))
    assert worst < 2e-12, worst


def _weights_closed_form(sigma: int, A: float, ks: np.ndarray, T: float) -> np.ndarray:
    """w_sigma(k, T) for integer sigma >= 0 by the closed recursion

        I(m; x) = Int_x^inf t^m K_1 dt,  J(m; x) = Int_x^inf t^m K_0 dt,
        I(m) = m J(m-1) + x^m K_0(x),   J(m) = (m-1) I(m-1) + x^m K_1(x),
        I(0) = K_0(x),

    w = (A k)^{-sigma} 4^{1/2-sigma} I(2 sigma; x), x = 2 sqrt(A k T)."""
    from ellrank.specialfn import bessel_k_array

    x = 2.0 * np.sqrt(A * ks * T)
    k0, k1 = bessel_k_array(0.0, x), bessel_k_array(1.0, x)
    I, J, xm = k0.copy(), None, np.ones_like(x)
    for m in range(1, 2 * sigma + 1):
        xm = xm * x
        if m % 2:
            J = (m - 1) * I + xm * k1
        else:
            I = m * J + xm * k0
    return (A * ks) ** (-float(sigma)) * 4.0 ** (0.5 - sigma) * I


def test_afe_weights_at_integer_sigma_match_closed_form(rs_11_11, rs_11_14):
    # the interpolated weights at sigma = 0, 1, 2 against the K_0/K_1
    # recursion, N = 11 and 154
    from ellrank import lseries

    worst = 0.0
    for rs in (rs_11_11, rs_11_14):
        for sigma in (0, 1, 2):
            for T in (0.5, 1.0, 2.0):
                w = lseries.afe_weight(rs, float(sigma), T)
                keff = lseries._k_effective(rs, T)
                ref = _weights_closed_form(sigma, rs.A_const, np.arange(1.0, keff + 1), T)
                big = np.abs(ref) > 1e-17
                worst = max(worst, float(np.max(np.abs(w[:keff][big] / ref[big] - 1.0))))
    assert worst < 1e-12, worst


def _direct_afe_terms(rs, T, coeffs, sigmas):
    """{sigma: fsum_k C_k T^sigma W_sigma(A k T)} by the 180-node v-rule at
    every k <= k_eff, the per-k quadrature of _weights_numeric_sigma."""
    from ellrank import lseries
    from ellrank.specialfn import gauss_panels, xk1_fast

    keff = lseries._k_effective(rs, T)
    ks = np.arange(1.0, keff + 1)
    beta = rs.A_const * T * ks
    v, w = gauss_panels(lseries._V_PANELS, lseries._V_GL)
    phi = xk1_fast(2.0 * np.sqrt(beta[:, None] * np.exp(v)[None, :]))
    C = coeffs[1:keff + 1] / ks
    return {sigma: math.fsum(C * T**sigma * ((phi * np.exp(sigma * v)[None, :]) @ w))
            for sigma in sigmas}


def test_afe_sum_matches_per_k_quadrature(run_ctx):
    """The contracted AFE sums against the per-k quadrature and against
    sum_k C_k afe_weight_k, at N = 154, 165, 210 (U) and N = 11 (the
    Phi+ coefficients), for splits 1/4..4 and sigma in [-1.75, 2.75]."""
    from ellrank import lseries
    from ellrank.modular import CuspFormEval

    he = CuspFormEval.from_curve(curve_by_label("15a"), run_ctx.n_max)
    cases = [(RankinSeries.build(fe, ge), None)
             for fe, ge in ((run_ctx.fe, run_ctx.ge), (run_ctx.fe, he), (run_ctx.ge, he))]
    cases.append((run_ctx.rs_ff, lseries._plus_coefficients(run_ctx.rs_ff)))
    splits = (1 / 4, 1 / 3, 1 / 2, 2 / 3, 1.0, 3 / 2, 2.0, 3.0, 4.0)
    s_values = (-1.75, -0.5, 0.5, 1.5, 2.75)            # closed under s -> 1 - s
    worst_direct = worst_weights = 0.0
    for rs, coeffs in cases:
        coeffs = rs.U if coeffs is None else coeffs
        direct = {T: _direct_afe_terms(rs, T, coeffs, s_values) for T in splits}
        ks = np.arange(1.0, rs.k_max + 1)
        for X in splits:
            for s in s_values:
                S = lseries._afe_sum(rs, s, X, coeffs)
                ref = direct[1.0 / X][s] + direct[X][1.0 - s]
                w = lseries.afe_weight(rs, s, 1.0 / X) + lseries.afe_weight(rs, 1.0 - s, X)
                by_weights = math.fsum(coeffs[1:] / ks * w)
                scale = max(1.0, abs(S))
                worst_direct = max(worst_direct, abs(S - ref) / scale)
                worst_weights = max(worst_weights, abs(S - by_weights) / scale)
    assert worst_direct <= 1e-13 and worst_weights <= 1e-13, (worst_direct, worst_weights)


def test_afe_sum_cache_keys_on_coefficients(rs_11_14):
    """Same (N, k_max), different coefficients: different sums, apart by
    exactly the changed term; equal content shares one contraction."""
    import dataclasses

    from ellrank import lseries

    U2 = rs_11_14.U.copy()
    U2[1] = 3                                      # C_1 = 3 instead of 1
    rs2 = dataclasses.replace(rs_11_14, U=U2)
    for s, X in ((0.5, 1.0), (0.2345, 2.0)):
        S1 = lseries._afe_sum(rs_11_14, s, X, rs_11_14.U)
        S2 = lseries._afe_sum(rs2, s, X, rs2.U)
        w1 = (lseries.afe_weight(rs_11_14, s, 1.0 / X)[0]
              + lseries.afe_weight(rs_11_14, 1.0 - s, X)[0])
        assert abs((S2 - S1) - 2.0 * w1) < 1e-12 * max(1.0, abs(S1)), (s, X)
    row = lseries._afe_row(rs_11_14, 1.0, rs_11_14.U)
    assert lseries._afe_row(rs_11_14, 1.0, rs_11_14.U.copy()) is row


def test_rankin_series_built_once_per_process(run_ctx):
    # equal forms give the same read-only series; other coefficients do not
    import copy

    rs = RankinSeries.build(run_ctx.fe, run_ctx.ge)
    assert RankinSeries.build(copy.deepcopy(run_ctx.fe), run_ctx.ge) is rs is run_ctx.rs
    assert not rs.U.flags.writeable
    fake = copy.deepcopy(run_ctx.ge)
    fake.table.coefficients = run_ctx.ge.table.coefficients.copy()
    fake.table.coefficients[3] += 1
    other = RankinSeries.build(run_ctx.fe, fake)
    assert other is not rs and other.U[3] != rs.U[3]
    assert RankinSeries.build(run_ctx.fe, run_ctx.ge, k_max=1000) is not rs
