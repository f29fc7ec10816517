import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from ellrank.arith import divisors, index_psi, moebius
from ellrank.domain import (InvarianceError, build_grid, check_invariance,
                            coset_reps, integrate_invariant, pair_tail_bound, petersson,
                            rs_identity_check, sweep_pair_family, unfolding_check)
from oracles import rs_exponent_rel_diffs


def test_coset_counts():
    assert len(coset_reps(1)) == 1
    assert len(coset_reps(11)) == 12
    assert len(coset_reps(154)) == 288
    assert index_psi(154) == 288
    assert index_psi(210) == 576


def test_coset_reps_pairwise_inequivalent():
    for N in (11, 14):
        reps = coset_reps(N)
        for i, r in enumerate(reps):
            for s in reps[i + 1:]:
                # r s^-1 in Gamma_0(N) iff lower-left entry = 0 mod N
                c = r.c * s.d - r.d * s.c
                assert c % N != 0, (N, r, s)


def test_coset_covering(rng):
    # 1000 random modular-group elements each match exactly one rep
    for N in (11, 14, 154):
        reps = coset_reps(N)
        for _ in range(1000):
            a, b, c, d = 1, 0, 0, 1
            for _ in range(4):
                k = int(rng.integers(-3, 4))
                a, b = a + k * c, b + k * d
                a, b, c, d = -c, -d, a, b       # S
            matches = [
                r for r in reps
                if (r.c * d - r.d * c) % N == 0
            ]
            assert len(matches) == 1


def test_grid_nodes_in_domain():
    g = build_grid(1, depth=2, y_cut=12.0)
    # the x >= 0 half of F: today's rules put no node at x = 0
    assert np.all(g.xs > 0) and np.all(g.xs <= 0.5 + 1e-12)
    assert np.all(g.xs**2 + g.ys**2 >= 1.0 - 1e-12)
    assert np.all(g.ys <= 12.0 + 1e-12)
    # one weight row per rule: 2304 nodes of the depth-2 rule, 576 of the
    # depth-1 rule
    assert g.ws.shape == (2, len(g.xs)) and np.all(g.ws >= 0)
    assert (np.count_nonzero(g.ws[0]), np.count_nonzero(g.ws[1])) == (2304, 576)
    # each rule's weights sum to the truncated hyperbolic area
    area = math.pi / 3.0 - 1.0 / 12.0
    assert abs(g.ws[0].sum() - area) < 1e-10
    assert abs(g.ws[1].sum() - area) < 1e-7


def test_area_constant_integrand():
    one = lambda x, y: np.ones_like(np.asarray(x))
    r = integrate_invariant(1, one, build_grid(1, depth=2))
    assert abs(r.value.real - (math.pi / 3.0 - 1.0 / 12.0)) < 1e-9
    r11 = integrate_invariant(11, one, build_grid(11, depth=2))
    assert abs(r11.value.real - 12.0 * (math.pi / 3.0 - 1.0 / 12.0)) < 1e-8


def test_invariance_gate_catches_bad_integrand():
    bad = lambda x, y: np.asarray(x) + 1j * np.asarray(y)
    with pytest.raises(InvarianceError):
        check_invariance(11, bad)


def test_invariance_gate_catches_asymmetric_integrand(form_11a):
    # i |f|^2 y^2 is Gamma_0(11)-invariant, but H(-x, y) = -conj H(x, y):
    # the half-domain grid would take its real part, 0, so the gate refuses it
    from ellrank.modular import eval_form_array

    def H(x, y):
        f = eval_form_array(form_11a, x, y)
        return f * np.conj(f) * y**2
    check_invariance(11, H)
    with pytest.raises(InvarianceError, match="conjugate-symmetric"):
        check_invariance(11, lambda x, y: 1j * H(x, y))
    # integrate_invariant takes the real part, so it gates the symmetry too
    with pytest.raises(InvarianceError, match="conjugate-symmetric"):
        integrate_invariant(11, lambda x, y: 1j * H(x, y), build_grid(11, depth=0))


@pytest.mark.parametrize("N, depth", [(154, 0), (11, 2)])
def test_half_domain_equals_full_domain(N, depth, form_11a, form_14a):
    # the sweep on the x >= 0 half of F against the mirrored full grid
    # (nodes xs and -xs, weights halved), every key summed point by point
    # at gamma_j w: iota(z) = -conj(z) permutes the cosets and each
    # integrand is conjugate-symmetric, so the two sums are equal
    from ellrank.eisenstein import epstein_star_array
    from ellrank.halfplane import apply_moebius
    from ellrank.modular import eval_form_array, log_abs_delta_N_array

    ge = form_14a if N == 154 else form_11a
    grid = build_grid(N, depth=depth)
    fam = sweep_pair_family(form_11a, ge, N, grid, s_values=(2.0,),
                            want_regulator=True, want_cnf=True)
    pos = grid.xs > 0
    xs = np.concatenate([grid.xs, -grid.xs[pos]])
    ys = np.concatenate([grid.ys, grid.ys[pos]])
    w = np.concatenate([np.where(pos, 0.5, 1.0) * grid.ws[0], 0.5 * grid.ws[0][pos]])
    psi = index_psi(N)
    full: dict = {}
    mass: dict = {}             # sum of |terms|, the scale of a sum's rounding
    for r in grid.reps:
        x, y = apply_moebius(r.a, r.b, r.c, r.d, xs, ys)
        f, g = eval_form_array(form_11a, x, y), eval_form_array(ge, x, y)
        fg = f * np.conj(g) * y**2 * w
        log_dn = log_abs_delta_N_array(x, y, N)
        terms = {"pet_fg": fg / psi, "pet_ff": np.abs(f) ** 2 * y**2 * w / psi,
                 "pet_gg": np.abs(g) ** 2 * y**2 * w / psi,
                 "regulator": -(math.pi / 3.0) * fg * log_dn,
                 "cnf": -4.0 * math.pi * fg * log_dn / 24.0}
        for d in divisors(N):
            terms[("eis", 2.0, d)] = fg * epstein_star_array(N * x / d, N * y / d, 2.0)
        for key, v in terms.items():
            full[key] = full.get(key, 0.0) + np.sum(v)
            mass[key] = mass.get(key, 0.0) + np.sum(np.abs(v))
    assert set(full) == set(fam)
    for key, v in full.items():
        # pet_fg and the eis keys for d > 1 vanish when f != g: a rounding floor
        floor = 1e-15 * abs(fam["pet_ff"].value) if key == "pet_fg" else 1e-13 * mass[key]
        assert isinstance(fam[key].value, float)
        assert abs(fam[key].value - v) < max(1e-13 * abs(v), floor), (key, fam[key].value, v)


def test_petersson_positivity_and_hermitian(form_11a):
    p = petersson(form_11a, form_11a, 11, build_grid(11, depth=2))
    assert p.value.real > 0
    assert abs(p.value.imag) < 1e-10
    # converged value (residue law pins the same number independently)
    assert abs(p.value.real - 0.0039083) < 2e-6


def test_petersson_depth_stability(form_11a):
    p2 = petersson(form_11a, form_11a, 11, build_grid(11, depth=2))
    p3 = petersson(form_11a, form_11a, 11, build_grid(11, depth=3))
    assert abs(p2.value.real - p3.value.real) < 1e-6 * p3.value.real


def test_truncation_tail_honesty(form_11a):
    # raising y_cut from 8 to 16 moves the value by less than the
    # reported bound at y_cut = 8
    p8 = petersson(form_11a, form_11a, 11, build_grid(11, depth=3, y_cut=8.0))
    p16 = petersson(form_11a, form_11a, 11, build_grid(11, depth=3, y_cut=16.0))
    assert abs(p8.value.real - p16.value.real) <= p8.abs_error_bound


def test_levels_must_divide(form_11a, form_14a):
    with pytest.raises(ValueError):
        petersson(form_11a, form_14a, 11, build_grid(11, depth=0))


def test_unfolding_identity(form_11a, form_14a):
    u = unfolding_check(form_11a, form_11a, 2.0)
    assert u["rel_diff"] < 1e-10
    u = unfolding_check(form_11a, form_14a, 2.0)
    assert u["rel_diff"] < 1e-10
    u = unfolding_check(form_11a, form_11a, 2.5)
    assert u["rel_diff"] < 1e-10


def test_unfolding_and_residue_records_carry_error_bars(run_ctx, form_11a):
    from ellrank import checks

    (unf,) = checks.check_unfolding(run_ctx)
    (res,) = checks.check_residue_law(run_ctx)
    for rec in (unf, res):
        assert rec["lhs_err"] is not None and math.isfinite(rec["lhs_err"]), rec["name"]
    # the unfolding bar covers the shift to a 48-point rule on the same panels
    a = form_11a.table.coefficients[1:401].astype(float)
    ns = np.arange(1, 401, dtype=float)
    y0 = 1.0 / (8.0 * math.pi * 400)
    edges = [0.0] + [y0 * 2.0**k for k in range(22) if y0 * 2.0**k < 40.0] + [40.0]
    gx, gw = np.polynomial.legendre.leggauss(48)
    ref = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        yn = 0.5 * (hi + lo) + 0.5 * (hi - lo) * gx
        vals = yn**2 * np.sum(a[:, None] ** 2 * np.exp(-4.0 * math.pi * ns[:, None] * yn), axis=0)
        ref += float(np.sum(vals * 0.5 * (hi - lo) * gw))
    assert abs(unf["lhs"] - ref) <= unf["lhs_err"]


def test_rs_identity_N11(run_ctx):
    # the run context's (f, f) sweep at the first curve's level, 11
    chk = rs_identity_check(run_ctx.fe, run_ctx.fe, 11, 2.0, run_ctx.rs_ff, run_ctx.fam_ff)
    assert chk["diff"] < 1e-4
    # of the three printed conventions the stated N^-s d^-s is the closest
    rel_diffs = rs_exponent_rel_diffs(chk["lhs"].value, run_ctx.fam_ff, 11, 2.0)
    assert min(rel_diffs, key=rel_diffs.get) == "N^-s d^-s"
    assert abs(rel_diffs["N^-s d^-s"] - chk["diff"]) < 1e-12
    # the two others are far off
    assert rel_diffs["d^-2s"] > 1.0


def test_rs_identity_degenerate_s25(form_11a, rs_11_11):
    fam = sweep_pair_family(form_11a, form_11a, 11, build_grid(11, depth=2), s_values=(2.5,))
    chk = rs_identity_check(form_11a, form_11a, 11, 2.5, rs_11_11, fam)
    assert chk["diff"] < 1e-4


def test_rs_identity_rejects_bad_s(run_ctx):
    with pytest.raises(ValueError):
        rs_identity_check(run_ctx.fe, run_ctx.fe, 11, 1.1, run_ctx.rs_ff, run_ctx.fam_ff)


def test_regulator_plumbing(form_11a):
    r, r2 = (sweep_pair_family(form_11a, form_11a, 11, build_grid(11, depth=depth),
                               want_regulator=True)["regulator"].value for depth in (1, 2))
    assert abs(r.imag) < 1e-8 * abs(r.real)
    assert abs(r.real - r2.real) < 1e-3 * abs(r2.real)


def test_sweep_reduces_each_hermite_class_once(form_11a, monkeypatch):
    # E* and h = log|Delta| + 6 log y share one SL2(Z) reduction per block of
    # whole Hermite classes, each block of at most max(n, 2^13) nodes
    import ellrank.domain as domain
    from ellrank import halfplane

    calls = []
    monkeypatch.setattr(domain, "sl2z_reduce",
                        lambda x, y: calls.append(x.size) or halfplane.sl2z_reduce(x, y))
    for N in (11, 154):
        grid = build_grid(N, depth=0)
        n = grid.xs.size
        calls.clear()
        sweep_pair_family(form_11a, form_11a, N, grid, s_values=(2.0, 3.0), want_regulator=True)
        assert sum(calls) == n * len(domain._hermite_classes(N, grid.reps)), N
        assert all(c % n == 0 and c <= max(n, domain._NODE_BLOCK) for c in calls), (N, calls)
    assert len(calls) > 1


def _per_class_reference(fe, ge, grid, s_values):
    """The E* and regulator keys class by class: E*(U w) and
    h(U w) = log|Delta(U w)| + 6 log Im(U w) at the unreduced points, each
    member's product with its coset's Re(f conj g) y^2 folded by ws alone."""
    from ellrank.domain import _hermite_classes, slash_on_cosets
    from ellrank.eisenstein import epstein_star_array
    from ellrank.modular import log_abs_eta_array

    fs, gs = slash_on_cosets(fe, grid), slash_on_cosets(ge, grid)
    bs = [(F * np.conj(G)).real * grid.ys**2 for F, G in zip(fs, gs)]
    parts: dict = {}
    for U, members in _hermite_classes(grid.level, grid.reps).items():
        ux, uy = _upper(U, grid.xs, grid.ys)
        estar = {s: epstein_star_array(ux, uy, s) for s in s_values}
        h = 24.0 * log_abs_eta_array(ux, uy) + 6.0 * np.log(uy)
        for j, d in members:
            for s in s_values:
                parts.setdefault(("eis", s, d), []).append(grid.ws @ (bs[j] * estar[s]))
            parts.setdefault("regulator", []).append(moebius(d) * (grid.ws @ (bs[j] * h)))
    out = {}
    for key, pairs in parts.items():
        c = -math.pi / 3.0 if key == "regulator" else 1.0
        fine, coarse = (c * math.fsum(col) for col in np.asarray(pairs).T)
        out[key] = (fine, abs(fine - coarse))
    return out


def _assert_keys_agree(fam, ref, tol):
    # the d != 1 keys vanish by symmetry: their errors are measured
    # against |('eis', s, 1)|
    for key, (value, bar) in ref.items():
        scale = abs(ref[("eis", key[1], 1)][0] if key != "regulator" else value)
        assert abs(fam[key].value - value) <= tol * scale, (key, fam[key], value)
        assert abs(fam[key].abs_error_bound - bar) <= tol * scale, (key, fam[key], bar)


_BLOCK_PAIRS = {154: ("11a", "14a"), 210: ("14a", "15a")}
_BLOCK_S = (2.0, 2.5)       # E*'s Horner route and its Bessel route


def _block_sweep_inputs(N):
    from ellrank.curves import curve_by_label
    from ellrank.modular import CuspFormEval

    fe, ge = (CuspFormEval.from_curve(curve_by_label(c), 4200) for c in _BLOCK_PAIRS[N])
    return fe, ge, build_grid(N, depth=0)


@lru_cache(maxsize=None)
def _block_sweep(N):
    fe, ge, grid = _block_sweep_inputs(N)
    return sweep_pair_family(fe, ge, N, grid, s_values=_BLOCK_S, want_regulator=True)


@pytest.mark.parametrize("N", sorted(_BLOCK_PAIRS))
def test_blocked_class_layer_matches_per_class_reference(N):
    # Lambda(N) = 0 at both levels
    fam = _block_sweep(N)
    ref = _per_class_reference(*_block_sweep_inputs(N), _BLOCK_S)
    assert set(ref) == set(fam) - {"pet_fg", "pet_ff", "pet_gg"}
    _assert_keys_agree(fam, ref, 1e-13)


def test_one_class_blocks_agree(monkeypatch):
    # blocks of one class each give every key of the default blocks
    import ellrank.domain as domain

    fe, ge, grid = _block_sweep_inputs(154)
    monkeypatch.setattr(domain, "_NODE_BLOCK", grid.xs.size)
    one = sweep_pair_family(fe, ge, 154, grid, s_values=_BLOCK_S, want_regulator=True)
    _assert_keys_agree(one, {k: (r.value, r.abs_error_bound) for k, r in _block_sweep(154).items()
                             if k not in ("pet_fg", "pet_ff", "pet_gg")}, 1e-14)


def test_verify_sweep_memory_peak(form_11a, form_14a):
    # the traced peak of the N = 154 verify sweep, caches warmed at depth 0:
    # the class layer's blocks and fold chunks stay bounded
    import tracemalloc

    kw = dict(s_values=(2.0,), want_regulator=True, want_cnf=True)
    sweep_pair_family(form_11a, form_14a, 154, build_grid(154, depth=0), **kw)
    for depth, cap_mb in ((1, 6.0), (2, 16.0)):
        grid = build_grid(154, depth=depth)
        tracemalloc.start()
        try:
            sweep_pair_family(form_11a, form_14a, 154, grid, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap_mb * 1e6, (depth, peak)


def test_cnf_guard_N1(form_11a):
    # no primitive residues mod 1: the cyclotomic sum is refused
    with pytest.raises(ValueError):
        sweep_pair_family(form_11a, form_11a, 1, build_grid(1, depth=0), want_cnf=True)


def test_regulator_conjugate_symmetry(form_11a, form_14a):
    # value(f, g) = conj(value(g, f)) on the same sweep
    grid = build_grid(154, depth=0, y_cut=8.0)
    a = sweep_pair_family(form_11a, form_14a, 154, grid, want_regulator=True)["regulator"].value
    b = sweep_pair_family(form_14a, form_11a, 154, grid, want_regulator=True)["regulator"].value
    assert abs(a - b.conjugate()) < 1e-8 * abs(a)


def test_class_factored_form_values_match_direct(form_11a, form_14a):
    # f(gamma_j w) rebuilt from one evaluation per level-L coset equals the
    # direct evaluation at every Gamma_0(154) coset image of the grid
    from ellrank.domain import slash_on_cosets
    from ellrank.halfplane import apply_moebius
    from ellrank.modular import eval_form_array

    grid = build_grid(154, depth=0, y_cut=12.0)
    w = grid.xs + 1j * grid.ys
    for form in (form_11a, form_14a):
        slashed = slash_on_cosets(form, grid)
        assert len(slashed) == 288
        assert len({id(v) for v in slashed}) == index_psi(form.level)
        for rep, h in zip(grid.reps, slashed):
            wx, wy = apply_moebius(rep.a, rep.b, rep.c, rep.d, grid.xs, grid.ys)
            direct = eval_form_array(form, wx, wy)
            factored = (rep.c * w + rep.d) ** 2 * h
            # compare in the invariant size |f(z)| Im z
            scale = np.max(np.abs(direct) * wy)
            assert np.max(np.abs(factored - direct) * wy) < 1e-10 * scale, (form.level, rep)


def test_petersson_154_matches_direct_sweep(form_11a, form_14a):
    # values of the per-coset sweep (every form evaluated at all 288 coset
    # images), depth 1: (f, g) is a zero at rounding level, the norms and
    # the error bound (dominated by the cusp tail) are pinned
    grid = build_grid(154, depth=1)
    p = petersson(form_11a, form_14a, 154, grid)
    assert abs(p.value) < 1e-15
    assert abs(p.abs_error_bound - 1.3425963781909777e-07) < 1e-9 * 1.3425963781909777e-07
    ff = petersson(form_11a, form_11a, 154, grid)
    assert abs(ff.value - 0.003908338232145922) < 1e-9 * 0.003908338232145922
    gg = petersson(form_14a, form_14a, 154, grid)
    assert abs(gg.value - 0.0027717522322518433) < 1e-9 * 0.0027717522322518433


def _random_f(rng, n):
    """n random points of the fundamental domain F (y < 3)."""
    x = rng.uniform(-0.5, 0.5, n)
    y = np.sqrt(1.0 - x * x) + rng.uniform(0.0, 3.0, n)
    return x, y


def _upper(U, x, y):
    alpha, beta, delta = U
    return (alpha * x + beta) / delta, alpha * y / delta


@pytest.mark.parametrize("N", [154, 165, 210])
def test_hermite_class_count(N):
    # one class per upper-triangular [alpha beta; 0 delta], alpha delta = m,
    # 0 <= beta < delta, for each m | N: sum_{m|N} sigma_1(m) of them
    from ellrank.domain import _hermite_classes

    classes = _hermite_classes(N, coset_reps(N))
    assert len(classes) == sum(sum(divisors(m)) for m in divisors(N))
    assert sum(len(v) for v in classes.values()) == index_psi(N) * len(divisors(N))
    for (alpha, beta, delta), members in classes.items():
        assert alpha > 0 and 0 <= beta < delta
        assert all(alpha * delta == N // d for _, d in members)


def test_hermite_classes_carry_eisenstein_and_regulator(rng):
    # E*(N gamma w / d, s) = E*(U w, s) and
    # log|Delta_N(gamma w)| = sum_d mu(d) h(U_{j,d} w) - 6 Lambda(N)
    from ellrank.eisenstein import epstein_star_array
    from ellrank.halfplane import apply_moebius, hermite
    from ellrank.modular import log_abs_delta_N_array, log_abs_eta_array

    N = 154
    reps = coset_reps(N)
    x, y = _random_f(rng, 12)
    for j in rng.choice(len(reps), 24, replace=False):
        rep = reps[j]
        gx, gy = apply_moebius(rep.a, rep.b, rep.c, rep.d, x, y)
        hsum = np.zeros_like(x)
        for d in divisors(N):
            ux, uy = _upper(hermite(N // d, rep.a, rep.b, rep.c, rep.d), x, y)
            a = epstein_star_array(N * gx / d, N * gy / d, 2.0)
            b = epstein_star_array(ux, uy, 2.0)
            assert np.max(np.abs(a / b - 1.0)) < 1e-11, (rep, d)
            hsum += moebius(d) * (24.0 * log_abs_eta_array(ux, uy) + 6.0 * np.log(uy))
        ref = log_abs_delta_N_array(gx, gy, N)
        assert np.max(np.abs(hsum - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref))), rep


@pytest.mark.parametrize("N", [154, 210])
def test_cusp_matrix_atkin_lehner_covariance(N, rng):
    # M = U gamma^{-1} is an exact integer matrix of det Q in W_Q Gamma_0(N)
    # (shape [Q x, y; N z, Q w]) with M gamma = U upper triangular; the
    # cyclotomic sum C = log|Delta_N| / 24 obeys C(gamma w) = mu(Q) C(U w)
    from ellrank.halfplane import apply_moebius, hermite
    from ellrank.modular import cyclotomic_qlog_sum_array, log_abs_delta_N_array

    g = build_grid(N, depth=0, y_cut=12.0)
    x, y = _random_f(rng, 8)
    for rep in coset_reps(N):
        Q = N // math.gcd(rep.c, N)
        alpha, beta, delta = U = hermite(Q, rep.a, rep.b, rep.c, rep.d)
        m = (alpha * rep.d - beta * rep.c, beta * rep.a - alpha * rep.b,
             -delta * rep.c, delta * rep.a)
        assert m[0] * m[3] - m[1] * m[2] == Q == alpha * delta
        assert m[0] % Q == 0 and m[2] % N == 0 and m[3] % Q == 0
        # M gamma = U
        assert (m[0] * rep.a + m[1] * rep.c, m[0] * rep.b + m[1] * rep.d,
                m[2] * rep.a + m[3] * rep.c, m[2] * rep.b + m[3] * rep.d) == (alpha, beta, 0, delta)
        assert np.min(_upper(U, g.xs, g.ys)[1]) >= math.sqrt(3.0) / (2.0 * N)
        gx, gy = apply_moebius(rep.a, rep.b, rep.c, rep.d, x, y)
        c, deep = cyclotomic_qlog_sum_array(*_upper(U, x, y), N)
        assert not deep.any()
        ref = log_abs_delta_N_array(gx, gy, N) / 24.0
        assert np.max(np.abs(moebius(Q) * c - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref))), rep


def _p1_orbit_minima(N: int) -> tuple:
    # P^1(Z/N) by enumeration: the least pair of each unit-scaling orbit
    units = [u for u in range(1, N) if math.gcd(u, N) == 1] or [1]
    seen, classes = set(), []
    for c in range(N):
        for d in range(N):
            if math.gcd(math.gcd(c, d), N) != 1 or (c, d) in seen:
                continue
            orbit = {((u * c) % N, (u * d) % N) for u in units}
            seen.update(orbit)
            classes.append(min(orbit))
    return tuple(sorted(classes))


def test_p1_classes_are_the_orbit_minima():
    from ellrank.arith import is_squarefree
    from ellrank.domain import _p1_classes

    for N in [n for n in range(1, 80) if is_squarefree(n)] + [154, 165, 210]:
        assert _p1_classes(N) == _p1_orbit_minima(N), N
    for N in (4, 36):
        with pytest.raises(ValueError, match="square-free"):
            coset_reps(N)


@pytest.mark.parametrize("N", [6, 11, 14, 154, 165, 210, 407, 1155])
def test_cusp_classes_form_atkin_lehner_families(N):
    # square-free N: the cyclotomic class of every rep is [1 beta; 0 Q],
    # Q = N / gcd(c, N), and each Q's reps take every beta mod Q once
    from ellrank.domain import _cusp_families
    from ellrank.halfplane import hermite

    reps = coset_reps(N)
    betas: dict = {}
    for rep in reps:
        Q = N // math.gcd(rep.c, N)
        alpha, beta, delta = hermite(Q, rep.a, rep.b, rep.c, rep.d)
        assert (alpha, delta) == (1, Q), rep
        betas.setdefault(Q, []).append(beta)
    assert sorted(betas) == divisors(N)
    for Q, bs in betas.items():
        assert sorted(bs) == list(range(Q)), Q
    fams = _cusp_families(N, reps)
    assert {Q: [b for _, b in m] for Q, m in fams.items()} == betas
    assert sorted(j for m in fams.values() for j, _ in m) == list(range(len(reps)))


@pytest.mark.parametrize("N", [11, 22])
def test_sweep_matches_per_point_integrals(N, form_11a):
    # the class-streamed sweep against integrate_invariant on the same grid,
    # every integrand evaluated pointwise at gamma_j w; at prime N the
    # cyclotomic sum carries the Lambda(N) constant of W_N
    from ellrank.eisenstein import epstein_star_array
    from ellrank.modular import eval_form_array, log_abs_delta_N_array

    grid = build_grid(N, depth=0, y_cut=12.0)
    fam = sweep_pair_family(form_11a, form_11a, N, grid, s_values=(2.0,),
                            want_regulator=True, want_cnf=True)

    def pointwise(weight):
        def H(x, y):
            return np.abs(eval_form_array(form_11a, x, y)) ** 2 * y**2 * weight(x, y)
        return integrate_invariant(N, H, grid=grid).value

    # the sweep's normalisations: 1/psi(N), -pi/3 and -4 pi
    pet = pointwise(lambda x, y: 1.0)
    scale = abs(pet)
    want = {"pet_fg": pet / index_psi(N),
            "regulator": -(math.pi / 3.0) * pointwise(
                lambda x, y: log_abs_delta_N_array(x, y, N)),
            "cnf": -4.0 * math.pi * pointwise(
                lambda x, y: log_abs_delta_N_array(x, y, N) / 24.0)}
    for d in divisors(N):
        want[("eis", 2.0, d)] = pointwise(
            lambda x, y: epstein_star_array(N * x / d, N * y / d, 2.0))
    for key, v in want.items():
        assert abs(fam[key].value - v) < 1e-12 * max(abs(v), scale), (key, fam[key], v)


@pytest.mark.parametrize("depth", [1, 2])
def test_sweep_error_is_the_depth_doubling_difference(depth, form_11a):
    # one sweep's error on every key is its distance to the sweep one depth
    # coarser (plus the cusp tail for the Petersson products): the grid's
    # second weight row is that coarser rule
    kw = dict(s_values=(2.0,), want_regulator=True, want_cnf=True)
    fine, coarse = (sweep_pair_family(form_11a, form_11a, 11, build_grid(11, depth=d), **kw)
                    for d in (depth, depth - 1))
    tail = pair_tail_bound(form_11a, form_11a, 11, 12.0)
    scale = abs(fine["pet_fg"].value)
    assert len(fine) == 7
    for key in fine:
        shift = abs(fine[key].value - coarse[key].value)
        extra = tail if key in ("pet_fg", "pet_ff", "pet_gg") else 0.0
        assert shift > 1e-10 * max(abs(fine[key].value), scale), key
        assert abs(fine[key].abs_error_bound - extra - shift) < 1e-12 * max(
            abs(fine[key].value), scale), (key, fine[key], shift)


_SWEEP_KW = dict(s_values=(2.0,), want_regulator=True, want_cnf=True)


def test_node_order_is_free(form_11a, rng):
    # ws is the grid's only description of its rules: permuting the nodes
    # (columns of xs, ys and ws) leaves every integral and bar unchanged
    grid = build_grid(11, depth=1)
    perm = rng.permutation(grid.xs.size)
    shuffled = replace(grid, xs=grid.xs[perm], ys=grid.ys[perm], ws=grid.ws[:, perm])
    a, b = (sweep_pair_family(form_11a, form_11a, 11, g, **_SWEEP_KW) for g in (grid, shuffled))
    for key in a:
        scale = abs(a[key].value)
        assert abs(a[key].value - b[key].value) < 1e-13 * scale, key
        assert abs(a[key].abs_error_bound - b[key].abs_error_bound) < 1e-13 * scale, key
    one = lambda x, y: np.ones_like(np.asarray(x))
    u, v = (integrate_invariant(11, one, g) for g in (grid, shuffled))
    assert abs(u.value - v.value) < 1e-13 * u.value
    assert abs(u.abs_error_bound - v.abs_error_bound) < 1e-13 * u.value


def test_equal_rules_leave_only_the_tail(form_11a):
    # rows may share nodes: with the depth rule in both rows, every bar is
    # its cusp tail alone (0 outside the Petersson keys)
    grid = build_grid(11, depth=1)
    same = replace(grid, ws=np.vstack([grid.ws[0], grid.ws[0]]))
    fam = sweep_pair_family(form_11a, form_11a, 11, same, **_SWEEP_KW)
    ref = sweep_pair_family(form_11a, form_11a, 11, grid, **_SWEEP_KW)
    tail = pair_tail_bound(form_11a, form_11a, 11, grid.y_cut)
    for key, r in fam.items():
        assert abs(r.value - ref[key].value) <= 1e-15 * abs(ref[key].value), key
        assert r.abs_error_bound == (tail if key in ("pet_fg", "pet_ff", "pet_gg") else 0.0), key
    one = lambda x, y: np.ones_like(np.asarray(x))
    assert integrate_invariant(11, one, same).abs_error_bound == 0.0


def test_grid_of_another_level_is_refused(form_11a):
    grid = build_grid(11, depth=0)
    with pytest.raises(ValueError, match="level 11"):
        sweep_pair_family(form_11a, form_11a, 22, grid, **_SWEEP_KW)
    with pytest.raises(ValueError, match="level 11"):
        petersson(form_11a, form_11a, 22, grid)
    with pytest.raises(ValueError, match="level 11"):
        integrate_invariant(22, lambda x, y: np.ones_like(np.asarray(x)), grid)
