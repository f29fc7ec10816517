"""Acceptance suite: one test per criterion, each printing a pass/fail
line with the measured figures.  Tolerances are the stated ones; where
a measured constant is to be reported rather than asserted (resolved
exponents, ratio constants), the value is printed and pinned by
rational recognition."""

import json
import os

import numpy as np

from ellrank import checks
from ellrank.arith import best_rational, recognize_rational
from ellrank.curves import ap_table


def _line(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} - {text}")
    assert ok, text


def brute_count_oracle(curve, p):
    """Exhaustive (x, y) predicate count over F_p^2 (vectorized), an
    independent code path from the quadratic-character production count."""
    a1, a2, a3, a4, a6 = (a % p for a in curve.ainvs)
    x = np.arange(p, dtype=np.int64)[:, None]
    y = np.arange(p, dtype=np.int64)[None, :]
    lhs = (y * y + a1 * x * y + a3 * y) % p
    rhs = (((x * x % p) * x) % p + a2 * x * x + a4 * x + a6) % p
    return int((lhs == rhs).sum()) + 1


def test_criterion_01_ap_tables(run_ctx):
    (rec,) = checks.check_ap(run_ctx)
    ok = rec["status"] == "pass"
    for curve in (run_ctx.c1, run_ctx.c2):
        for p, info in ap_table(curve, int(run_ctx.cfg["p_max"])).items():
            if info.kind == "good":
                ok &= info.ap == p + 1 - brute_count_oracle(curve, p)
            else:
                ok &= curve.conductor % p == 0
    _line(1, ok, "a_p tables for p < 1000 match the exhaustive oracle, "
                 "Hasse bound and |a_p| = 1 at p | N hold")


def test_criterion_02_unfolding(run_ctx):
    (rec,) = checks.check_unfolding(run_ctx)
    rel = rec["diff"] / abs(rec["rhs"])
    _line(2, rec["status"] == "pass" and rel < 1e-10,
          f"unfolding identity at s=2: rel diff {rel:.2e} < 1e-10")


def test_criterion_03_epstein_dual_oracle(run_ctx):
    (rec,) = checks.check_epstein(run_ctx)
    worst, fe_worst = rec["lhs"], rec["extra"]["fe_residual"]
    ok = rec["status"] == "pass" and worst < 1e-9 and fe_worst < 1e-9
    _line(3, ok, f"Epstein dual oracle rel {worst:.2e} < 1e-9 on 20-point grid; "
                 f"functional-equation residual {fe_worst:.2e} < 1e-9 at 15 points")


def test_criterion_04_epstein_residue(run_ctx):
    (rec,) = checks.check_epstein_residue(run_ctx)
    worst, vals = rec["lhs"], rec["extra"]["values"]
    spread = max(vals) - min(vals)
    ok = rec["status"] == "pass" and worst < 1e-6 and spread < 1e-6
    _line(4, ok, f"residue of E* at s=1 equals 1 within {worst:.2e} at three z "
                 f"(z-spread {spread:.2e})")


def test_criterion_05_kronecker_limit(run_ctx):
    (rec,) = checks.check_kronecker(run_ctx)
    worst, spread = rec["lhs"], rec["extra"]["offset_spread"]
    ok = rec["status"] == "pass" and worst < 1e-6 and spread < 1e-8
    _line(5, ok, f"Kronecker limit formula: |lhs-rhs| max {worst:.2e} < 1e-6; "
                 f"constant offset z-spread {spread:.2e} < 1e-8 "
                 f"(offset ~ {rec['extra']['offsets'][0]:.1e})")


def test_criterion_06_rankin_selberg(run_ctx):
    pair, iso = checks.check_rankin_selberg(run_ctx)
    diffs = pair["extra"]["rel_diffs"]
    resolved = pair["extra"]["resolved_exponent"]
    iso_diff = iso["diff"] / abs(iso["lhs"])
    ok = diffs[resolved] < 1e-3 and iso_diff < 1e-3 and resolved == "N^-s d^-s"
    _line(6, ok, f"Rankin-Selberg identity s=2: (11a,14a,N=154) rel {diffs[resolved]:.2e}, "
                 f"(11a,11a,N=11) rel {iso_diff:.2e}; resolved exponent "
                 f"'{resolved}' (the rejected d^-2s convention is off by {diffs['d^-2s']:.1e})")


def test_criterion_07_residue_law(run_ctx):
    (rec,) = checks.check_residue_law(run_ctx)
    res, rhs = rec["lhs"], rec["rhs"]
    rel = rec["diff"] / abs(rhs)
    _line(7, rel < 1e-3, f"residue law: Res Phi = {res:.8f} vs "
                         f"2 pi (sum mu/d) psi (f,f) = {rhs:.8f}, rel {rel:.2e} < 1e-3")


def test_criterion_08_main_theorem(run_ctx):
    ab, ca, nv = checks.check_class_number_formula(run_ctx)
    phi0 = run_ctx.phi0
    reg = ab["rhs"]
    rel_ab = ab["diff"] / abs(phi0.value)
    ratio_ca = ca["lhs"]
    br = best_rational(ratio_ca, 48)
    recognized = recognize_rational(ratio_ca, 48, 1e-4)
    ok = (rel_ab < 1e-3 and recognized is not None and br.denominator <= 48
          and nv["status"] == "pass")
    _line(8, ok,
          f"main theorem: (a) Phi(0) = {phi0.value:.6f}, (b) regulator = {reg:.6f} "
          f"(rel {rel_ab:.2e} < 1e-3); (c)/(a) = {ratio_ca:.8f} recognized as "
          f"{br.numerator}/{br.denominator} (residual {br.residual:.1e} < 1e-4; "
          f"pinning the q-logarithm sum prefactor); |Phi(0)| > 10 (err Phi(0) + "
          f"|Phi(0) - regulator|)")


def test_criterion_09_orthogonality(run_ctx):
    (rec,) = checks.check_orthogonality(run_ctx)
    cross, ff, gg = rec["lhs"], rec["extra"]["ff"], rec["extra"]["gg"]
    ok = cross < 1e-6 and ff > 0 and gg > 0
    _line(9, ok, f"orthogonality: |(f_11a, f_14a)| = {cross:.2e} < 1e-6 while "
                 f"(f,f) = {ff:.6f} > 0 and (g,g) = {gg:.6f} > 0")


def test_criterion_10_pole_orders(run_ctx):
    (rec,) = checks.check_pole_orders(run_ctx)
    o_iso, o_pair = rec["extra"]["isogenous"], rec["extra"]["pair"]
    ok = (o_iso["order"] == -3 and o_iso["residual"] < 0.2
          and o_pair["order"] == -2 and o_pair["residual"] < 0.2)
    _line(10, ok, f"L(H^2) pole orders at s=2: isogenous {o_iso['order']} "
                  f"(residual {o_iso['residual']:.3f}), pair {o_pair['order']} "
                  f"(residual {o_pair['residual']:.3f})")


def test_criterion_11_sym2_recognition(run_ctx):
    (record,) = checks.check_sym2(run_ctx)
    rep = record["extra"]
    rec = rep["residue_ratio_recognized"]
    ok = (rec is not None and rec[1] <= 576
          and rep["residue_ratio_residual"] < 1e-4)
    _line(11, ok, f"sym^2 ratio {rep['residue_ratio']:.8f} recognized as "
                  f"{rec[0]}/{rec[1]} (residual {rep['residue_ratio_residual']:.1e}); "
                  f"recorded, not asserted to equal any predicted constant "
                  f"(area ratio {rep['area_ratio']:.6f} recorded)")


def test_criterion_12_triple_product(run_ctx):
    (rec,) = checks.check_triple_product(run_ctx)
    t = rec["extra"]
    ok = t["order"] == t["predicted"] and t["residual"] < 0.3
    _line(12, ok, f"L(H^4) order at the Tate point: {t['order']} (slope residual "
                  f"{t['residual']:.3f} < 0.3) matches 3 from zeta^3 plus pairwise "
                  f"orders {t['pairwise_orders']}")


def test_criterion_13_determinism(tmp_path):
    from ellrank.cli import main

    outs = []
    for i, workers in enumerate((1, 8, 1)):
        out = str(tmp_path / f"run{i}")
        rc = main(["--out", out, "--workers", str(workers), "--only", "residue_law",
                   "--set", "depth=1", "verify"])
        assert rc == 0
        outs.append(open(os.path.join(out, "report.json"), "rb").read())
    # strip the config (it records out); checks must be identical bytes;
    # --workers is accepted and ignored
    recs = [json.loads(o)["checks"] for o in outs]
    raw = [json.dumps(r, sort_keys=True) for r in recs]
    ok = raw[0] == raw[1] == raw[2]
    _line(13, ok, "verify twice with workers 1 and 8: byte-identical check records")


def test_second_pair_11a_15a_depth1():
    # the whole battery on 11a/15a (N = 165) at depth 1, today's
    # tolerances: guards the coset bookkeeping against tuning to N = 154
    from ellrank.cli import DEFAULT_CONFIG

    cfg = dict(DEFAULT_CONFIG, depth="1", **{"curve2.label": "15a",
                                             "curve2.ainvs": "1,1,1,-10,-10",
                                             "curve2.conductor": "15"})
    ctx = checks.RunContext(cfg)
    assert ctx.N == 165
    records, _ = checks.run(ctx)
    ran = [r for r in records if r["status"] != "skip"]
    assert [r["name"] for r in records if r["status"] == "skip"] == []
    assert all(r["status"] == "pass" for r in ran), [r["name"] for r in ran if not r["passed"]]
