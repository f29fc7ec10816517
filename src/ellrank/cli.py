"""Command-line front end: coefficient caching, batch verification,
report emission.

Subcommands: ap, verify, lvalue, petersson, eisenstein, report.
Exit codes: 0 success, 1 check failure, 2 usage error.

Configuration is a flat key=value text file (see DEFAULT_CONFIG);
--set key=value overrides individual entries.  verify writes
report.json (deterministic bytes: no volatile fields) plus timing.json
(wall times, not covered by the byte-identity guarantee).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

DEFAULT_CONFIG = {
    "curve1.label": "11a",
    "curve1.ainvs": "0,-1,1,-10,-20",
    "curve1.conductor": "11",
    "curve2.label": "14a",
    "curve2.ainvs": "1,0,1,4,-6",
    "curve2.conductor": "14",
    "n_max": "4200",
    "p_max": "1000",
    "depth": "2",
    "y_cut": "12.0",
    "workers": "1",
    "out": ".",
    "deg_phi1": "",
    "deg_phi2": "",
    "manin_c1": "1",
    "manin_c2": "1",
}

CHECK_NAMES = [
    "ap", "unfolding", "epstein", "epstein_residue", "kronecker",
    "rankin_selberg", "residue_law", "orthogonality",
    "class_number_formula", "pole_orders", "sym2", "triple_product",
]


class UsageError(Exception):
    pass


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if path:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"malformed config line: {raw.rstrip()}")
                k, v = (t.strip() for t in line.split("=", 1))
                cfg[k] = v
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"malformed --set override: {item}")
        k, v = (t.strip() for t in item.split("=", 1))
        cfg[k] = v
    return cfg


def _curve_from_config(cfg: dict, idx: int):
    from .curves import CurveModel

    ainvs = [int(t) for t in cfg[f"curve{idx}.ainvs"].split(",")]
    if len(ainvs) != 5:
        raise UsageError(f"curve{idx}.ainvs needs 5 integers")
    return CurveModel(*ainvs, conductor=int(cfg[f"curve{idx}.conductor"]),
                      label=cfg[f"curve{idx}.label"])


def _write_ap_csv(path: str, table: dict):
    lines = ["p,kind,ap"]
    for p in sorted(table):
        info = table[p]
        lines.append(f"{p},{info.kind},{info.ap}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_ap_csv(path: str) -> dict:
    from .curves import ReductionInfo

    out = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "p,kind,ap":
            raise UsageError(f"unexpected header in {path}")
        for line in fh:
            p, kind, ap = line.strip().split(",")
            out[int(p)] = ReductionInfo(int(p), kind, int(ap))
    return out


def cmd_ap(cfg: dict) -> int:
    from .curves import ap_table

    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    p_max = int(cfg["p_max"])
    workers = int(cfg["workers"])
    for idx in (1, 2):
        curve = _curve_from_config(cfg, idx)
        path = os.path.join(out_dir, f"ap_{curve.label}.csv")
        if os.path.exists(path):
            cached = _read_ap_csv(path)
            if cached and all(p in cached for p in _primes(p_max)):
                print(f"{path}: cache covers p_max={p_max}, reusing")
                continue
        table = ap_table(curve, p_max, workers=workers)
        _write_ap_csv(path, table)
        print(f"{path}: wrote {len(table)} rows")
    return 0


def _primes(n):
    from .curves import primes_up_to

    return [int(p) for p in primes_up_to(n)]


def _forms(cfg, n_max=None):
    from .modular import CuspFormEval

    n_max = n_max or int(cfg["n_max"])
    c1 = _curve_from_config(cfg, 1)
    c2 = _curve_from_config(cfg, 2)
    return c1, c2, CuspFormEval.from_curve(c1, n_max), CuspFormEval.from_curve(c2, n_max)


# --------------------------------------------------------------- checks

def _run_checks(cfg: dict, only: str | None) -> tuple[list[dict], dict]:
    """Every record: name, lhs, rhs, diff, tolerance, passed, pipelines."""
    from .arith import best_rational
    from .curves import ap_table
    from .domain import (index_psi, petersson, rs_identity_check, sweep_pair_family,
                         _grid_pair, unfolding_check)
    from .eisenstein import (epstein_completed, epstein_lattice, epstein_residue,
                             kronecker_limit_check)
    from .halfplane import UHPoint
    from .lseries import (RankinSeries, afe_eval, assemble_LH2, order_of_vanishing,
                          residue_at_1, sym2_report)
    from .modular import CuspFormEval

    depth = int(cfg["depth"])
    y_cut = float(cfg["y_cut"])
    workers = int(cfg["workers"])
    records: list[dict] = []
    timings: dict = {}

    def want(name):
        return only is None or only == name

    def add(name, lhs, rhs, tolerance, extra=None, pipelines=""):
        diff = abs(lhs - rhs) if rhs not in (None, "") else abs(lhs)
        rec = {
            "name": name,
            "lhs": _num(lhs),
            "rhs": _num(rhs),
            "diff": _num(diff),
            "tolerance": tolerance,
            "passed": bool(diff <= tolerance),
            "pipelines": pipelines,
        }
        if extra:
            rec["extra"] = extra
        records.append(rec)
        return rec["passed"]

    c1, c2, fe, ge = _forms(cfg)
    N = math.lcm(c1.conductor, c2.conductor)
    # (f, f) at the first curve's level: shared by residue_law and sym2
    pet_ff = functools.cache(lambda: petersson(fe, fe, c1.conductor, depth=depth,
                                               y_cut=y_cut, workers=workers))

    if want("ap"):
        t0 = time.perf_counter()
        ok = True
        for curve in (c1, c2):
            tab = ap_table(curve, int(cfg["p_max"]), workers=workers)
            for p, info in tab.items():
                if info.kind == "good" and info.ap * info.ap > 4 * p:
                    ok = False
                if curve.conductor % p == 0 and abs(info.ap) != 1:
                    ok = False
        add("ap", 0.0 if ok else 1.0, 0.0, 0.5,
            extra={"curves": [c1.label, c2.label]}, pipelines="point-count")
        timings["ap"] = time.perf_counter() - t0

    if want("unfolding"):
        t0 = time.perf_counter()
        u = unfolding_check(fe, fe, 2.0)
        add("unfolding", u["lhs"], u["rhs"], 1e-10 * abs(u["rhs"]),
            pipelines="series,quadrature-1d")
        timings["unfolding"] = time.perf_counter() - t0

    if want("epstein"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            x, y = rng.uniform(-0.45, 0.45), rng.uniform(0.6, 3.0)
            s = rng.uniform(1.2, 3.0)
            a = epstein_lattice(UHPoint(x, y), s, tol=1e-12).value * (
                math.pi ** (-s) * math.gamma(s))
            b = epstein_completed(UHPoint(x, y), s).value
            worst = max(worst, abs(a / b - 1.0))
        fe_worst = 0.0
        for s in (-0.5, 0.25, 0.4):
            for xx, yy in ((0.0, 1.0), (0.3, 1.7), (-0.2, 0.9), (0.45, 2.4), (0.1, 1.2)):
                fe_worst = max(fe_worst, abs(
                    epstein_completed(UHPoint(xx, yy), s).value
                    - epstein_completed(UHPoint(xx, yy), 1.0 - s).value))
        add("epstein", worst, 0.0, 1e-9, extra={"fe_residual": fe_worst},
            pipelines="theta-lattice,fourier-bessel")
        timings["epstein"] = time.perf_counter() - t0

    if want("epstein_residue"):
        t0 = time.perf_counter()
        worst = 0.0
        vals = []
        for xx, yy in ((0.0, 1.0), (0.5, 3.0), (0.23, 0.9)):
            r = epstein_residue(UHPoint(xx, yy)).value
            vals.append(r)
            worst = max(worst, abs(r - 1.0))
        add("epstein_residue", worst, 0.0, 1e-6,
            extra={"values": [_num(v) for v in vals]}, pipelines="richardson")
        timings["epstein_residue"] = time.perf_counter() - t0

    if want("kronecker"):
        t0 = time.perf_counter()
        diffs = []
        for xx, yy in ((0.0, 1.0), (0.0, 2.0), (0.3, 1.4)):
            lhs, rhs, diff = kronecker_limit_check(UHPoint(xx, yy))
            diffs.append(diff)
        spread = max(diffs) - min(diffs)
        add("kronecker", max(abs(d) for d in diffs), 0.0, 1e-6,
            extra={"offsets": [_num(d) for d in diffs], "offset_spread": _num(spread)},
            pipelines="richardson,eta")
        timings["kronecker"] = time.perf_counter() - t0

    rs = None
    if want("rankin_selberg") or want("orthogonality") or want("class_number_formula") or want("residue_law"):
        rs = RankinSeries.build(fe, ge)

    fam = None
    if want("rankin_selberg") or want("orthogonality") or want("class_number_formula"):
        t0 = time.perf_counter()
        grid = _grid_pair(N, depth, y_cut)
        fam = sweep_pair_family(fe, ge, N, grid, s_values=(2.0,), want_regulator=True,
                                want_cnf=True, want_norms=True, workers=workers)
        timings["sweep_pair_family"] = time.perf_counter() - t0

    if want("rankin_selberg"):
        t0 = time.perf_counter()
        chk = rs_identity_check(fe, ge, N, 2.0, depth=depth, y_cut=y_cut,
                                workers=workers, rs=rs, fam=fam)
        add("rankin_selberg", chk["lhs"], chk["rhs"][chk["resolved_exponent"]],
            1e-3 * abs(chk["lhs"]),
            extra={"resolved_exponent": chk["resolved_exponent"],
                   "rel_diffs": {k: _num(v) for k, v in chk["rel_diffs"].items()}},
            pipelines="direct-series,eisenstein-quadrature")
        # isogenous copy at the first curve's own level
        rs_iso = RankinSeries.build(fe, fe)
        chk2 = rs_identity_check(fe, fe, c1.conductor, 2.0, depth=depth,
                                 y_cut=y_cut, workers=workers, rs=rs_iso)
        add("rankin_selberg_isogenous", chk2["lhs"],
            chk2["rhs"][chk2["resolved_exponent"]], 1e-3 * abs(chk2["lhs"]),
            extra={"resolved_exponent": chk2["resolved_exponent"]},
            pipelines="direct-series,eisenstein-quadrature")
        timings["rankin_selberg"] = time.perf_counter() - t0

    if want("residue_law"):
        t0 = time.perf_counter()
        rs_iso = RankinSeries.build(fe, fe)
        res = residue_at_1(rs_iso)
        pet = pet_ff()
        rhs = 2.0 * math.pi * sum_mu_over_d(c1.conductor) * index_psi(c1.conductor) * pet.value.real
        add("residue_law", res["residue"], rhs, 1e-3 * abs(rhs),
            pipelines="afe,quadrature")
        timings["residue_law"] = time.perf_counter() - t0

    if want("orthogonality") and fam is not None:
        t0 = time.perf_counter()
        psi = index_psi(N)
        val = abs(fam["pet_fg"]) / psi
        ok_pos = fam["pet_ff"].real > 0 and fam["pet_gg"].real > 0
        add("orthogonality", val, 0.0, 1e-6,
            extra={"ff": _num(fam["pet_ff"].real / psi), "gg": _num(fam["pet_gg"].real / psi),
                   "norms_positive": ok_pos},
            pipelines="quadrature")
        timings["orthogonality"] = time.perf_counter() - t0

    if want("class_number_formula") and fam is not None:
        t0 = time.perf_counter()
        phi0 = afe_eval(rs, 0.0)
        reg = -(math.pi / 3.0) * fam["regulator"].real
        cnf = -4.0 * math.pi * fam["cnf"].real
        ok_ab = add("cnf_a_vs_b", phi0.value, reg, 1e-3 * abs(phi0.value),
                    pipelines="afe,regulator")
        ratio = cnf / phi0.value
        br = best_rational(ratio, 48)
        add("cnf_c_ratio", ratio, br.numerator / br.denominator, 1e-4,
            extra={"recognized": [br.numerator, br.denominator],
                   "deep_fraction": _num(fam["cnf_deep_measure"].real
                                         / (index_psi(N) * (math.pi / 3 - 1 / y_cut)))},
            pipelines="cyclotomic-qlog,afe")
        nonvanishing = abs(phi0.value) > 10.0 * (phi0.error + abs(phi0.value - reg))
        add("cnf_nonvanishing", 1.0 if nonvanishing else 0.0, 1.0, 0.5,
            pipelines="afe")
        timings["class_number_formula"] = time.perf_counter() - t0

    if want("pole_orders"):
        t0 = time.perf_counter()
        rs_iso = RankinSeries.build(fe, fe)
        rs_pair = rs if rs is not None else RankinSeries.build(fe, ge)
        o_iso = order_of_vanishing(lambda s: assemble_LH2(rs_iso, s), 2.0)
        o_pair = order_of_vanishing(lambda s: assemble_LH2(rs_pair, s), 2.0)
        ok = (o_iso["order"] == -3 and o_pair["order"] == -2
              and o_iso["residual"] < 0.2 and o_pair["residual"] < 0.2)
        add("pole_orders", 0.0 if ok else 1.0, 0.0, 0.5,
            extra={"isogenous": o_iso, "pair": o_pair},
            pipelines="afe,log-slope")
        timings["pole_orders"] = time.perf_counter() - t0

    if want("sym2"):
        t0 = time.perf_counter()
        rep = sym2_report(c1, fe, depth=depth, y_cut=y_cut, workers=workers, pet=pet_ff(),
                          deg_phi=_maybe_int(cfg.get("deg_phi1", "")),
                          manin_c=int(cfg.get("manin_c1", "1")))
        ok = (rep["residue_ratio_recognized"] is not None
              and rep["residue_ratio_residual"] < 1e-4)
        add("sym2", rep["residue_ratio_residual"], 0.0, 1e-4,
            extra={k: _num(v) for k, v in rep.items() if not isinstance(v, (dict,))},
            pipelines="afe,quadrature,agm")
        timings["sym2"] = time.perf_counter() - t0

    if want("triple_product"):
        t0 = time.perf_counter()
        rec = _triple_product_check(cfg)
        if rec is None:
            records.append({
                "name": "triple_product", "lhs": None, "rhs": None, "diff": None,
                "tolerance": 0.3, "passed": True, "pipelines": "afe,log-slope",
                "extra": {"skipped": "needs the default 11a/14a pair plus built-in 15a"},
            })
        else:
            add("triple_product", rec["slope"], rec["predicted"], 0.3,
                extra=rec, pipelines="afe,log-slope")
        timings["triple_product"] = time.perf_counter() - t0

    return records, timings


def sum_mu_over_d(N: int) -> float:
    from .arith import divisors, moebius

    return sum(moebius(d) / d for d in divisors(N))


def _maybe_int(s):
    return int(s) if s else None


def _num(v):
    if v is None:
        return None
    if isinstance(v, complex):
        return [float(v.real), float(v.imag)]
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, (tuple, list)):
        return [_num(t) for t in v]
    return v if isinstance(v, (int, str, bool, dict)) else float(v)


def _triple_product_check(cfg):
    from .curves import curve_by_label
    from .lseries import (RankinSeries, Phi, G_factor, bad_factor_H,
                          order_of_vanishing)
    from .modular import CuspFormEval
    from .specialfn import _zeta_raw

    if cfg["curve1.label"] != "11a" or cfg["curve2.label"] != "14a":
        return None
    n_max = int(cfg["n_max"])
    fe = CuspFormEval.from_curve(curve_by_label("11a"), n_max)
    ge = CuspFormEval.from_curve(curve_by_label("14a"), n_max)
    he = CuspFormEval.from_curve(curve_by_label("15a"), n_max)
    pairs = [RankinSeries.build(a, b) for a, b in ((fe, ge), (fe, he), (ge, he))]

    def LH4(s):
        u = s - 2.0
        out = _zeta_raw(u) ** 3
        for rr in pairs:
            out *= Phi(rr, u).value / G_factor(rr, u) * bad_factor_H(rr, u)
        return out

    o4 = order_of_vanishing(LH4, 3.0)
    pairwise = []
    for rr in pairs:
        ov = order_of_vanishing(lambda s: Phi(rr, s - 2.0).value / G_factor(rr, s - 2.0), 3.0)
        pairwise.append(ov["order"])
    predicted = -(3 + sum(-o for o in pairwise))
    return {
        "slope": o4["slope"],
        "order": o4["order"],
        "predicted": predicted,
        "pairwise_orders": pairwise,
        "residual": o4["residual"],
    }


def cmd_verify(cfg: dict, only: str | None, json_indent: int | None) -> int:
    if only is not None and only not in CHECK_NAMES:
        raise UsageError(f"--only must be one of {CHECK_NAMES}")
    records, timings = _run_checks(cfg, only)
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "checks": records,
        "all_passed": all(r["passed"] for r in records),
    }
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=json_indent)
        fh.write("\n")
    with open(os.path.join(out_dir, "timing.json"), "w") as fh:
        json.dump({k: round(v, 3) for k, v in timings.items()}, fh, indent=2)
        fh.write("\n")
    for r in records:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status}: {r['name']} (diff={r['diff']}, tol={r['tolerance']})")
    print(f"report written to {path}")
    return 0 if report["all_passed"] else 1


def cmd_lvalue(cfg: dict, s: float) -> int:
    """Rows report L_{f,g}(s); at s = 0 they report L'_{f,g}(0) = Phi(0)
    (the value L(0) itself vanishes)."""
    from .lseries import G_factor, L_direct, RankinSeries, afe_eval
    from .specialfn import PoleError

    _, _, fe, ge = _forms(cfg)
    rs = RankinSeries.build(fe, ge)
    rows = []
    if s >= 1.3:
        r = L_direct(rs, s)
        rows.append(("direct-series", s, r.value, r.error))
    if -0.5 <= s <= 2.75:
        try:
            r = afe_eval(rs, s)
            if s == 0.0:
                rows.append(("afe", s, r.value, r.error))
            else:
                g = G_factor(rs, s)
                rows.append(("afe", s, r.value / g, r.error / abs(g)))
        except PoleError as exc:
            print(f"warning,{s},pole,{exc}")
    if s == 0.0 and not rs.isogenous:
        from .domain import regulator_integral

        r = regulator_integral(fe, ge, rs.N, depth=int(cfg["depth"]),
                               y_cut=float(cfg["y_cut"]), workers=int(cfg["workers"]))
        rows.append(("regulator", s, r.value.real, r.abs_error_bound))
    print("pipeline,s,value,error")
    for row in rows:
        print(f"{row[0]},{row[1]:g},{row[2]!r},{row[3]:.3e}")
    return 0


def cmd_petersson(cfg: dict) -> int:
    from .domain import petersson

    c1, c2, fe, ge = _forms(cfg)
    N = math.lcm(c1.conductor, c2.conductor)
    r = petersson(fe, ge, N, depth=int(cfg["depth"]), y_cut=float(cfg["y_cut"]),
                  workers=int(cfg["workers"]))
    print(f"(f_{c1.label}, f_{c2.label})_N={N} = {r.value!r} +- {r.abs_error_bound:.3e}")
    return 0


def cmd_eisenstein(cfg: dict, z: str, s: float) -> int:
    from .eisenstein import epstein_completed, epstein_lattice
    from .halfplane import UHPoint

    x, y = (float(t) for t in z.split(","))
    pt = UHPoint(x, y)
    star = epstein_completed(pt, s)
    print(f"E*(z,s)   = {star.value!r} +- {star.abs_error_bound:.3e}")
    if s > 1.0:
        lat = epstein_lattice(pt, s, tol=1e-12)
        print(f"E(z,s)    = {lat.value!r} +- {lat.abs_error_bound:.3e} (lattice)")
    return 0


def cmd_report(cfg: dict) -> int:
    path = os.path.join(cfg["out"], "report.json")
    if not os.path.exists(path):
        raise UsageError(f"no report at {path}; run verify first")
    with open(path) as fh:
        rep = json.load(fh)
    print(f"{'check':28s} {'status':6s} {'diff':>12s} {'tol':>9s}")
    for r in rep["checks"]:
        d = "-" if r["diff"] is None else f"{r['diff']:.3e}"
        print(f"{r['name']:28s} {'PASS' if r['passed'] else 'FAIL':6s} {d:>12s} {r['tolerance']:>9.0e}")
    print("all passed" if rep["all_passed"] else "FAILURES present")
    return 0 if rep["all_passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ellrank")
    parser.add_argument("--config", default=None)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--only", default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ap")
    pv = sub.add_parser("verify")
    pv.add_argument("--json-indent", type=int, default=None)
    pl = sub.add_parser("lvalue")
    pl.add_argument("-s", type=float, required=True)
    sub.add_parser("petersson")
    pe = sub.add_parser("eisenstein")
    pe.add_argument("--z", default="0.0,1.0")
    pe.add_argument("-s", type=float, default=2.0)
    sub.add_parser("report")
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.set)
        if args.workers is not None:
            cfg["workers"] = str(args.workers)
        if args.out is not None:
            cfg["out"] = args.out
        if args.command == "ap":
            return cmd_ap(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.only, args.json_indent)
        if args.command == "lvalue":
            return cmd_lvalue(cfg, args.s)
        if args.command == "petersson":
            return cmd_petersson(cfg)
        if args.command == "eisenstein":
            return cmd_eisenstein(cfg, args.z, args.s)
        if args.command == "report":
            return cmd_report(cfg)
        raise UsageError(f"unknown command {args.command}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
