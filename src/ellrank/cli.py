"""Command-line front end: a_p tables, batch verification, report
emission.

Subcommands: ap, verify, lvalue, petersson, eisenstein, report.
Exit codes: 0 success, 1 check failure, 2 usage error, a config that
does not validate (validate_config) or an eisenstein point too deep to
reduce or too tall to evaluate in double precision.

Configuration is a flat key=value text file (see DEFAULT_CONFIG);
--set key=value overrides individual entries.  verify runs the check
registry of ellrank.checks over one RunContext and writes report.json
(deterministic bytes: no volatile fields) plus timing.json (wall times,
not covered by the byte-identity guarantee).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache

from . import checks
from .curves import DEFAULT_P_MAX

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
    "out": ".",
}

_NUMBER_KEYS = {"n_max": int, "p_max": int, "depth": int,
                "curve1.conductor": int, "curve2.conductor": int}
DEPTH_MAX = 4       # verify on 11a/14a peaks at 220 MB RSS at depth 4, 9.6 s
_CURVE_COMMANDS = ("ap", "verify", "lvalue", "petersson")
_FORM_COMMANDS = ("verify", "lvalue", "petersson")


class UsageError(Exception):
    pass


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if path:
        try:
            fh = open(path)
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc.strerror}") from None
        with fh:
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


def validate_config(cfg: dict, command: str) -> None:
    """Raise UsageError unless every key is one of DEFAULT_CONFIG's, the
    numeric keys parse, depth is in [0, DEPTH_MAX], n_max and p_max are at
    least 2, p_max is at most DEFAULT_P_MAX (the bound of int64 point
    counting) and, for the subcommands that use the two curves, each
    curve's ainvs have its stated conductor; subcommands that build cusp
    forms also need a square-free conductor, and an n_max that covers the
    q-series at the lowest height a form is evaluated at, sqrt(3)/(2L) for
    L the larger level (halfplane.boost_array)."""
    unknown = sorted(set(cfg) - set(DEFAULT_CONFIG))
    if unknown:
        raise UsageError(f"unknown config key(s) {', '.join(unknown)}; "
                         f"known: {', '.join(DEFAULT_CONFIG)}")
    for key, kind in _NUMBER_KEYS.items():
        value = cfg[key]
        try:
            kind(value)
        except ValueError:
            raise UsageError(f"{key} = {value!r} is not a number") from None
    if int(cfg["depth"]) < 0:
        raise UsageError(f"depth = {cfg['depth']!r} is below 0")
    if int(cfg["depth"]) > DEPTH_MAX:
        raise UsageError(f"depth = {cfg['depth']!r} is above {DEPTH_MAX}")
    for key in ("n_max", "p_max"):
        if int(cfg[key]) < 2:
            raise UsageError(f"{key} = {cfg[key]!r} is below 2")
    if int(cfg["p_max"]) > DEFAULT_P_MAX:
        raise UsageError(f"p_max = {cfg['p_max']!r} is above {DEFAULT_P_MAX}")
    if command not in _CURVE_COMMANDS:
        return
    from .arith import is_squarefree
    from .modular import FORM_TOL, series_length

    for idx in (1, 2):
        try:
            curve = checks.curve_from_config(cfg, idx)
        except ValueError as exc:
            raise UsageError(f"curve{idx}: {exc}") from None
        if not curve.validate_conductor():
            raise UsageError(f"curve{idx}: ainvs {curve.ainvs} do not have conductor "
                             f"{curve.conductor}")
        if command in _FORM_COMMANDS and not is_squarefree(curve.conductor):
            raise UsageError(f"curve{idx}: conductor {curve.conductor} is not square-free "
                             f"(cusp forms are built at square-free levels only)")
    if command in _FORM_COMMANDS:
        L = max(int(cfg["curve1.conductor"]), int(cfg["curve2.conductor"]))
        need = series_length(math.sqrt(3.0) / (2 * L), FORM_TOL)
        if int(cfg["n_max"]) < need:
            raise UsageError(f"n_max = {cfg['n_max']!r} is below {need}, the q-series length "
                             f"of a level-{L} form at height sqrt(3)/{2 * L}")


def cmd_ap(cfg: dict) -> int:
    """Tabulate a_p up to p_max for both curves and write ap_<label>.csv
    (p,kind,ap), always: the file does not name the curve, so it is
    never reused.  Two curves under one label are one table when their
    a-invariants agree, and a usage error when not."""
    from .curves import ap_table

    by_label = {}
    for idx in (1, 2):
        curve = checks.curve_from_config(cfg, idx)
        if by_label.setdefault(curve.label, curve).ainvs != curve.ainvs:
            raise UsageError(f"curve1 and curve2 are both labelled {curve.label!r} but have "
                             f"different ainvs; ap_{curve.label}.csv would hold only one")
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    for curve in by_label.values():
        path = os.path.join(out_dir, f"ap_{curve.label}.csv")
        table = ap_table(curve, int(cfg["p_max"]))
        rows = "".join(f"{p},{r.kind},{r.ap}\n" for p, r in sorted(table.items()))
        with open(path, "w") as fh:
            fh.write("p,kind,ap\n" + rows)
        print(f"{path}: wrote {len(table)} rows")
    return 0


def cmd_verify(cfg: dict, only: str | None) -> int:
    if only is not None and only not in checks.CHECKS:
        raise UsageError(f"--only must be one of {list(checks.CHECKS)}")
    records, timings = checks.run(checks.RunContext(cfg), only)
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "checks": records,
        "all_passed": all(r["passed"] for r in records if r["status"] != "skip"),
    }
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh)
        fh.write("\n")
    with open(os.path.join(out_dir, "timing.json"), "w") as fh:
        json.dump({k: round(v, 3) for k, v in timings.items()}, fh, indent=2)
        fh.write("\n")
    for r in records:
        print(f"{r['status'].upper()}: {r['name']} (diff={r['diff']}, tol={r['tolerance']})")
    print(f"report written to {path}")
    return 0 if report["all_passed"] else 1


def cmd_lvalue(cfg: dict, s: float) -> int:
    """Rows report L_{f,g}(s); at s = 0 they report L'_{f,g}(0) = Phi(0)
    (the value L(0) itself vanishes).  s runs over [-0.5, 25]: the AFE
    covers [-0.5, 2.75] and the direct series s >= 1.3."""
    from .domain import sweep_pair_family
    from .lseries import G_factor, L_direct, afe_eval, afe_unsupported
    from .specialfn import PoleError

    if not -0.5 <= s <= 25.0:
        raise UsageError(f"-s {s!r} is outside [-0.5, 25], where the pipelines are defined")
    ctx = checks.RunContext(cfg)
    rs = ctx.rs
    if -0.5 <= s <= 2.75 and (why := afe_unsupported(rs)):
        raise UsageError(why)
    rows = []
    if s >= 1.3:
        r = L_direct(rs, s)
        rows.append(("direct-series", s, r.value, r.abs_error_bound))
    if -0.5 <= s <= 2.75:
        try:
            r = afe_eval(rs, s)
            if s == 0.0:
                rows.append(("afe", s, r.value, r.abs_error_bound))
            else:
                g = G_factor(rs, s)
                rows.append(("afe", s, r.value / g, r.abs_error_bound / abs(g)))
        except PoleError as exc:
            print(f"warning,{s},pole,{exc}")
    if s == 0.0 and not rs.isogenous:
        r = sweep_pair_family(ctx.fe, ctx.ge, ctx.N, ctx.grid(ctx.N),
                              want_regulator=True)["regulator"]
        rows.append(("regulator", s, r.value, r.abs_error_bound))
    print("pipeline,s,value,error")
    for row in rows:
        print(f"{row[0]},{row[1]:g},{row[2]!r},{row[3]:.3e}")
    return 0


def cmd_petersson(cfg: dict) -> int:
    from .domain import petersson

    ctx = checks.RunContext(cfg)
    r = petersson(ctx.fe, ctx.ge, ctx.N, ctx.grid(ctx.N))
    print(f"(f_{ctx.c1.label}, f_{ctx.c2.label})_N={ctx.N} = {r.value!r} +- {r.abs_error_bound:.3e}")
    return 0


def cmd_eisenstein(cfg: dict, z: str, s: float) -> int:
    """Both rows are computed before either is printed, so a refused
    point prints none."""
    from .eisenstein import epstein_completed, epstein_lattice
    from .halfplane import UHPoint, sl2z_reduce

    try:
        x, y = (float(t) for t in z.split(","))
    except ValueError:
        raise UsageError(f"--z {z!r} is not of the form x,y") from None
    if not (math.isfinite(x) and math.isfinite(y) and y > 0):
        raise UsageError(f"--z {z!r} is not a point of the upper half-plane (finite x, y > 0)")
    if not math.isfinite(s):
        raise UsageError(f"-s {s!r} is not a finite number")
    try:
        yr = float(sl2z_reduce([x], [y])[1][0])
    except ValueError as exc:
        raise UsageError(f"--z {z!r} is too deep: {exc}") from None
    if max(s, 1.0 - s) * math.log10(yr) > 300.0:
        raise UsageError(f"--z {z!r} is too tall: at its reduced height {yr:.3g}, "
                         f"the y^s terms of E*(z,s) pass 1e300")
    pt = UHPoint(x, y)
    try:
        star = epstein_completed(pt, s)
    except ValueError as exc:       # includes PoleError
        raise UsageError(f"-s {s!r}: {exc}") from None
    try:
        lat = epstein_lattice(pt, s, tol=1e-12) if s > 1.0 else None
    except ValueError as exc:       # more lattice vectors than the sum's cap
        raise UsageError(f"--z {z!r} is too tall: {exc}") from None
    print(f"E*(z,s)   = {star.value!r} +- {star.abs_error_bound:.3e}")
    if lat is not None:
        print(f"E(z,s)    = {lat.value!r} +- {lat.abs_error_bound:.3e} (lattice)")
    return 0


def cmd_report(cfg: dict) -> int:
    path = os.path.join(cfg["out"], "report.json")
    if not os.path.exists(path):
        raise UsageError(f"no report at {path}; run verify first")
    with open(path) as fh:
        rep = json.load(fh)
    if any("status" not in r for r in rep["checks"]):
        raise UsageError(f"{path} has no check status; run verify again")
    print(f"{'check':28s} {'status':6s} {'diff':>12s} {'tol':>9s}")
    for r in rep["checks"]:
        d = "-" if r["diff"] is None else f"{r['diff']:.3e}"
        t = "-" if r["tolerance"] is None else f"{r['tolerance']:.0e}"
        print(f"{r['name']:28s} {r['status'].upper():6s} {d:>12s} {t:>9s}")
    print("all passed" if rep["all_passed"] else "FAILURES present")
    return 0 if rep["all_passed"] else 1


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parse_args
    leaves it unchanged and copies the --set default before appending."""
    parser = argparse.ArgumentParser(prog="ellrank")
    parser.add_argument("--config", default=None)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--only", default=None)
    parser.add_argument("--workers", type=int, default=None,
                        help="ignored: every run is single-threaded")
    parser.add_argument("--out", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ap")
    sub.add_parser("verify")
    pl = sub.add_parser("lvalue")
    pl.add_argument("-s", type=float, required=True)
    sub.add_parser("petersson")
    pe = sub.add_parser("eisenstein")
    pe.add_argument("--z", default="0.0,1.0")
    pe.add_argument("-s", type=float, default=2.0)
    sub.add_parser("report")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = load_config(args.config, args.set)
        if args.out is not None:
            cfg["out"] = args.out
        validate_config(cfg, args.command)
        if args.command == "ap":
            return cmd_ap(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.only)
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
