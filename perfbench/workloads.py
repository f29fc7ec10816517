"""Inputs and correctness gates of the three workloads.

Every input is derived from the workload seed and a pass index through
string-seeded `random.Random`, which does not depend on
PYTHONHASHSEED.  The gates run in the benchmark process, after the pass
has ended, so none of their cost is timed.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

# Cremona's 11a1, 14a1 and 15a1: the default pair and the third curve of
# the triple-product check.  The program receives them as --set values.
CURVES = {
    "11a": ((0, -1, 1, -10, -20), 11),
    "14a": ((1, 0, 1, 4, -6), 14),
    "15a": ((1, 1, 1, -10, -10), 15),
}
AP_P_MAX = 120_000
ORACLE_SAMPLE = 64            # primes above 1e4 per curve checked exhaustively
LVALUE_PAIRS = (("11a", "14a"), ("11a", "15a"), ("14a", "15a"))   # N = 154, 165, 210
LVALUE_CALLS = 24             # calls per pass (one interpreter)
LVALUE_DISTINCT = 16          # distinct (N, S) per pass: a third of the calls repeat one


def rng_for(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def hash_seed(workload: str, seed: int, index: int) -> int:
    return rng_for("hashseed", workload, seed, index).randrange(1, 2**32 - 1)


def _curve_sets(idx: int, label: str) -> list[str]:
    ainvs, conductor = CURVES[label]
    return ["--set", f"curve{idx}.label={label}",
            "--set", f"curve{idx}.ainvs={','.join(map(str, ainvs))}",
            "--set", f"curve{idx}.conductor={conductor}"]


def lvalue_stream(seed: int, index: int) -> list[tuple[tuple[str, str], float]]:
    """LVALUE_CALLS (pair, S) items, LVALUE_DISTINCT of them distinct.

    S is uniform in [-0.5, 2.75] at four decimals and never near 0:
    s = 0 adds a regulator sweep to the call."""
    rng = rng_for("lvalue-scan", seed, index)
    distinct: list[tuple[tuple[str, str], float]] = []
    while len(distinct) < LVALUE_DISTINCT:
        s = round(rng.uniform(-0.5, 2.75), 4)
        item = (LVALUE_PAIRS[len(distinct) % len(LVALUE_PAIRS)], s)
        if abs(s) >= 0.01 and item not in distinct:
            distinct.append(item)
    stream = distinct + [rng.choice(distinct) for _ in range(LVALUE_CALLS - LVALUE_DISTINCT)]
    rng.shuffle(stream)
    return stream


def plan(workload: str, seed: int, index: int, out_dir: str) -> list[list[str]]:
    """The CLI argument lists of one pass, all writing into out_dir."""
    base = ["--out", out_dir, "--workers", "1"]
    if workload == "verify":
        return [base + ["--set", "depth=1", "verify"]]
    if workload == "ap-tables":
        return [base + ["--set", f"p_max={AP_P_MAX}", "ap"]]
    if workload == "lvalue-scan":
        return [base + _curve_sets(1, a) + _curve_sets(2, b) + ["lvalue", "-s", repr(s)]
                for (a, b), s in lvalue_stream(seed, index)]
    raise ValueError(f"unknown workload {workload}")


# ------------------------------------------------------------------ gates

class GateError(Exception):
    pass


def _op_ok(op: dict) -> None:
    if op["error"] is not None:
        raise GateError(op["error"].strip().splitlines()[-1])
    if op["rc"] != 0:
        raise GateError(f"exit code {op['rc']}")


def gate_verify(op: dict, out_dir: str, reference: str) -> dict:
    """Exit 0, every record passed, and `checks` identical to the first
    run of the same program source in this checkout (criterion 13)."""
    _op_ok(op)
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    failed = [r["name"] for r in report["checks"] if not r["passed"]]
    if failed or not report["all_passed"]:
        raise GateError(f"records not passed: {failed}")
    checks = json.dumps(report["checks"], sort_keys=True)
    if not os.path.exists(reference):
        tmp = f"{reference}.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(checks)
        os.replace(tmp, reference)
    with open(reference) as fh:
        if fh.read() != checks:
            raise GateError("checks differ from an earlier run of the same source")
    rec = {r["name"]: r for r in report["checks"]}
    with open(os.path.join(out_dir, "timing.json")) as fh:
        timing = json.load(fh)

    def rel(name):
        r = rec[name]
        return abs(r["lhs"] - r["rhs"]) / abs(r["lhs"])

    return {"flagship_rel_err": rel("cnf_a_vs_b"), "rs_rel_err": rel("rankin_selberg"),
            "timing": timing, "checks": checks}


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def ap_exhaustive(ainvs, p: int) -> int:
    """a_p = p + 1 - #E(F_p) at an odd prime of good reduction, counting
    x by x: with b2, b4, b6 the usual invariants, y-solutions at x number
    1 + chi(4x^3 + b2 x^2 + 2 b4 x + b6)."""
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6 = (a1 * a1 + 4 * a2) % p, (2 * a4 + a1 * a3) % p, (a3 * a3 + 4 * a6) % p
    x = np.arange(p, dtype=np.int64)
    f = (((4 * x + b2) % p * x + 2 * b4) % p * x + b6) % p
    square = np.zeros(p, dtype=bool)
    square[x * x % p] = True
    chi = np.where(f == 0, 0, np.where(square[f], 1, -1))
    return -int(chi.sum())


def gate_ap(op: dict, out_dir: str, rng: random.Random) -> int:
    """Every prime up to AP_P_MAX once per curve, the Hasse bound, the
    reduction type at the bad primes, and a seeded sample of primes above
    1e4 against ap_exhaustive.  Returns the number of primes checked."""
    _op_ok(op)
    primes = primes_up_to(AP_P_MAX)
    for label in ("11a", "14a"):
        ainvs, conductor = CURVES[label]
        with open(os.path.join(out_dir, f"ap_{label}.csv")) as fh:
            if fh.readline().strip() != "p,kind,ap":
                raise GateError(f"{label}: bad header")
            rows = [line.strip().split(",") for line in fh]
        if [int(r[0]) for r in rows] != primes:
            raise GateError(f"{label}: {len(rows)} rows, expected the {len(primes)} primes")
        table = {}
        for p_str, kind, ap_str in rows:
            p, ap = int(p_str), int(ap_str)
            table[p] = ap
            if conductor % p == 0:
                if kind not in ("split-multiplicative", "nonsplit-multiplicative") or abs(ap) != 1:
                    raise GateError(f"{label}: p={p} is multiplicative, got {kind} {ap}")
            elif kind != "good" or ap * ap > 4 * p:
                raise GateError(f"{label}: p={p} {kind} a_p={ap} breaks the Hasse bound")
        for p in rng.sample([q for q in primes if q > 10_000], ORACLE_SAMPLE):
            if table[p] != ap_exhaustive(ainvs, p):
                raise GateError(f"{label}: a_p at p={p} differs from exhaustive count")
    return len(primes)


def gate_lvalue(op: dict, s: float) -> None:
    """Exit 0, finite rows for s, and AFE within the direct row's error."""
    _op_ok(op)
    lines = op["stdout"].strip().splitlines()
    if "pipeline,s,value,error" not in lines:
        raise GateError(f"s={s}: no table in output")
    rows = {}
    for line in lines[lines.index("pipeline,s,value,error") + 1:]:
        name, s_txt, value, error = line.split(",")
        v, e = float(value), float(error)
        if float(s_txt) != s or not (math.isfinite(v) and math.isfinite(e)):
            raise GateError(f"s={s}: bad row {line}")
        rows[name] = (v, e)
    if "afe" not in rows or any(line.startswith("warning") for line in lines):
        raise GateError(f"s={s}: no AFE value")
    if s >= 1.3:
        if "direct-series" not in rows:
            raise GateError(f"s={s}: no direct-series row")
        direct, err = rows["direct-series"]
        if abs(rows["afe"][0] - direct) > err:
            raise GateError(f"s={s}: AFE and direct series disagree beyond {err:.3g}")
