"""ellrank benchmark: the `verify`, `ap` and `lvalue` commands, end to end.

    python3 perfbench/run.py --workload {verify,ap-tables,lvalue-scan}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds ``src/ellrank``; without
it the benchmark exits with code 2 and prints no result.

A pass is one fresh interpreter that runs one workload pass through
``ellrank.cli.main`` with ``--workers 1`` into an empty ``--out``
directory, so grids, AFE weights, ``lru_cache``s and the a_p CSVs start
cold as they do for a user.  Each pass draws its own PYTHONHASHSEED from
the seed.  Passes run back to back (closed loop, one client) while the
next one is expected to finish within --seconds; there is always one.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first pass
untraced and then traced and prints the per-layer metrics (see
README.md).  The last line of standard output is the JSON result; the
full record, with the machine, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DEADLINE_S = 165.0          # every pass must end by then; the result follows
SETUP_SAMPLES = 5           # set-up samples before the first pass and after each pass

CHECKS = ("ap", "unfolding", "epstein", "epstein_residue", "kronecker",
          "sweep_pair_family", "rankin_selberg", "residue_law", "orthogonality",
          "class_number_formula", "pole_orders", "sym2", "triple_product")

# Self times (".s"), counters and derived ratios of the traced pass, in
# the order they are printed; the first element of each tuple is the
# metric name, the second its unit.
PER_LAYER = (
    ("trace.wall_s", "s"), ("trace.overhead", "ratio"),
    ("fail_ratio", "ratio"), ("flagship_rel_err", "ratio"), ("rs_rel_err", "ratio"),
    ("cli.main.s", "s"),
    *((f"cli.check.{c}.s", "s") for c in CHECKS),
    ("halfplane.boost_array.s", "s"), ("halfplane.boost_array.calls", "count"),
    ("halfplane.boost_array.points", "count"),
    ("halfplane.sl2z_reduce.s", "s"), ("halfplane.sl2z_reduce.points", "count"),
    ("halfplane.apply_moebius.s", "s"),
    ("modular.eval_form_array.s", "s"), ("modular.eval_form_array.calls", "count"),
    ("modular.eval_form_array.points", "count"),
    ("modular.log_abs_delta_N_array.s", "s"), ("modular.log_abs_delta_N_array.points", "count"),
    ("modular.cyclotomic_qlog_sum_array.s", "s"),
    ("modular.cyclotomic_qlog_sum_array.points", "count"),
    ("modular.cyclotomic_qlog_sum_array.deep_points", "count"),
    ("modular.CuspFormEval.from_curve.s", "s"), ("modular.CuspFormEval.from_curve.calls", "count"),
    ("eisenstein.epstein_star_array.s", "s"), ("eisenstein.epstein_star_array.calls", "count"),
    ("eisenstein.epstein_star_array.points", "count"),
    ("domain.sweep_pair_family.s", "s"), ("domain.sweep_pair_family.calls", "count"),
    ("domain.sweep_pair_family.cosets", "count"), ("domain.sweep_pair_family.nodes", "count"),
    ("domain.sweep_pair_family.repeat_calls", "count"),
    ("domain.integrate_invariant.s", "s"), ("domain.integrate_invariant.calls", "count"),
    ("domain.petersson.s", "s"), ("domain.petersson.calls", "count"),
    ("domain.petersson.repeat_calls", "count"),
    ("domain.rs_identity_check.s", "s"), ("domain.build_grid.s", "s"),
    ("curves.ap_table.s", "s"), ("curves.ap_table.primes", "count"),
    ("curves.reduce_mod_p.enum_calls", "count"), ("curves.reduce_mod_p.enum_s", "s"),
    ("curves.reduce_mod_p.bsgs_calls", "count"), ("curves.reduce_mod_p.bsgs_s", "s"),
    ("curves.bsgs_ms_per_prime", "ms"), ("curves.an_table.s", "s"),
    ("lseries.RankinSeries.build.s", "s"), ("lseries.RankinSeries.build.calls", "count"),
    ("lseries.RankinSeries.build.repeat_calls", "count"),
    ("lseries.afe_eval.s", "s"), ("lseries.afe_eval.calls", "count"),
    ("lseries.afe_weight.s", "s"), ("lseries.afe_weight.calls", "count"),
    ("lseries.afe_weight.hit_ratio", "ratio"), ("lseries.afe_weight.k_eff", "count"),
    ("lseries.L_direct.s", "s"),
    ("specialfn.bessel_k_array.s", "s"), ("specialfn.bessel_k_array.points", "count"),
    ("specialfn.xk1_fast.s", "s"), ("specialfn.xk1_fast.points", "count"),
    ("arith.cyclotomic.s", "s"), ("arith.cyclotomic.calls", "count"),
)


def machine() -> dict:
    import numpy

    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None,
            "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), None)
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    return info


def source_digest(package: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(package.glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def worker_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(hash_seed)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(seed: int, first: int, count: int) -> list[float]:
    """Seconds from spawning an interpreter until `import ellrank` returns.

    perf_counter is CLOCK_MONOTONIC, shared by parent and child.  The
    caller spreads the samples over the run, so that the host's slower
    and faster spells weigh in as they do on the passes."""
    code = "import ellrank, time; print(repr(time.perf_counter()))"
    samples = []
    for i in range(first, first + count):
        env = worker_env(workloads.hash_seed("setup", seed, i))
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if done.returncode == 0:
            samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


def run_pass(workload: str, seed: int, index: int, trace: bool, deadline: float) -> dict:
    """One pass in a fresh interpreter; gated; returns its record."""
    tag = f"{workload}-s{seed}-p{index}-t{int(trace)}"
    out_dir = OUT / "tmp" / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    calls = workloads.plan(workload, seed, index, str(out_dir))
    spec, result = OUT / f"spec-{tag}.json", OUT / f"pass-{tag}.json"
    spec.write_text(json.dumps({"calls": calls, "trace": trace}))
    result.unlink(missing_ok=True)
    hseed = workloads.hash_seed(workload, seed, index)
    rec = {"index": index, "trace": trace, "hash_seed": hseed, "attempted": len(calls),
           "failed": len(calls), "errors": []}
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec), str(result)],
                              env=worker_env(hseed), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        rec["errors"].append("pass killed at the deadline")
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec
    if done.returncode != 0:
        rec["errors"].append(f"worker exit {done.returncode}: {done.stderr.strip()[-400:]}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec
    spec.unlink()
    data = json.loads(result.read_text())
    if not trace:
        result.unlink()
    rec.update(pass_seconds=data["pass_seconds"], peak_rss_mb=data["peak_rss_mb"],
               ap_probe=data["ap_probe"], latencies=[op["seconds"] for op in data["ops"]],
               failed=0)
    if trace:
        rec["spans"], rec["counters"] = data["spans"], data["counters"]
    gate_rng = workloads.rng_for("gate", workload, seed, index)
    stream = workloads.lvalue_stream(seed, index) if workload == "lvalue-scan" else None
    for i, op in enumerate(data["ops"]):
        try:
            if workload == "verify":
                source = source_digest(ROOT / "src" / "ellrank")
                rec["verify"] = workloads.gate_verify(
                    op, str(out_dir), str(OUT / f"verify-checks-{source}.json"))
            elif workload == "ap-tables":
                workloads.gate_ap(op, str(out_dir), gate_rng)
            else:
                workloads.gate_lvalue(op, stream[i][1])
        except (workloads.GateError, OSError, ValueError, KeyError) as exc:
            rec["failed"] += 1
            rec["errors"].append(f"op {i}: {type(exc).__name__}: {exc}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return rec


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, dict]:
    ok = [p for p in passes if "pass_seconds" in p]
    lat = [x for p in ok for x in p["latencies"]]
    tail_v, tail_pct = tail(lat)
    primes = sum(p["ap_probe"]["primes"] for p in ok)
    ap_s = sum(p["ap_probe"]["seconds"] for p in ok)
    metrics = {
        "wall_s": (statistics.median(p["pass_seconds"] for p in ok), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in ok), "MB"),
        "primes_per_s": (primes / ap_s, "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_v, "s"),
    }
    return metrics, {"op_samples": len(lat), "op_tail_percentile": tail_pct,
                     "setup_samples": setup}


def per_layer(untraced: dict, traced: dict) -> tuple[dict, dict]:
    self_s = tracer.self_times(traced["spans"])
    c = traced["counters"]
    v = {f"{name}.s": s for name, s in self_s.items()}
    v.update(c)
    v["curves.reduce_mod_p.enum_calls"] = c.get("curves.reduce_mod_p.enum.calls", 0)
    v["curves.reduce_mod_p.enum_s"] = self_s.get("curves.reduce_mod_p.enum", 0.0)
    v["curves.reduce_mod_p.bsgs_calls"] = c.get("curves.reduce_mod_p.bsgs.calls", 0)
    v["curves.reduce_mod_p.bsgs_s"] = self_s.get("curves.reduce_mod_p.bsgs", 0.0)
    if v["curves.reduce_mod_p.bsgs_calls"]:
        v["curves.bsgs_ms_per_prime"] = (1000.0 * v["curves.reduce_mod_p.bsgs_s"]
                                         / v["curves.reduce_mod_p.bsgs_calls"])
    calls = c.get("lseries.afe_weight.calls", 0)
    if calls:
        v["lseries.afe_weight.hit_ratio"] = c["lseries.afe_weight.hits"] / calls
        v["lseries.afe_weight.k_eff"] = c["lseries.afe_weight.nonzero"] / calls
    v["trace.wall_s"] = traced["pass_seconds"]
    v["trace.overhead"] = traced["pass_seconds"] / untraced["pass_seconds"]
    attempted = untraced["attempted"] + traced["attempted"]
    v["fail_ratio"] = (untraced["failed"] + traced["failed"]) / attempted
    if "verify" in untraced:
        v["flagship_rel_err"] = untraced["verify"]["flagship_rel_err"]
        v["rs_rel_err"] = untraced["verify"]["rs_rel_err"]
        for name, secs in untraced["verify"]["timing"].items():
            v[f"cli.check.{name}.s"] = secs
    metrics = {name: (v.get(name, 0), unit) for name, unit in PER_LAYER}
    return metrics, {"layer_self_s_sum": sum(self_s.values())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "ap-tables", "lvalue-scan"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ellrank" / "cli.py").is_file():
        print(f"perfbench: no src/ellrank under {ROOT}; run it in an ellrank checkout",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}

    if args.trace:
        untraced = run_pass(args.workload, args.seed, 0, False, deadline)
        traced = run_pass(args.workload, args.seed, 0, True, deadline)
        passes = [untraced, traced]
    else:
        measure_setup(args.seed, -1, 1)      # compiles the bytecode; not counted
        setup = measure_setup(args.seed, 0, SETUP_SAMPLES)
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(args.workload, args.seed, len(passes), False, deadline))
            setup += measure_setup(args.seed, len(setup), SETUP_SAMPLES)
            last = passes[-1].get("pass_seconds")
            elapsed = time.perf_counter() - t0
            if last is None or elapsed + last > args.seconds:
                break

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0
    metrics: dict = {}
    if args.trace and "spans" in traced and "pass_seconds" in untraced:
        metrics, extra = per_layer(untraced, traced)
        record.update(extra)
        if extra["layer_self_s_sum"] > traced["pass_seconds"]:
            correct = False
        if args.workload == "verify" and correct and (
                untraced["verify"]["checks"] != traced["verify"]["checks"]):
            correct = False
    elif not args.trace and setup and any("pass_seconds" in p for p in passes):
        metrics, extra = end_to_end(passes, setup)
        record.update(extra)
    else:
        correct = False
    record["passes"] = [{k: v for k, v in p.items() if k not in ("spans", "verify")}
                        for p in passes]
    record.update(correct=correct, attempted=attempted, failed=failed,
                  metrics={k: {"value": val, "unit": u} for k, (val, u) in metrics.items()})
    path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    m = record["machine"]
    print(f"machine: {m['nproc']} cpu, {m['cpu_model']}, L2 {m.get('l2')}, L3 {m.get('l3')}, "
          f"python {m['python']}, numpy {m['numpy']}")
    for p in passes:
        print(f"pass {p['index']} trace={int(p['trace'])} PYTHONHASHSEED={p['hash_seed']} "
              f"seconds={p.get('pass_seconds')} failed={p['failed']}/{p['attempted']}")
        for err in p["errors"]:
            print(f"  FAIL {err}")
    if "op_samples" in record:
        print(f"op latency: {record['op_samples']} samples, tail at "
              f"p{record['op_tail_percentile']:.1f}")
    for name, (val, unit) in metrics.items():
        print(f"{name} = {val!r} {unit}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
