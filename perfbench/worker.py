"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds ``{"calls": [argv, ...], "trace": bool}``.  Each argv goes
to ``ellrank.cli.main`` in turn, closed loop, with the CLI's standard
output captured.  Untraced passes carry a single probe on ``ap_table``
(a few calls per CLI call) for the a_p throughput; traced passes wrap every
layer in ``tracer.TARGETS``.  RESULT receives the per-call latencies,
exit codes and output, the peak resident memory and, when traced, the
spans and counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _ap_probe(stats: dict):
    from ellrank import curves

    import tracer

    original = curves.ap_table

    def probed(*args, **kwargs):
        t0 = time.perf_counter()
        table = original(*args, **kwargs)
        stats["seconds"] += time.perf_counter() - t0
        stats["primes"] += len(table)
        return table

    tracer.rebind(original, probed)


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    from ellrank import cli

    import tracer

    probe = {"primes": 0, "seconds": 0.0}
    tr = None
    entry = cli.main
    if spec["trace"]:
        tr = tracer.Tracer()
        tracer.install(tr)
        entry = tr.wrap("cli.main", cli.main)
    else:
        _ap_probe(probe)

    ops = []
    start = time.perf_counter()
    for i, argv in enumerate(spec["calls"]):
        if tr is not None:
            tr.op = i
        buf = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = entry(argv)
        except Exception:
            rc, error = None, traceback.format_exc()
        t1 = time.perf_counter()
        ops.append({"rc": rc, "seconds": t1 - t0, "stdout": buf.getvalue(), "error": error})
    pass_seconds = time.perf_counter() - start

    result = {
        "ops": ops,
        "pass_seconds": pass_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ap_probe": probe,
    }
    if tr is not None:
        result["spans"] = tr.spans
        result["counters"] = tr.counters
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
