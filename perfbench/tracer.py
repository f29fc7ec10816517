"""Span tracing of ellrank's layers from outside the package.

`install()` replaces each traced function at every name the package's
modules bind to it (``domain.eval_form_array`` as well as
``modular.eval_form_array``), so calls between modules go through a
wrapper while nothing under ``src/`` changes.  A span is
``[name, parent_index, op_index, start, end]``; spans stay in memory and
the worker writes them out when its pass ends.  Counters are derived
from call arguments and results only; the waste counters key on content
(levels plus a coefficient digest), never on object identity.

Hot scalar helpers (``divisors``, ``sign_for``, ...) are deliberately
not wrapped: the wrapper would cost more than the call.

`self_times()` reduces a span list to self time per layer; ``run.py``
turns that and the counters into the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time

import numpy as np

MODULES = ("arith", "curves", "specialfn", "halfplane", "eisenstein",
           "modular", "domain", "lseries", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.seen: dict[str, set] = {}
        self.op = 0

    def add(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def repeat(self, layer: str, key) -> None:
        """Count a call whose content key was already seen in this process."""
        seen = self.seen.setdefault(layer, set())
        self.add(f"{layer}.calls")
        if key in seen:
            self.add(f"{layer}.repeat_calls")
        seen.add(key)

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if count is not None:
                count(self, fn, args, kwargs, result)
            return result

        return traced


def form_key(form) -> tuple:
    digest = hashlib.blake2b(np.ascontiguousarray(form.table.coefficients).tobytes(),
                             digest_size=12).hexdigest()
    return form.level, digest


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _points(layer: str, index: int):
    """Counter of calls and of the points in array argument `index`."""
    def count(tr, fn, args, kwargs, result):
        tr.add(f"{layer}.points", int(np.size(args[index])))
        tr.add(f"{layer}.calls")
    return count


def _calls(layer: str):
    def count(tr, fn, args, kwargs, result):
        tr.add(f"{layer}.calls")
    return count


def _count_qlog(tr, fn, args, kwargs, result):
    layer = "modular.cyclotomic_qlog_sum_array"
    tr.add(f"{layer}.points", int(np.size(args[0])))
    tr.add(f"{layer}.deep_points", int(np.count_nonzero(result[1])))


def _count_ap_table(tr, fn, args, kwargs, result):
    tr.add("curves.ap_table.primes", len(result))


def _count_sweep(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    grid = a["grid"]
    tr.repeat("domain.sweep_pair_family",
              (form_key(a["fe"]), form_key(a["ge"]), a["N"], grid.depth, grid.y_cut))
    tr.add("domain.sweep_pair_family.cosets", len(grid.reps))
    tr.add("domain.sweep_pair_family.nodes", len(grid.reps) * len(grid.xs))


def _count_petersson(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    grid = a["grid"]
    depth = grid.depth if grid is not None else a["depth"]
    y_cut = grid.y_cut if grid is not None else a["y_cut"]
    tr.repeat("domain.petersson", (form_key(a["fe"]), form_key(a["ge"]), a["N"], depth, y_cut))


def _count_rankin_build(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tr.repeat("lseries.RankinSeries.build", (form_key(a["fe"]), form_key(a["ge"]), a["k_max"]))


def _count_afe_weight(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    rs = a["rs"]
    layer = "lseries.afe_weight"
    key = (rs.N, rs.k_max, round(a["sigma"], 12), round(a["T"], 12))
    seen = tr.seen.setdefault(layer, set())
    tr.add(f"{layer}.calls")
    tr.add(f"{layer}.hits", key in seen)
    tr.add(f"{layer}.nonzero", int(np.count_nonzero(result)))
    seen.add(key)


# (defining module, attribute, span name, counter or None); a classmethod
# is given as "Class.method".
TARGETS = (
    ("arith", "cyclotomic", "arith.cyclotomic", _calls("arith.cyclotomic")),
    ("curves", "ap_table", "curves.ap_table", _count_ap_table),
    ("curves", "_count_points_enum", "curves.reduce_mod_p.enum",
     _calls("curves.reduce_mod_p.enum")),
    ("curves", "_count_points_bsgs", "curves.reduce_mod_p.bsgs",
     _calls("curves.reduce_mod_p.bsgs")),
    ("curves", "an_table", "curves.an_table", None),
    ("specialfn", "bessel_k_array", "specialfn.bessel_k_array",
     _points("specialfn.bessel_k_array", 1)),
    ("specialfn", "xk1_fast", "specialfn.xk1_fast", _points("specialfn.xk1_fast", 0)),
    ("halfplane", "apply_moebius", "halfplane.apply_moebius", None),
    ("halfplane", "sl2z_reduce", "halfplane.sl2z_reduce", _points("halfplane.sl2z_reduce", 0)),
    ("halfplane", "boost_array", "halfplane.boost_array", _points("halfplane.boost_array", 1)),
    ("eisenstein", "epstein_star_array", "eisenstein.epstein_star_array",
     _points("eisenstein.epstein_star_array", 0)),
    ("modular", "eval_form_array", "modular.eval_form_array",
     _points("modular.eval_form_array", 1)),
    ("modular", "log_abs_delta_N_array", "modular.log_abs_delta_N_array",
     _points("modular.log_abs_delta_N_array", 0)),
    ("modular", "cyclotomic_qlog_sum_array", "modular.cyclotomic_qlog_sum_array", _count_qlog),
    ("modular", "CuspFormEval.from_curve", "modular.CuspFormEval.from_curve",
     _calls("modular.CuspFormEval.from_curve")),
    ("domain", "build_grid", "domain.build_grid", None),
    ("domain", "integrate_invariant", "domain.integrate_invariant",
     _calls("domain.integrate_invariant")),
    ("domain", "petersson", "domain.petersson", _count_petersson),
    ("domain", "sweep_pair_family", "domain.sweep_pair_family", _count_sweep),
    ("domain", "rs_identity_check", "domain.rs_identity_check", None),
    ("lseries", "RankinSeries.build", "lseries.RankinSeries.build", _count_rankin_build),
    ("lseries", "afe_eval", "lseries.afe_eval", _calls("lseries.afe_eval")),
    ("lseries", "afe_weight", "lseries.afe_weight", _count_afe_weight),
    ("lseries", "L_direct", "lseries.L_direct", None),
)


def _modules():
    return [importlib.import_module("ellrank")] + [
        importlib.import_module(f"ellrank.{m}") for m in MODULES]


def rebind(original, replacement) -> int:
    """Point every package-level name bound to `original` at `replacement`."""
    n = 0
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def install(tracer: Tracer) -> None:
    for modname, attr, span, count in TARGETS:
        mod = importlib.import_module(f"ellrank.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            fn = vars(cls)[meth].__func__
            setattr(cls, meth, classmethod(tracer.wrap(span, fn, count)))
        elif rebind(getattr(mod, attr), tracer.wrap(span, getattr(mod, attr), count)) == 0:
            raise RuntimeError(f"ellrank.{modname}.{attr} is bound nowhere")


def self_times(spans) -> dict[str, float]:
    """Span duration minus the durations of its direct children, summed per name."""
    child = [0.0] * len(spans)
    for name, parent, _op, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = {}
    for (name, _parent, _op, t0, t1), c in zip(spans, child):
        out[name] = out.get(name, 0.0) + (t1 - t0) - c
    return out
