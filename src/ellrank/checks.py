"""The verification battery: one function per check over a per-run context.

CHECKS maps each name accepted by ``verify --only`` to a function that
takes a RunContext and returns the check's report records, in report
order.  RunContext holds each expensive object (the cusp forms, the
Rankin series, the X_0(N) sweeps, the Petersson norm, the (f, f)
residue), built once and shared between the checks.  The CLI and the
acceptance tests call the same functions.

Each record compares with the one value the paper states, never with a
right-hand side fitted to its own lhs.  An order is stated, not fitted:
its record tests the leading coefficients that make it exact, each
nonzero when it exceeds ten times its bar (_clears), the rule
cnf_nonvanishing uses.

Every record has name, lhs, rhs, diff, lhs_err, rhs_err, tolerance,
status ('pass', 'fail' or 'skip'), passed (status == 'pass') and
pipelines, and may have extra.  A side's error is the bound its
pipeline returns (the sweep's depth-doubling error, the AFE and
direct-series bounds, the unfolding quadrature's 24- against 12-point
distance, the AFE residue's split spread), carried linearly through
fixed factors, or None.
A check that does not apply to the configured pair returns skip
records (_skip) that give the reason under extra['skipped'].

The X_0(N) quantities come normalised, each with its error, from
domain.sweep_pair_family; no check here applies a factor to them.

The layers are called through their modules (``curves.ap_table``, not a
name imported into this module), so a replacement set on the layer
module after import, such as a test's monkeypatch, is the one called.
"""

from __future__ import annotations

import math
import time
from functools import cached_property

import numpy as np

from . import arith, curves, domain, eisenstein, lseries, modular
from .halfplane import UHPoint
from .specialfn import EvalResult

S_RS = 2.0      # the Rankin-Selberg identity is checked at s = 2


def curve_from_config(cfg: dict, idx: int) -> curves.CurveModel:
    ainvs = [int(t) for t in cfg[f"curve{idx}.ainvs"].split(",")]
    if len(ainvs) != 5:
        raise ValueError(f"curve{idx}.ainvs needs 5 integers")
    return curves.CurveModel(*ainvs, conductor=int(cfg[f"curve{idx}.conductor"]),
                             label=cfg[f"curve{idx}.label"])


class RunContext:
    """The objects of one run: the two curves and their cusp forms, and
    the rest built on first use.  The shared N sweep is timed on its
    own, under timings['sweep_pair_family']."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.depth = int(cfg["depth"])
        self.n_max = int(cfg["n_max"])
        self.c1 = curve_from_config(cfg, 1)
        self.c2 = curve_from_config(cfg, 2)
        self.N = math.lcm(self.c1.conductor, self.c2.conductor)
        self.fe = modular.CuspFormEval.from_curve(self.c1, self.n_max)
        self.ge = modular.CuspFormEval.from_curve(self.c2, self.n_max)
        self.timings: dict[str, float] = {}

    @cached_property
    def rs(self):
        return lseries.RankinSeries.build(self.fe, self.ge)

    @cached_property
    def rs_ff(self):
        return lseries.RankinSeries.build(self.fe, self.fe)

    def grid(self, level: int) -> domain.QuadratureGrid:
        """The X_0(level) grid at the configured depth."""
        return domain.build_grid(level, self.depth)

    @cached_property
    def fam(self) -> dict:
        """Every (f, g) quantity over X_0(N) on the depth grid, one sweep."""
        t0 = time.perf_counter()
        fam = domain.sweep_pair_family(self.fe, self.ge, self.N, self.grid(self.N),
                                       s_values=(S_RS,), want_regulator=True, want_cnf=True)
        self.timings["sweep_pair_family"] = time.perf_counter() - t0
        return fam

    @cached_property
    def fam_ff(self) -> dict:
        """(f, f) integrals at the first curve's level on the depth grid:
        the Eisenstein integrals at s = 2 and the Petersson norm."""
        L = self.c1.conductor
        return domain.sweep_pair_family(self.fe, self.fe, L, self.grid(L), s_values=(S_RS,))

    @cached_property
    def pet_ff(self):
        return self.fam_ff["pet_fg"]

    @cached_property
    def res_ff(self) -> dict:
        """Res_{s=1} Phi for (f, f), with its split spread (residue_at_1)."""
        return lseries.residue_at_1(self.rs_ff)

    @cached_property
    def phi0(self):
        return lseries.afe_eval(self.rs, 0.0)


def _split(side):
    """A side's value and error bound: None for a plain number."""
    return (side.value, side.abs_error_bound) if isinstance(side, EvalResult) else (side, None)


def _record(name, lhs, rhs, tolerance, extra=None, pipelines="") -> dict:
    """lhs and rhs are numbers, or EvalResults where their pipeline bounds
    them."""
    (lhs, lhs_err), (rhs, rhs_err) = _split(lhs), _split(rhs)
    diff = abs(lhs - rhs) if rhs not in (None, "") else abs(lhs)
    status = "pass" if diff <= tolerance else "fail"
    rec = {
        "name": name,
        "lhs": _num(lhs),
        "rhs": _num(rhs),
        "diff": _num(diff),
        "lhs_err": _num(lhs_err),
        "rhs_err": _num(rhs_err),
        "tolerance": tolerance,
        "status": status,
        "passed": status == "pass",
        "pipelines": pipelines,
    }
    if extra:
        rec["extra"] = extra
    return rec


def _clears(value, bar) -> bool:
    """The nonvanishing rule: |value| exceeds ten times its bar."""
    return abs(value) > 10.0 * bar


def _coefficient(what: str, v: EvalResult) -> dict:
    """A leading coefficient as extra: what it is, its value and bar, and
    whether it clears the nonvanishing rule."""
    return {"coefficient": what, "value": _num(v.value), "err": _num(v.abs_error_bound),
            "nonzero": _clears(v.value, v.abs_error_bound)}


def _skip(name, reason, pipelines) -> dict:
    """The record of a check that does not apply to the configured pair."""
    return {"name": name, "lhs": None, "rhs": None, "diff": None, "lhs_err": None,
            "rhs_err": None, "tolerance": None, "status": "skip", "passed": False,
            "pipelines": pipelines, "extra": {"skipped": reason}}


def _num(v):
    """v as JSON: a numpy scalar as a float."""
    if isinstance(v, (tuple, list)):
        return [_num(t) for t in v]
    return v if v is None or isinstance(v, (int, str, bool, dict)) else float(v)


# ------------------------------------------------------------------ checks

def check_ap(ctx: RunContext) -> list[dict]:
    checked = failed = 0
    for curve in (ctx.c1, ctx.c2):
        for p, info in curves.ap_table(curve, int(ctx.cfg["p_max"])).items():
            checked += 1
            if ((info.kind == "good" and info.ap * info.ap > 4 * p)
                    or (curve.conductor % p == 0 and abs(info.ap) != 1)):
                failed += 1
    return [_record("ap", 1.0 if failed else 0.0, 0.0, 0.5,
                    extra={"curves": [ctx.c1.label, ctx.c2.label],
                           "primes_checked": checked, "primes_failed": failed},
                    pipelines="point-count")]


def check_unfolding(ctx: RunContext) -> list[dict]:
    u = domain.unfolding_check(ctx.fe, ctx.fe, 2.0)
    return [_record("unfolding", u["lhs"], u["rhs"], 1e-10 * abs(u["rhs"]),
                    pipelines="series,quadrature-1d")]


def check_epstein(ctx: RunContext) -> list[dict]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        x, y = rng.uniform(-0.45, 0.45), rng.uniform(0.6, 3.0)
        s = rng.uniform(1.2, 3.0)
        a = eisenstein.epstein_lattice(UHPoint(x, y), s, tol=1e-12).value * (
            math.pi ** (-s) * math.gamma(s))
        b = eisenstein.epstein_completed(UHPoint(x, y), s).value
        worst = max(worst, abs(a / b - 1.0))
    fe_worst = 0.0
    for s in (-0.5, 0.25, 0.4):
        for xx, yy in ((0.0, 1.0), (0.3, 1.7), (-0.2, 0.9), (0.45, 2.4), (0.1, 1.2)):
            fe_worst = max(fe_worst, abs(
                eisenstein.epstein_completed(UHPoint(xx, yy), s).value
                - eisenstein.epstein_completed(UHPoint(xx, yy), 1.0 - s).value))
    return [_record("epstein", worst, 0.0, 1e-9, extra={"fe_residual": fe_worst},
                    pipelines="theta-lattice,fourier-bessel")]


def check_epstein_residue(ctx: RunContext) -> list[dict]:
    vals = [eisenstein.epstein_residue(UHPoint(xx, yy)).value
            for xx, yy in ((0.0, 1.0), (0.5, 3.0), (0.23, 0.9))]
    worst = max(abs(r - 1.0) for r in vals)
    return [_record("epstein_residue", worst, 0.0, 1e-6,
                    extra={"values": [_num(v) for v in vals]}, pipelines="richardson")]


def check_kronecker(ctx: RunContext) -> list[dict]:
    diffs = [eisenstein.kronecker_limit_check(UHPoint(xx, yy))[2]
             for xx, yy in ((0.0, 1.0), (0.0, 2.0), (0.3, 1.4))]
    spread = max(diffs) - min(diffs)
    return [_record("kronecker", max(abs(d) for d in diffs), 0.0, 1e-6,
                    extra={"offsets": [_num(d) for d in diffs], "offset_spread": _num(spread)},
                    pipelines="richardson,eta")]


def check_rankin_selberg(ctx: RunContext) -> list[dict]:
    """The unfolding identity at s = 2 for (f, g) at N and, isogenous,
    for (f, f) at the first curve's own level."""
    chk = domain.rs_identity_check(ctx.fe, ctx.ge, ctx.N, S_RS, ctx.rs, ctx.fam)
    iso = domain.rs_identity_check(ctx.fe, ctx.fe, ctx.c1.conductor, S_RS, ctx.rs_ff, ctx.fam_ff)
    return [_record(name, c["lhs"], c["rhs"], 1e-3 * abs(c["lhs"].value),
                    pipelines="direct-series,eisenstein-quadrature")
            for name, c in (("rankin_selberg", chk), ("rankin_selberg_isogenous", iso))]


def check_residue_law(ctx: RunContext) -> list[dict]:
    L = ctx.c1.conductor
    mu_over_d = sum(arith.moebius(d) / d for d in arith.divisors(L))
    c = 2.0 * math.pi * mu_over_d * arith.index_psi(L)
    rhs = EvalResult(c * ctx.pet_ff.value, abs(c) * ctx.pet_ff.abs_error_bound)
    return [_record("residue_law", ctx.res_ff["residue"], rhs, 1e-3 * abs(rhs.value),
                    pipelines="afe,quadrature")]


def check_orthogonality(ctx: RunContext) -> list[dict]:
    """(f, g) = 0 for non-isogenous newforms; skipped for an isogenous
    pair, where f = g and (f, g) is the norm."""
    if ctx.rs.isogenous:
        return [_skip("orthogonality", "f = g for an isogenous pair, so (f, g) = (f, f) > 0",
                      "quadrature")]
    fg, ff, gg = (ctx.fam[k] for k in ("pet_fg", "pet_ff", "pet_gg"))
    return [_record("orthogonality", EvalResult(abs(fg.value), fg.abs_error_bound), 0.0, 1e-6,
                    extra={"ff": ff.value, "gg": gg.value,
                           "norms_positive": ff.value > 0 and gg.value > 0},
                    pipelines="quadrature")]


def check_class_number_formula(ctx: RunContext) -> list[dict]:
    """Phi(0) by the AFE against the regulator integral, the cyclotomic
    q-logarithm sum against Phi(0) / 2, and Phi(0) != 0 beyond its bar
    and its distance to the regulator.
    Skipped where the AFE cannot give Phi(0): levels that share a factor
    and are not isogenous, or f = g, where Phi has a pole at 0."""
    why = ("Phi has a pole at s = 0 for an isogenous pair" if ctx.rs.isogenous
           else lseries.afe_unsupported(ctx.rs))
    if why:
        return [_skip("cnf_a_vs_b", why, "afe,regulator"),
                _skip("cnf_c_ratio", why, "cyclotomic-qlog,afe"),
                _skip("cnf_nonvanishing", why, "afe")]
    fam, phi0 = ctx.fam, ctx.phi0
    reg, cnf = fam["regulator"], fam["cnf"]
    r = cnf.value / phi0.value      # with its first-order error
    ratio = EvalResult(r, (cnf.abs_error_bound + abs(r) * phi0.abs_error_bound) / abs(phi0.value))
    gap = abs(phi0.value - reg.value)
    nonvanishing = _clears(phi0.value, phi0.abs_error_bound + gap)
    return [
        _record("cnf_a_vs_b", phi0, reg, 1e-3 * abs(phi0.value), pipelines="afe,regulator"),
        # the paper's q-logarithm form carries the prefactor 1/2 against Phi(0)
        _record("cnf_c_ratio", ratio, 0.5, 1e-4, pipelines="cyclotomic-qlog,afe"),
        _record("cnf_nonvanishing", 1.0 if nonvanishing else 0.0, 1.0, 0.5,
                extra={"phi0": _num(phi0.value), "phi0_err": _num(phi0.abs_error_bound),
                       "phi0_minus_regulator": _num(gap)},
                pipelines="afe"),
    ]


def check_pole_orders(ctx: RunContext) -> list[dict]:
    """L(H^2, s) = zeta(s-1)^2 H(s-1) L_{f,g}(s-1) has order -3 at s = 2
    for (f, f) and -2 for the pair: zeta's double pole, and Phi's simple
    pole for f = g.  The orders hold when the leading coefficients,
    Res_{s=1} Phi_{f,f} and Phi_{f,g}(1), are nonzero beyond their bars;
    lhs counts those that are not.  Skipped for an isogenous pair (order
    -3) or where the AFE does not apply."""
    if ctx.rs.isogenous:
        return [_skip("pole_orders", "the pair is isogenous, so its L(H^2) has the order -3 of (f, f)",
                      "afe")]
    if why := lseries.afe_unsupported(ctx.rs):
        return [_skip("pole_orders", why, "afe")]
    iso = {"order": -3} | _coefficient("Res_{s=1} Phi_{f,f}", ctx.res_ff["residue"])
    pair = {"order": -2} | _coefficient("Phi_{f,g}(1)", lseries.afe_eval(ctx.rs, 1.0))
    fails = sum(not c["nonzero"] for c in (iso, pair))
    return [_record("pole_orders", float(fails), 0.0, 0.5,
                    extra={"isogenous": iso, "pair": pair}, pipelines="afe")]


def check_sym2(ctx: RunContext) -> list[dict]:
    """Res_{s=1} Phi / (2 pi psi(N) (f, f)) against sum_{d|N} mu(d)/d =
    phi(N)/N for the first curve."""
    rep = lseries.sym2_report(ctx.c1, ctx.pet_ff, ctx.rs_ff, ctx.res_ff)
    N = ctx.c1.conductor
    ratio = rep.pop("residue_ratio")
    return [_record("sym2", ratio, arith.totient(N) / N, 1e-4,
                    extra={k: _num(v) for k, v in rep.items()},
                    pipelines="afe,quadrature")]


def check_modular_degree(ctx: RunContext) -> list[dict]:
    """The degree of X_0(N_i) -> E_i as 4 pi^2 psi(N_i) (f_i, f_i) / area_i
    (Manin constant 1) against Cremona's, for each curve.  The norms are
    the N sweep's, normalised by 1/psi(N), which equals the norm at the
    curve's own level.  Skipped for a curve whose a-invariants are not a
    registry curve's, as the degree is not known."""
    out = []
    for i, (curve, key) in enumerate(((ctx.c1, "pet_ff"), (ctx.c2, "pet_gg")), start=1):
        name = f"modular_degree_curve{i}"
        degree = curves.modular_degree(curve)
        if degree is None:
            out.append(_skip(name, f"{curve.label} {list(curve.ainvs)} is not a registry "
                                   "curve, so its modular degree is not known",
                             "quadrature,agm"))
            continue
        area = curves.period_lattice(curve).area
        c = 4.0 * math.pi**2 * arith.index_psi(curve.conductor) / area
        pet = ctx.fam[key]
        out.append(_record(name, EvalResult(c * pet.value, c * pet.abs_error_bound), degree,
                           0.05, extra={"period_area": area}, pipelines="quadrature,agm"))
    return out


def _third_form(ctx: RunContext):
    """The third curve's form, or None: the first built-in curve (in
    curves._REGISTRY order) whose conductor is square-free and coprime
    to both levels."""
    third = (curves.curve_by_label(label) for label in curves._REGISTRY)
    return next((modular.CuspFormEval.from_curve(c, ctx.n_max) for c in third
                 if arith.is_squarefree(c.conductor) and math.gcd(c.conductor, ctx.N) == 1),
                None)


def check_triple_product(ctx: RunContext) -> list[dict]:
    """Order of L(H^4) = zeta^3 prod L(H^2) at the Tate point s = 3 for
    the two curves and a third (_third_form): zeta(s-2)^3 gives -3, and
    each pair whose Phi(1) does not clear ten times its bar adds one to
    lhs.  Skipped for an isogenous pair, when the AFE does not cover one
    of the three pairs, and when no built-in curve can be the third."""
    he = None if ctx.rs.isogenous else _third_form(ctx)
    pairs = [ctx.rs, *(lseries.RankinSeries.build(x, he)
                       for x in (ctx.fe, ctx.ge) if he is not None)]
    why = ("the pair is isogenous; the triple product is over non-isogenous curves"
           if ctx.rs.isogenous else next(filter(None, map(lseries.afe_unsupported, pairs)), None)
           or (he is None and "no built-in curve has a square-free conductor coprime to "
               "both levels"))
    if why:
        return [_skip("triple_product", why, "afe")]
    phis = [_coefficient(f"Phi_{{{rr.N1},{rr.N2}}}(1)", lseries.afe_eval(rr, 1.0))
            for rr in pairs]
    pairwise = [0 if c["nonzero"] else 1 for c in phis]
    return [_record("triple_product", float(-3 + sum(pairwise)), -3, 0.3,
                    extra={"phi_at_1": phis, "pairwise_orders": pairwise},
                    pipelines="afe")]


CHECKS = {
    "ap": check_ap,
    "unfolding": check_unfolding,
    "epstein": check_epstein,
    "epstein_residue": check_epstein_residue,
    "kronecker": check_kronecker,
    "rankin_selberg": check_rankin_selberg,
    "residue_law": check_residue_law,
    "orthogonality": check_orthogonality,
    "class_number_formula": check_class_number_formula,
    "pole_orders": check_pole_orders,
    "sym2": check_sym2,
    "modular_degree": check_modular_degree,
    "triple_product": check_triple_product,
}


def run(ctx: RunContext, only: str | None = None) -> tuple[list[dict], dict]:
    """Records of the selected checks, in CHECKS order, and the seconds
    of each check.  Time spent in the shared N sweep is left out of the
    check that first asks for it; it is under 'sweep_pair_family'."""
    records: list[dict] = []
    for name, check in CHECKS.items():
        if only in (None, name):
            shared = ctx.timings.get("sweep_pair_family", 0.0)
            t0 = time.perf_counter()
            records += check(ctx)
            elapsed = time.perf_counter() - t0
            ctx.timings[name] = elapsed - (ctx.timings.get("sweep_pair_family", 0.0) - shared)
    return records, ctx.timings
