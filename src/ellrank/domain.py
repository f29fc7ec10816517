"""Gamma_0(N) coset decomposition and hyperbolic quadrature over X_0(N).

The integration domain is the standard fundamental domain F of the full
modular group, truncated at y_cut, swept through the psi(N) coset
representatives:  Int_{X_0(N)} H dmu = sum_j Int_F H(gamma_j z) dmu.

Quadrature: tensor Gauss-Legendre panels in x, geometric panel
subdivision in y starting at the arc |z| = 1; node weights carry the
hyperbolic measure dx dy / y^2.  Only the x >= 0 half of F carries
nodes, an x > 0 node with twice its weight: iota(z) = -conj(z) normalises
Gamma_0(N), maps F to itself and permutes the cosets, so an integrand with
H(-conj z) = conj H(z) (forms with real coefficients; E*, log|Delta| and
the cyclotomic sum are symmetric) integrates to the real part of the
half-domain sum.  A grid's weight matrix ws (2, n) is the only
description of its two rules: row 0 holds each node's weight in the rule
at the grid's depth, row 1 its weight in the rule one depth coarser (0
where a rule has no such node).  Every integral is ws @ values of the
unweighted node values, so a single sweep gives it on both rules: the
value is the fine one and its depth-doubling error the distance between
the two.
Cusp truncation tail: every pair integrand decays like
C e^{-2 pi y (1/w_f + 1/w_g)} into each cusp (w = cusp width <= the
form's level), so the neglected mass beyond y_cut = 12 is below 1e-7 in
absolute terms for the levels used here (about 2e-6 relative to
(f, f)); the Petersson products add that tail estimate to their error.

One primitive, sweep_pair_family, computes every pair integral over
X_0(N) with its error and returns the paper's quantities, each
normalised there and nowhere else: the Petersson products (1/psi(N)),
the regulator side of the class-number formula (-pi/3) and its
cyclotomic q-logarithm side (-4 pi).  The grid, the Rankin series and
any sweep a function only reads are the caller's to build
(checks.RunContext builds each once per run).

Upper-triangular classes (Cohen, GTM 138; Cremona, Algorithms for
Modular Elliptic Curves): no layer searches a point's orbit.  Each runs
at U w, U = [alpha beta; 0 delta] the exact Hermite form of
diag(m, 1) gamma_j = sigma U (sigma in SL2(Z), 0 <= beta < delta):

  - m = N/d, d | N.  E* and h(z) = log|Delta(z)| + 6 log Im z are
    SL2(Z)-invariant, so E*(N gamma_j w/d, s) = E*(U w, s) and
    log|Delta_N(gamma_j w)| = sum_d mu(d) h(U_{j,d} w) - 6 Lambda(N).
    At N = 154 the 2304 pairs (j, d) form sum_{m|N} sigma_1(m) = 468
    classes, each evaluated once, and both at the class's one SL2(Z)
    reduction of U w.
  - m = Q = N / gcd(c_j, N).  sigma^{-1} diag(Q, 1) lies in W_Q Gamma_0(N)
    (N square-free), so the cyclotomic sum C = log|Delta_N| / 24 has
    C(gamma_j w) = mu(Q) C(U w) + (mu(Q) - 1) Lambda(N) / 4 (Lambda(N) = 0
    unless N is prime), and a form f of level L (Q, U at level L) has
    (f|gamma_j)(w) = eps_f(Q) Q delta^{-2} f(U w).  Two reps share U
    exactly when they share a Gamma_0(L) coset, so f runs once per
    level-L class (12 and 24 times for 11a and 14a at N = 154).

Atkin-Lehner families: gcd(Q, c_j) = 1 (N square-free) makes alpha = 1,
so the cyclotomic class of rep j is U = [1 beta_j; 0 Q], and the reps with
the same Q have beta_j = 0 .. Q-1, once each (8 families for the 288
reps at N = 154).  modular.cyclotomic_qlog_sum_family evaluates C at
(w + beta) / Q for every beta of a family at once: the q-expansion of C at
the point itself, split into Q residue classes of the exponent, one
matrix product over the nodes' own q and one FFT of length Q over beta.
It reads no eta value, no modular transformation and no regulator, and
its cost depends on the height of w in F, not on that of U w.  Each
family's rows and each Hermite class's arrays are folded by ws into
per-rep scalar pairs, one per rule, as soon as they are built; each key's
scalars are combined rule by rule with math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import divisors, index_psi, is_squarefree, moebius, prime_divisors
from .eisenstein import epstein_star_array
from .halfplane import apply_moebius, ext_gcd, hermite, sl2z_reduce
from .lseries import L_direct
from .modular import (
    CuspFormEval,
    _qseries,
    cyclotomic_qlog_sum_family,
    eval_form_array,
    log_abs_delta_array,
)
from .specialfn import EvalResult, gauss_panels


@dataclass(frozen=True)
class CosetRep:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")


@lru_cache(maxsize=None)
def _p1_classes(N: int) -> tuple:
    """Canonical representatives of P^1(Z/N): orbits of unit scaling."""
    units = [u for u in range(1, N) if math.gcd(u, N) == 1] or [1]
    seen = set()
    classes = []
    for c in range(N):
        for d in range(N):
            if math.gcd(math.gcd(c, d), N) != 1 or (c, d) in seen:
                continue
            orbit = {((u * c) % N, (u * d) % N) for u in units}
            seen.update(orbit)
            classes.append(min(orbit))
    return tuple(sorted(classes))


@lru_cache(maxsize=None)
def coset_reps(N: int) -> tuple[CosetRep, ...]:
    """Representatives of Gamma_0(N) \\ SL2(Z), exactly psi(N) of them,
    one per class of the bottom row in P^1(Z/N)."""
    reps = []
    for c0, d0 in _p1_classes(N):
        c, d = (0, 1) if c0 == 0 else next(
            (c0, dd) for k in range(N + 1) for dd in (d0 + k * N, d0 - k * N)
            if math.gcd(c0, dd) == 1)
        # a d - b c = 1
        g, a, negb = ext_gcd(d, c)
        assert g == 1
        reps.append(CosetRep(a, -negb, c, d))
    assert len(reps) == index_psi(N)
    return tuple(reps)


@lru_cache(maxsize=None)
def _hermite_classes(N: int, reps: tuple) -> dict:
    """Each Hermite class U over its (index j in reps, d | N) pairs, U the
    Hermite form of diag(N/d, 1) gamma_j."""
    classes: dict = {}
    for j, rep in enumerate(reps):
        for d in divisors(N):
            classes.setdefault(hermite(N // d, rep.a, rep.b, rep.c, rep.d), []).append((j, d))
    return classes


@lru_cache(maxsize=None)
def _cusp_families(N: int, reps: tuple) -> dict:
    """Each Q | N over the (index j in reps, beta) of the reps with
    N / gcd(c_j, N) = Q, where [1 beta; 0 Q] is the Hermite form of
    diag(Q, 1) gamma_j (N square-free: gcd(Q, c_j) = 1 makes alpha = 1)."""
    families: dict = {}
    for j, rep in enumerate(reps):
        Q = N // math.gcd(rep.c, N)
        alpha, beta, delta = hermite(Q, rep.a, rep.b, rep.c, rep.d)
        assert alpha == 1 and delta == Q
        families.setdefault(Q, []).append((j, beta))
    return families


# ------------------------------------------------------------------ grid

@dataclass
class QuadratureGrid:
    level: int
    reps: tuple
    xs: np.ndarray
    ys: np.ndarray
    # (2, n): each node's weight, with 1/y^2, in the depth rule (row 0) and in
    # the depth - 1 rule (row 1), so ws @ v integrates v on both
    ws: np.ndarray
    y_cut: float
    depth: int


_NX_BASE = 4        # x-panels at depth 0
_GL_ORDER = 6       # Gauss-Legendre nodes per panel side


def build_grid(level: int, depth: int = 2, y_cut: float = 12.0) -> QuadratureGrid:
    """Tensor panel rules on F intersected with {y <= y_cut}, kept on the
    x >= 0 half (the weight of a node at x > 0 doubled, module docstring),
    at depth and at depth - 1.  The grid carries the nodes of both rules;
    row 0 of ws holds each node's weight in the first and row 1 its weight
    in the second, so ws @ v integrates v on both in one pass."""
    xs_all, ys_all, ws_all = [], [], []
    for row in (0, 1):
        n_panels = max(1, round(_NX_BASE * 2.0 ** (depth - row)))
        rho = 2.0 ** (2.0 ** (1 - depth + row))
        for x, wx in zip(*gauss_panels(np.linspace(-0.5, 0.5, n_panels + 1), _GL_ORDER)):
            if x < 0:
                continue            # the node at -x stands in for it
            y_edges = [math.sqrt(max(1.0 - x * x, 0.0))]
            while y_edges[-1] < y_cut - 1e-12:
                y_edges.append(min(y_edges[-1] * rho, y_cut))
            yn, wy = gauss_panels(y_edges, _GL_ORDER)
            xs_all.append(np.full_like(yn, x))
            ys_all.append(yn)
            ws_all.append(np.outer((1 - row, row), (2.0 if x > 0 else 1.0) * wx * wy / yn**2))
    return QuadratureGrid(level=level, reps=coset_reps(level), xs=np.concatenate(xs_all),
                          ys=np.concatenate(ys_all), ws=np.concatenate(ws_all, axis=1),
                          y_cut=y_cut, depth=depth)


def random_gamma0_elements(N: int, count: int, seed: int = 7) -> list[tuple]:
    """Random words in Gamma_0(N) with bounded entries.  The bound keeps
    image points representable in double precision: an element moves a
    point down to height y/|cz+d|^2 and any evaluation there carries a
    relative error ~eps |cz+d|^2 / y, so 1e-8 invariance checks need
    entries of a few thousand at most (4000 here)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(3):
            k = int(rng.integers(-2, 3))
            a, b = a + k * c, b + k * d              # T^k
            m = int(rng.integers(-1, 2))
            c, d = c + m * N * a, d + m * N * b      # V^m
        if max(abs(a), abs(b), abs(c), abs(d)) <= 4000:
            out.append((a, b, c, d))
    return out


class InvarianceError(ValueError):
    pass


def check_invariance(N: int, H):
    """Gate H(-x, y) = conj H(x, y) and, at 5 random group elements,
    Gamma_0(N)-invariance, both to relative tolerance 1e-7."""
    pts_x = np.array([0.07, -0.31, 0.42])
    pts_y = np.array([0.83, 1.21, 0.95])
    base = H(pts_x, pts_y)
    scale = float(np.max(np.abs(base))) or 1.0
    if np.max(np.abs(H(-pts_x, pts_y) - np.conj(base))) > 1e-7 * scale:
        raise InvarianceError("integrand not conjugate-symmetric: H(-x, y) != conj H(x, y)")
    for g in random_gamma0_elements(N, 5):
        moved = H(*apply_moebius(*g, pts_x, pts_y))
        if np.max(np.abs(moved - base)) > 1e-7 * scale:
            raise InvarianceError(f"integrand not Gamma_0({N})-invariant at element {g}")


def _rule_result(pairs: list, scale: float, tail: float) -> EvalResult:
    """An integral from its per-coset or per-class (depth rule, depth - 1
    rule) sums pairs, each rule's added with math.fsum and times scale: the
    depth rule's value with, as error, its distance to the depth - 1
    rule's plus tail (the cusp truncation's, where one is known)."""
    fine, coarse = (scale * math.fsum(col) for col in np.asarray(pairs, dtype=float).T)
    return EvalResult(fine, abs(fine - coarse) + tail)


def _upper_image(U: tuple[int, int, int], grid: "QuadratureGrid"):
    """U w = (alpha w + beta) / delta on the grid nodes w."""
    alpha, beta, delta = U
    return (alpha * grid.xs + beta) / delta, alpha * grid.ys / delta


def pair_tail_bound(fe: CuspFormEval, ge: CuspFormEval, N: int, y_cut: float) -> float:
    """Cusp-truncation bound on the Petersson product (f, g) of level N
    beyond y_cut: the slowest decay over the cusps of X_0(N) is
    exp(-2 pi y (1/level_f + 1/level_g)) with leading coefficients
    <= 1/level each, one cusp family per divisor of N; divided by
    psi(N), as the product is."""
    # leading local Fourier mass at the slowest cusp family integrates to
    # ~(1/4 pi) e^{-rate y}; factor 4 slack (empirically ~25x above the
    # measured tail for the 11a/14a pairs)
    rate = 2.0 * math.pi * (1.0 / fe.level + 1.0 / ge.level)
    return len(divisors(N)) * math.exp(-rate * y_cut) / index_psi(N)


def integrate_invariant(N: int, H, grid: QuadratureGrid) -> EvalResult:
    """Int_{X_0(N)} H dmu by coset sweep, H evaluated pointwise at every
    coset image gamma_j w, with its depth-doubling error (the
    cusp-truncation tail beyond y_cut is integrand specific and not
    included).  H must pass check_invariance, and grid be of level N: the
    value, a float, is the real part of the sum over the grid's x >= 0
    half of F.

    The battery does not call it: it is the per-point reference that
    the class-streamed sweep_pair_family is tested against
    (test_sweep_matches_per_point_integrals, test_area_constant_integrand),
    and the benchmark's tracer binds its name."""
    if grid.level != N:
        raise ValueError(f"grid of level {grid.level}, integral over X_0({N})")
    check_invariance(N, H)
    return _rule_result([grid.ws @ np.real(H(*apply_moebius(r.a, r.b, r.c, r.d, grid.xs, grid.ys)))
                         for r in grid.reps], 1.0, 0.0)


def petersson(fe: CuspFormEval, ge: CuspFormEval, N: int, grid: QuadratureGrid) -> EvalResult:
    """(f, g) = (1/psi(N)) Int_{X_0(N)} f conj(g) y^2 dmu on grid, with
    the depth-doubling error plus the cusp-truncation tail."""
    return sweep_pair_family(fe, ge, N, grid)["pet_fg"]


# ------------------------------------------------- multi-integrand sweep

def slash_on_cosets(form: CuspFormEval, grid: QuadratureGrid) -> list:
    """(f|gamma_j)(w) = (c_j w + d_j)^{-2} f(gamma_j w) on the grid nodes w,
    for every Gamma_0(grid.level) rep gamma_j, as eps_f(Q) Q delta^{-2}
    f(U w) with Q = L / gcd(c_j, L) (module docstring): one q-series per
    level-L class; entry j is the array of its class, shared, not copied."""
    L = form.level
    per_class: dict = {}
    out = []
    for r in grid.reps:
        Q = L // math.gcd(r.c, L)
        U = hermite(Q, r.a, r.b, r.c, r.d)
        if U not in per_class:
            ux, uy = _upper_image(U, grid)
            per_class[U] = (form.sign_for(Q) * Q / U[2] ** 2
                            * _qseries(form._coeffs_f, ux, uy))
        out.append(per_class[U])
    return out


def sweep_pair_family(fe: CuspFormEval, ge: CuspFormEval, N: int,
                      grid: QuadratureGrid, s_values: tuple = (),
                      want_regulator: bool = False, want_cnf: bool = False) -> dict:
    """One pass over the coset sweep of X_0(N) (truncated at grid.y_cut)
    computing, simultaneously, the paper's quantities, each normalised
    here and nowhere else:

      'pet_fg'             (f, g) = (1/psi(N)) Int f conj(g) y^2 dmu
      'pet_ff', 'pet_gg'   (f, f) and (g, g), likewise
      ('eis', s, d)        Int f conj(g) y^2 E*(N z / d, s) dmu per d | N
      'regulator'          -(pi/3) Int log|Delta_N| f conj(g) y^2 dmu,
                           Phi(0) = L'_{f,g}(0) for coprime square-free
                           levels with at least two primes dividing N
      'cnf'                -4 pi Int C f conj(g) y^2 dmu, C(z) the sum of
                           qlog(z, xi^k) over primitive k mod N: the
                           cyclotomic q-logarithm side of the
                           class-number formula without H(0),
                           sum_k (1/2 pi i) Int log_q(xi^k) f conj(g)
                           dq/q dqbar/qbar (want_cnf)

    Every key is an EvalResult of floats: the value (the real part of the
    half-domain sum, module docstring) on the depth rule (grid.ws row 0)
    with, as error, its distance to the value on the depth - 1 rule (row
    1), both from this one pass over the grid's nodes; the Petersson keys
    add the cusp-truncation tail (pair_tail_bound).  The forms are
    evaluated once per coset of their own level, E* and h once per Hermite
    class, and the cyclotomic sum once per Atkin-Lehner family (module
    docstring).  The grid must be of level N, both form levels must divide
    N, and f conj(g) y^2 must pass check_invariance.
    """
    if grid.level != N:
        raise ValueError(f"grid of level {grid.level}, integral over X_0({N})")
    if N % fe.level or N % ge.level:
        raise ValueError("both levels must divide N")
    if want_cnf and (N <= 1 or not is_squarefree(N)):
        raise ValueError("the cyclotomic sum needs square-free N > 1")
    check_invariance(N, lambda x, y: (eval_form_array(fe, x, y)
                                      * np.conj(eval_form_array(ge, x, y)) * y**2))
    fs = slash_on_cosets(fe, grid)
    gs = fs if ge is fe else slash_on_cosets(ge, grid)
    # f(gamma w) conj(g(gamma w)) Im(gamma w)^2 = (f|gamma)(w) conj((g|gamma)(w)) y^2;
    # the other factors are real, so the keys, real parts (module docstring),
    # need only Re(f conj(g)) y^2; ws @ v sums v on both rules
    y2 = grid.ys**2
    bs = [(F * np.conj(G)).real * y2 for F, G in zip(fs, gs)]
    parts: dict = {"pet_fg": [grid.ws @ b for b in bs]}
    for key, A in (("pet_ff", fs), ("pet_gg", gs)):
        parts[key] = [grid.ws @ ((F * np.conj(F)).real * y2) for F in A]

    def add(key, v):
        parts.setdefault(key, []).append(grid.ws @ v)

    # Lambda(N) = sum_d mu(d) log(N/d), von Mangoldt
    lam = math.log(pd[0]) if len(pd := prime_divisors(N)) == 1 else 0.0
    if want_regulator:
        parts["regulator"] = [-6.0 * lam * p for p in parts["pet_fg"]]
    mu = {d: moebius(d) for d in divisors(N)}
    classes = _hermite_classes(N, grid.reps) if s_values or want_regulator else {}
    for U, members in classes.items():
        ux, uy = _upper_image(U, grid)
        rx, ry = sl2z_reduce(ux, uy)[:2]
        estar = {s: epstein_star_array(rx, ry, s) for s in s_values}
        if want_regulator:
            h = log_abs_delta_array(rx, ry) + 6.0 * np.log(ry)
        for j, d in members:
            b = bs[j]
            for s in s_values:
                add(("eis", s, d), b * estar[s])
            if want_regulator and mu[d]:
                add("regulator", mu[d] * (b * h))
    families = _cusp_families(N, grid.reps) if want_cnf else {}
    for Q, members in families.items():
        C = cyclotomic_qlog_sum_family(grid.xs, grid.ys, N, Q)     # row beta: C(U w)
        mq = mu[Q]
        for j, beta in members:     # C(gamma_j w) = mu(Q) C(U w) + (mu(Q) - 1) Lambda(N) / 4
            add("cnf", bs[j] * (mq * C[beta] + (mq - 1) * lam / 4.0))
        del C                       # before the next family's rows are built
    psi = len(grid.reps)            # psi(N), one rep per coset
    tail = {key: pair_tail_bound(a, b, N, grid.y_cut)
            for key, a, b in (("pet_fg", fe, ge), ("pet_ff", fe, fe), ("pet_gg", ge, ge))}
    scale = dict.fromkeys(tail, 1.0 / psi) | {"regulator": -math.pi / 3.0, "cnf": -4.0 * math.pi}
    return {key: _rule_result(pairs, scale.get(key, 1.0), tail.get(key, 0.0))
            for key, pairs in parts.items()}


def rs_identity_check(fe: CuspFormEval, ge: CuspFormEval, N: int, s: float,
                      rs, fam: dict) -> dict:
    """Rankin-Selberg unfolding identity at s > 1:

        lhs = 2 (4 pi)^{-s-1} Gamma(s+1) L_{f,g}(s)         (series side)
        rhs = N^{-s} sum_{d|N} mu(d) d^{-s} J_d,            (quadrature)
              J_d = Int_{X_0(N)} f conj(g) y^2 E(N z/d, s) dmu

    The two printed exponent conventions (d^{-2s}, and d^{-s} with no
    N^{-s}) are evaluated alongside; the dict reports all three and
    which one closes.  rs is RankinSeries.build(fe, ge) and fam a
    sweep_pair_family result for (fe, ge, N) with s among its s_values.
    lhs and each rhs variant are EvalResults: L_direct's tail bound and
    the errors of the J_d, carried linearly through the fixed factors.
    """
    if not 1.2 < s <= 3.0:
        raise ValueError("rs identity checked for s in (1.2, 3]")
    conv = math.pi**s / math.gamma(s)     # E = pi^s/Gamma(s) E*
    divs = divisors(N)
    eis = {d: fam[("eis", s, d)] for d in divs}

    def combine(w, c=1.0):      # c sum_d mu(d) w(d) J_d, with its error
        return EvalResult(c * sum(moebius(d) * w(d) * conv * eis[d].value for d in divs),
                          c * sum(abs(moebius(d)) * w(d) * conv * eis[d].abs_error_bound
                                  for d in divs))

    series = L_direct(rs, s)
    c = 2.0 * (4.0 * math.pi) ** (-s - 1.0) * math.gamma(s + 1.0)
    lhs = EvalResult(c * series.value, c * series.abs_error_bound)
    variants = {"N^-s d^-s": combine(lambda d: float(d) ** (-s), float(N) ** (-s)),
                "d^-s": combine(lambda d: float(d) ** (-s)),
                "d^-2s": combine(lambda d: float(d) ** (-2.0 * s))}
    diffs = {k: abs(lhs.value - v.value) / max(abs(lhs.value), 1e-300)
             for k, v in variants.items()}
    resolved = min(diffs, key=diffs.get)
    return {
        "s": s,
        "lhs": lhs,
        "rhs": variants,
        "rel_diffs": diffs,
        "resolved_exponent": resolved,
        "diff": diffs[resolved],
    }


_UNFOLD_TERMS = 400


def unfolding_check(fe: CuspFormEval, ge: CuspFormEval, s: float) -> dict:
    """Pure series identity behind the unfolding (no coset machinery):

        Int_0^inf y^s [sum_{n <= M} a_n b_n e^{-4 pi n y}] dy
          = (4 pi)^{-s-1} Gamma(s+1) sum_{n <= M} a_n b_n n^{-(s+1)},

    M = min(400, both tables' nmax) (the identity holds at any M), the
    left side by panel Gauss-Legendre quadrature, an EvalResult: the
    24-point value with, as error, its distance to the 12-point value on
    the same panels plus a rounding floor of 1e-15 relative (the two
    rules can agree to the last bit)."""
    M = min(_UNFOLD_TERMS, fe.table.nmax, ge.table.nmax)
    ab = (fe.table.coefficients[1:M + 1] * ge.table.coefficients[1:M + 1]).astype(float)
    ns = np.arange(1, M + 1, dtype=float)
    # panels refined geometrically toward 0: the truncated exponential
    # sum varies on the scale 1/(4 pi M) there
    y0 = 1.0 / (8.0 * math.pi * M)
    edges = [0.0] + [y0 * 2.0**k for k in range(0, 22) if y0 * 2.0**k < 40.0] + [40.0]

    def panels(order: int) -> float:
        yn, wy = gauss_panels(edges, order)
        vals = yn**s * (ab @ np.exp(-4.0 * math.pi * ns[:, None] * yn))
        return float(vals @ wy)

    lhs = panels(24)
    rhs = (4.0 * math.pi) ** (-s - 1.0) * math.gamma(s + 1.0) * float(np.sum(ab * ns ** (-(s + 1.0))))
    return {"lhs": EvalResult(lhs, abs(lhs - panels(12)) + 1e-15 * abs(lhs)), "rhs": rhs,
            "rel_diff": abs(lhs - rhs) / abs(rhs)}
