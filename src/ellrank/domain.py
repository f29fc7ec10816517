"""Gamma_0(N) coset decomposition and hyperbolic quadrature over X_0(N).

The integration domain is the standard fundamental domain F of the full
modular group, truncated at y_cut, swept through the psi(N) coset
representatives:  Int_{X_0(N)} H dmu = sum_j Int_F H(gamma_j z) dmu.

Quadrature: tensor Gauss-Legendre panels in x, geometric panel
subdivision in y starting at the arc |z| = 1; node weights carry the
hyperbolic measure dx dy / y^2.  Cusp truncation tail: every pair
integrand decays like C e^{-2 pi y (1/w_f + 1/w_g)} into each cusp
(w = cusp width <= the form's level), so the neglected mass beyond
y_cut = 12 is below 1e-7 in absolute terms for the levels used here
(about 2e-6 relative to (f, f)); petersson's error bound is the
depth-doubling difference plus that tail estimate.

One primitive, sweep_pair_family, computes every pair integral over
X_0(N) and returns the paper's quantities, each normalised there and
nowhere else: the Petersson products (1/psi(N)), the regulator side
of the class-number formula (-pi/3), its cyclotomic q-logarithm side
(-4 pi) and the share of the domain on the eta fallback.  Any key's
error is _depth_doubling over the same sweep.  The grid, the Rankin
series and any sweep a function only reads are the caller's to build
(checks.RunContext builds each once per run).

Upper-triangular classes (Cohen, GTM 138; Cremona, Algorithms for
Modular Elliptic Curves): no layer searches a point's orbit.  Each runs
at U w, U = [alpha beta; 0 delta] the exact Hermite form of
diag(m, 1) gamma_j = sigma U (sigma in SL2(Z), 0 <= beta < delta):

  - m = N/d, d | N.  E* and h(z) = log|Delta(z)| + 6 log Im z are
    SL2(Z)-invariant, so E*(N gamma_j w/d, s) = E*(U w, s) and
    log|Delta_N(gamma_j w)| = sum_d mu(d) h(U_{j,d} w) - 6 Lambda(N).
    At N = 154 the 2304 pairs (j, d) form sum_{m|N} sigma_1(m) = 468
    classes, each evaluated once.
  - m = Q = N / gcd(c_j, N).  sigma^{-1} diag(Q, 1) lies in W_Q Gamma_0(N)
    (N square-free), so the cyclotomic sum C = log|Delta_N| / 24 has
    C(gamma_j w) = mu(Q) C(U w) + (mu(Q) - 1) Lambda(N) / 4 (Lambda(N) = 0
    unless N is prime), and a form f of level L (Q, U at level L) has
    (f|gamma_j)(w) = eps_f(Q) Q delta^{-2} f(U w).  Two reps share U
    exactly when they share a Gamma_0(L) coset, so f runs once per
    level-L class (12 and 24 times for 11a and 14a at N = 154).

Im(U w) = alpha y / delta >= sqrt(3) / (2N): for N <= 346 no cyclotomic
node reaches the eta fallback below 0.0025, so C runs through the Moebius
factorisation log|Phi_N(X)| = sum_{d|N} mu(d) log|1 - X^{N/d}| at every
node, independently of the eta product.  The classes are streamed
(their arrays folded into per-rep scalars, then dropped); each key's
scalars are combined with math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import divisors, index_psi, is_squarefree, moebius, prime_divisors
from .eisenstein import epstein_star_array
from .halfplane import apply_moebius, ext_gcd, hermite
from .lseries import L_direct
from .modular import (
    FORM_TOL,
    CuspFormEval,
    _qseries,
    cyclotomic_qlog_sum_array,
    eval_form_array,
    log_abs_delta_array,
)
from .specialfn import EvalResult, _gamma_raw


@dataclass(frozen=True)
class CosetRep:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    @property
    def row(self):
        return (self.c, self.d)


@lru_cache(maxsize=None)
def _p1_classes(N: int) -> tuple:
    """Canonical representatives of P^1(Z/N): orbits of unit scaling."""
    units = [u for u in range(1, N) if math.gcd(u, N) == 1] or [1]
    seen = set()
    classes = []
    for c in range(N):
        for d in range(N):
            if math.gcd(math.gcd(c, d), N) != 1:
                continue
            if (c, d) in seen:
                continue
            orbit = {((u * c) % N, (u * d) % N) for u in units}
            canon = min(orbit)
            seen.update(orbit)
            classes.append(canon)
    return tuple(sorted(classes))


@lru_cache(maxsize=None)
def coset_reps(N: int) -> tuple[CosetRep, ...]:
    """Representatives of Gamma_0(N) \\ SL2(Z), exactly psi(N) of them,
    one per class of the bottom row in P^1(Z/N)."""
    reps = []
    for c0, d0 in _p1_classes(N):
        lift = None
        if c0 == 0:
            lift = (0, 1)
        else:
            for k in range(N + 1):
                for dd in (d0 + k * N, d0 - k * N):
                    if math.gcd(c0, dd) == 1:
                        lift = (c0, dd)
                        break
                if lift:
                    break
        c, d = lift
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


# ------------------------------------------------------------------ grid

@dataclass
class QuadratureGrid:
    level: int
    reps: tuple
    xs: np.ndarray
    ys: np.ndarray
    ws: np.ndarray            # includes the 1/y^2 hyperbolic density
    y_cut: float
    depth: int


def _gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


def build_grid(level: int, depth: int = 2, y_cut: float = 12.0,
               nx_base: int = 4, gl_order: int = 6) -> QuadratureGrid:
    """Tensor panel grid on F intersected with {y <= y_cut}."""
    gx, gw = _gauss_legendre(gl_order)
    n_panels = max(1, round(nx_base * 2.0**depth))
    edges = np.linspace(-0.5, 0.5, n_panels + 1)
    xs_all, ys_all, ws_all = [], [], []
    rho = 2.0 ** (2.0 ** (1 - depth))
    for i in range(n_panels):
        x0, x1 = edges[i], edges[i + 1]
        xm, xh = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
        xn = xm + xh * gx
        wxn = xh * gw
        for x, wx in zip(xn, wxn):
            ylow = math.sqrt(max(1.0 - x * x, 0.0))
            b = ylow
            while b < y_cut - 1e-12:
                t = min(b * rho, y_cut)
                ym, yh = 0.5 * (b + t), 0.5 * (t - b)
                yn = ym + yh * gx
                wyn = yh * gw
                xs_all.append(np.full_like(yn, x))
                ys_all.append(yn)
                ws_all.append(wx * wyn / yn**2)
                b = t
    return QuadratureGrid(
        level=level,
        reps=coset_reps(level),
        xs=np.concatenate(xs_all),
        ys=np.concatenate(ys_all),
        ws=np.concatenate(ws_all),
        y_cut=y_cut,
        depth=depth,
    )


def random_gamma0_elements(N: int, count: int, seed: int = 7,
                           max_entry: int = 4000) -> list[tuple]:
    """Random words in Gamma_0(N) with bounded entries.  The bound keeps
    image points representable in double precision: an element moves a
    point down to height y/|cz+d|^2 and any evaluation there carries a
    relative error ~eps |cz+d|^2 / y, so 1e-8 invariance checks need
    entries of a few thousand at most."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(3):
            k = int(rng.integers(-2, 3))
            a, b = a + k * c, b + k * d              # T^k
            m = int(rng.integers(-1, 2))
            c, d = c + m * N * a, d + m * N * b      # V^m
        if max(abs(a), abs(b), abs(c), abs(d)) <= max_entry:
            out.append((a, b, c, d))
    return out


class InvarianceError(ValueError):
    pass


def check_invariance(N: int, H, tol: float = 1e-7, seed: int = 7):
    """Stochastic Gamma_0(N)-invariance gate: 5 random group elements."""
    pts_x = np.array([0.07, -0.31, 0.42])
    pts_y = np.array([0.83, 1.21, 0.95])
    base = H(pts_x, pts_y)
    scale = float(np.max(np.abs(base))) or 1.0
    for g in random_gamma0_elements(N, 5, seed=seed):
        a, b, c, d = g
        gx, gy = apply_moebius(np.full(3, a), np.full(3, b), np.full(3, c),
                               np.full(3, d), pts_x, pts_y)
        moved = H(gx, gy)
        if np.max(np.abs(moved - base)) > tol * scale:
            raise InvarianceError(f"integrand not Gamma_0({N})-invariant at element {g}")


def _fsum_parts(parts: dict) -> dict:
    """Each key's list of complex partial integrals, summed with math.fsum."""
    return {k: complex(math.fsum(p.real for p in v), math.fsum(p.imag for p in v))
            for k, v in parts.items()}


def _upper_image(U: tuple[int, int, int], grid: "QuadratureGrid"):
    """U w = (alpha w + beta) / delta on the grid nodes w."""
    alpha, beta, delta = U
    return (alpha * grid.xs + beta) / delta, alpha * grid.ys / delta


_GRID_CACHE: dict = {}


def _grid_pair(N: int, depth: int, y_cut: float):
    key = (N, depth, y_cut)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = build_grid(N, depth, y_cut)
    return _GRID_CACHE[key]


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


def _depth_doubling(sweep, grid: QuadratureGrid, fine: dict | None = None) -> dict:
    """Each integrand of sweep(grid) with its depth-doubling error: the
    distance to the same sweep on the grid one depth coarser.  fine,
    when given, is sweep(grid) already computed; only the keys of the
    coarse sweep are returned."""
    if fine is None:
        fine = sweep(grid)
    coarse = sweep(_grid_pair(grid.level, grid.depth - 1, grid.y_cut))
    return {k: EvalResult(fine[k], abs(fine[k] - c)) for k, c in coarse.items()}


def integrate_invariant(N: int, H, grid: QuadratureGrid, check: bool = True) -> EvalResult:
    """Int_{X_0(N)} H dmu by coset sweep, H evaluated pointwise at every
    coset image gamma_j w, with its depth-doubling error (the
    cusp-truncation tail beyond y_cut is integrand specific and not
    included).

    The battery does not call it: it is the per-point reference that
    the class-streamed sweep_pair_family is tested against
    (test_sweep_matches_per_point_integrals, test_area_constant_integrand),
    and the benchmark's tracer binds its name."""
    if check:
        check_invariance(N, H)

    def sweep(g):
        def one(rep):
            wx, wy = apply_moebius(rep.a, rep.b, rep.c, rep.d, g.xs, g.ys)
            return complex(np.sum(H(wx, wy) * g.ws))
        return _fsum_parts({"H": [one(rep) for rep in g.reps]})

    return _depth_doubling(sweep, grid)["H"]


def petersson(fe: CuspFormEval, ge: CuspFormEval, N: int, grid: QuadratureGrid,
              fam: dict | None = None) -> EvalResult:
    """(f, g) = (1/psi(N)) Int_{X_0(N)} f conj(g) y^2 dmu on grid, with
    the depth-doubling error plus the cusp-truncation tail.  fam, when
    given, is a sweep_pair_family result for (fe, ge, N) on the grid; it
    replaces the fine sweep."""
    if N % fe.level or N % ge.level:
        raise ValueError("both levels must divide N")
    check_invariance(N, lambda x, y: (eval_form_array(fe, x, y)
                                      * np.conj(eval_form_array(ge, x, y)) * y**2))
    r = _depth_doubling(lambda g: sweep_pair_family(fe, ge, N, g), grid, fam)["pet_fg"]
    return EvalResult(r.value, r.abs_error_bound + pair_tail_bound(fe, ge, N, grid.y_cut))


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
                            * _qseries(form._coeffs_f, ux, uy, FORM_TOL))
        out.append(per_class[U])
    return out


def sweep_pair_family(fe: CuspFormEval, ge: CuspFormEval, N: int,
                      grid: QuadratureGrid, s_values: tuple = (),
                      want_regulator: bool = False, want_cnf: bool = False,
                      want_norms: bool = False) -> dict:
    """One pass over the coset sweep of X_0(N) (truncated at grid.y_cut)
    computing, simultaneously, the paper's quantities, each normalised
    here and nowhere else:

      'pet_fg'             (f, g) = (1/psi(N)) Int f conj(g) y^2 dmu
      'pet_ff', 'pet_gg'   (f, f) and (g, g), likewise (want_norms)
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
      'deep_fraction'      share of the truncated domain's hyperbolic
                           measure on the eta fallback of C, a float; 0
                           for N <= 346 (want_cnf)

    The forms are evaluated once per coset of their own level; E*, h and
    the cyclotomic sum once per Hermite class (module docstring).  Each
    key's error is _depth_doubling over this sweep.
    """
    if want_cnf and (N <= 1 or not is_squarefree(N)):
        raise ValueError("the cyclotomic sum needs square-free N > 1")
    fs = slash_on_cosets(fe, grid)
    gs = fs if ge is fe else slash_on_cosets(ge, grid)
    # f(gamma w) conj(g(gamma w)) Im(gamma w)^2 = (f|gamma)(w) conj((g|gamma)(w)) y^2
    measure = grid.ys**2 * grid.ws
    parts: dict = {}

    def add(key, value):
        parts.setdefault(key, []).append(complex(value))

    for F, G in zip(fs, gs):
        add("pet_fg", np.sum(F * np.conj(G) * measure))
        if want_norms:
            add("pet_ff", np.sum(F * np.conj(F) * measure))
            add("pet_gg", np.sum(G * np.conj(G) * measure))
    # Lambda(N) = sum_d mu(d) log(N/d), von Mangoldt
    lam = math.log(pd[0]) if len(pd := prime_divisors(N)) == 1 else 0.0
    if want_regulator:
        parts["regulator"] = [-6.0 * lam * p for p in parts["pet_fg"]]
    # rep j's cyclotomic sum runs on its class for d = gcd(c_j, N)
    cusp = {(j, math.gcd(r.c, N)) for j, r in enumerate(grid.reps)} if want_cnf else set()
    mu = {d: moebius(d) for d in divisors(N)}
    for U, members in _hermite_classes(N, grid.reps).items():
        if not (s_values or want_regulator):
            members = [jd for jd in members if jd in cusp]
        if not members:
            continue
        ux, uy = _upper_image(U, grid)
        estar = {s: epstein_star_array(ux, uy, s) for s in s_values}
        if want_regulator:
            h = log_abs_delta_array(ux, uy) + 6.0 * np.log(uy)
        if cusp.intersection(members):
            cvals, deep = cyclotomic_qlog_sum_array(ux, uy, N)
        for j, d in members:
            b = fs[j] * np.conj(gs[j]) * measure
            for s in s_values:
                add(("eis", s, d), np.sum(b * estar[s]))
            if want_regulator and mu[d]:
                add("regulator", mu[d] * np.sum(b * h))
            if (j, d) in cusp:      # C(gamma_j w) = mu(Q) C(U w) + (mu(Q) - 1) Lambda(N) / 4
                mq = mu[N // d]
                add("cnf", np.sum(b * (mq * cvals + (mq - 1) * lam / 4.0)))
                add("deep_fraction", np.sum(grid.ws * deep))
    out = _fsum_parts(parts)
    psi = len(grid.reps)            # psi(N), one rep per coset
    for key in ("pet_fg", "pet_ff", "pet_gg"):
        if key in out:
            out[key] /= psi
    if want_regulator:
        out["regulator"] *= -math.pi / 3.0
    if want_cnf:
        out["cnf"] *= -4.0 * math.pi
        out["deep_fraction"] = out["deep_fraction"].real / (psi * (math.pi / 3.0 - 1.0 / grid.y_cut))
    return out


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
    """
    if not 1.2 < s <= 3.0:
        raise ValueError("rs identity checked for s in (1.2, 3]")
    conv = math.pi**s / _gamma_raw(s)     # E = pi^s/Gamma(s) E*
    J = {d: conv * fam[("eis", s, d)] for d in divisors(N)}
    lhs = 2.0 * (4.0 * math.pi) ** (-s - 1.0) * _gamma_raw(s + 1.0) * L_direct(rs, s).value
    variants = {
        "N^-s d^-s": float(N) ** (-s) * sum(moebius(d) * float(d) ** (-s) * J[d].real for d in divisors(N)),
        "d^-s": sum(moebius(d) * float(d) ** (-s) * J[d].real for d in divisors(N)),
        "d^-2s": sum(moebius(d) * float(d) ** (-2.0 * s) * J[d].real for d in divisors(N)),
    }
    diffs = {k: abs(lhs - v) / max(abs(lhs), 1e-300) for k, v in variants.items()}
    resolved = min(diffs, key=diffs.get)
    return {
        "s": s,
        "lhs": lhs,
        "rhs": variants,
        "rel_diffs": diffs,
        "resolved_exponent": resolved,
        "diff": diffs[resolved],
    }


def unfolding_check(fe: CuspFormEval, ge: CuspFormEval, s: float,
                    n_terms: int = 400) -> dict:
    """Pure series identity behind the unfolding (no coset machinery):

        Int_0^inf y^s [sum_{n <= M} a_n b_n e^{-4 pi n y}] dy
          = (4 pi)^{-s-1} Gamma(s+1) sum_{n <= M} a_n b_n n^{-(s+1)},

    the left side by panel Gauss-Legendre quadrature."""
    a = fe.table.coefficients[: n_terms + 1].astype(float)
    b = ge.table.coefficients[: n_terms + 1].astype(float)
    ns = np.arange(1, n_terms + 1, dtype=float)
    ab = a[1:] * b[1:]
    gx, gw = _gauss_legendre(24)
    # panels refined geometrically toward 0: the truncated exponential
    # sum varies on the scale 1/(4 pi n_terms) there
    y0 = 1.0 / (8.0 * math.pi * n_terms)
    edges = [0.0] + [y0 * 2.0**k for k in range(0, 22) if y0 * 2.0**k < 40.0] + [40.0]
    lhs = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        ym, yh = 0.5 * (hi + lo), 0.5 * (hi - lo)
        yn = ym + yh * gx
        wn = yh * gw
        vals = yn**s * np.sum(ab[:, None] * np.exp(-4.0 * math.pi * ns[:, None] * yn), axis=0)
        lhs += float(np.sum(vals * wn))
    rhs = (4.0 * math.pi) ** (-s - 1.0) * _gamma_raw(s + 1.0) * float(np.sum(ab * ns ** (-(s + 1.0))))
    return {"lhs": lhs, "rhs": rhs, "rel_diff": abs(lhs - rhs) / abs(rhs)}
