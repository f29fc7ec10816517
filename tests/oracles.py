"""Independent oracles for the records that state their values.

The battery states the pole orders, the Moebius-combination exponent,
the ratios and the modular degrees that the paper and Cremona's tables
give, and measures only leading coefficients, one combination and the
period area.  These make the estimates it does not: the order of a
function at a point as a finite-difference slope, the completed Phi and
L(H^2) it is read off, the distance of the series side to each printed
exponent convention, the closest fraction of bounded denominator, and
the lattice invariants (g2 from E4, the quasi-periods from E2 and the
Legendre relation) that check a period basis, and affine point
arithmetic mod p, one point at a time, behind the lane-parallel BSGS.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from ellrank.arith import divisor_sigma_table, divisors, moebius
from ellrank.halfplane import boost_array
from ellrank.lseries import G_factor, L_direct, afe_eval, bad_factor_H
from ellrank.specialfn import EvalResult, PoleError, _zeta_raw


def order_of_vanishing(F, s0: float) -> dict:
    """Estimate ord_{s0} F as the slope of log|F| against log|s - s0|
    on the geometric ladder s0 + 0.32 * 2^-j, j = 0..3; negative = pole
    order."""
    hs = [0.32 * 0.5**j for j in range(4)]
    logs = [math.log(abs(F(s0 + h))) for h in hs]
    slopes = [
        (logs[i + 1] - logs[i]) / (math.log(hs[i + 1]) - math.log(hs[i]))
        for i in range(3)
    ]
    # the slope sequence converges linearly in h; extrapolate once
    extr = 2.0 * slopes[-1] - slopes[-2]
    order = round(extr)
    residual = abs(extr - order)
    return {
        "order": int(order),
        "slope": extr,
        "residual": residual,
        "inconclusive": residual > 0.2,
    }


def rs_exponent_rel_diffs(lhs: float, fam: dict, N: int, s: float) -> dict:
    """|lhs - rhs| / |lhs| for the three printed conventions of the
    Rankin-Selberg quadrature side, sum_{d|N} mu(d) w(d) J_d with
    w(d) = N^-s d^-s, d^-s or d^-2s, from the sweep's E* integrals."""
    conv = math.pi**s / math.gamma(s)     # E = pi^s/Gamma(s) E*
    J = {d: conv * fam[("eis", s, d)].value for d in divisors(N)}

    def combine(w):
        return sum(moebius(d) * w(d) * J[d] for d in J)

    variants = {"N^-s d^-s": float(N) ** (-s) * combine(lambda d: float(d) ** (-s)),
                "d^-s": combine(lambda d: float(d) ** (-s)),
                "d^-2s": combine(lambda d: float(d) ** (-2.0 * s))}
    return {k: abs(lhs - v) / abs(lhs) for k, v in variants.items()}


@dataclass(frozen=True)
class RationalGuess:
    numerator: int
    denominator: int
    residual: float

    def __post_init__(self):
        if self.denominator <= 0:
            raise ValueError("denominator must be positive")
        if math.gcd(self.numerator, self.denominator) != 1:
            raise ValueError("fraction not in lowest terms")


def best_rational(x: float, max_denominator: int) -> RationalGuess:
    """The fraction p/q closest to x over q <= max_denominator.

    Whenever |x - p/q| < 1/(2 q max_denominator) with q <= max_denominator
    the returned guess is exactly p/q.
    """
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    f = Fraction(x).limit_denominator(max_denominator)
    return RationalGuess(f.numerator, f.denominator, abs(x - f.numerator / f.denominator))


def recognize_rational(x: float, max_denominator: int, tol: float):
    """best_rational(x, max_denominator), or None if it is farther than tol.

    Rejection (residual > tol) is a normal outcome, not an error.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    guess = best_rational(x, max_denominator)
    return guess if guess.residual <= tol else None


def Phi(rs, s: float) -> EvalResult:
    """Completed Phi(s): direct pipeline above the strip, AFE inside."""
    if rs.isogenous and s == 1.0:
        raise PoleError("Phi has a simple pole at s = 1 (f = g, (f,f) != 0)")
    if s > 1.5:
        L = L_direct(rs, s)
        g = G_factor(rs, s)
        return EvalResult(g * L.value, abs(g) * L.abs_error_bound)
    return afe_eval(rs, s)


def assemble_LH2(rs, s: float) -> float:
    """L(H^2(E x E'), s) = zeta(s-1)^2 H(s-1) L_{f,g}(s-1)."""
    u = s - 1.0
    phi = Phi(rs, u)
    L = phi.value / G_factor(rs, u)
    return _zeta_raw(u) ** 2 * bad_factor_H(rs, u) * L


def eisenstein_E(weight: int, tau: complex) -> complex:
    """E_2 or E_4 at tau by 260 terms of sum sigma_{k-1}(n) q^n."""
    q = cmath.exp(2j * cmath.pi * tau)
    sig = divisor_sigma_table(260, weight - 1).tolist()
    series = sum(sig[n] * q**n for n in range(1, 261))
    return 1.0 + {2: -24.0, 4: 240.0}[weight] * series


def lattice_invariant_g2(omega1: complex, omega2: complex) -> complex:
    """g2 of the lattice Z w1 + Z w2, via E4 at an SL2(Z)-reduced tau; the
    reduction matrix is the level-1 boost's, which raises OverflowError
    for an entry beyond int64."""
    tau = omega2 / omega1
    if tau.imag < 0:
        omega2 = -omega2
        tau = -tau
    xr, yr, (_, _, c, d), _ = boost_array(1, [tau.real], [tau.imag])
    tau_red = complex(xr[0], yr[0])
    w1_new = int(c[0]) * omega2 + int(d[0]) * omega1
    return (2 * cmath.pi / w1_new) ** 4 * eisenstein_E(4, tau_red) / 12.0


def legendre_residual(lat) -> float:
    """|eta1 omega2 - eta2 omega1 - 2 pi i| for the basis of a period
    lattice, with the quasi-periods each from its own E2 series,
    eta1 = pi^2/(3 omega1) E2(tau) and eta2 = pi^2/(3 omega2) E2(-1/tau)."""
    tau = lat.omega2 / lat.omega1
    eta1 = (cmath.pi**2 / (3.0 * lat.omega1)) * eisenstein_E(2, tau)
    eta2 = (cmath.pi**2 / (3.0 * lat.omega2)) * eisenstein_E(2, -1.0 / tau)
    return abs(eta1 * lat.omega2 - eta2 * lat.omega1 - 2j * cmath.pi)


def short_model(curve, p: int) -> tuple[int, int]:
    """y^2 = x^3 + A x + B over F_p (p > 3), isomorphic to the curve."""
    c4, c6 = curve.c_invariants
    return (-27 * c4) % p, (-54 * c6) % p


def ec_add(P, Q, A, p):
    """P + Q on y^2 = x^3 + A x + B over F_p, affine (None is O)."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def ec_mul(k, P, A, p):
    """k P by right-to-left double-and-add with ec_add (k >= 0)."""
    acc = None
    add = P
    while k:
        if k & 1:
            acc = ec_add(acc, add, A, p)
        add = ec_add(add, add, A, p)
        k >>= 1
    return acc


def ladder_voids(k: int, order: int) -> bool:
    """Whether a left-to-right double-and-add for k P, P of the given
    order, meets O before its last step or adds P to itself: the partial
    multiples are read as residues mod the order."""
    acc = 1
    for bit in bin(k)[3:]:
        if acc % order == 0:
            return True
        acc = 2 * acc % order
        if bit == "1":
            if acc in (0, 1 % order):
                return True
            acc += 1
    return False
