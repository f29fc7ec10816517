"""Independent oracles for the records that state their values.

The battery states the pole orders and the Moebius-combination exponent
that the paper gives and measures only leading coefficients and one
combination.  These make the estimates it does not: the order of a
function at a point as a finite-difference slope, and the distance of
the series side to each printed exponent convention.
"""

import math

from ellrank.arith import divisors, moebius


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
