"""Numerical verification of Rankin-Selberg, Eisenstein-series and
regulator identities for pairs of elliptic curves over Q.

Everything is double precision numpy; exact integer arithmetic is used
where exactness matters (Hecke eigenvalues, cyclotomic polynomials,
coset representatives).
"""

from .arith import moebius, totient, divisors, cyclotomic, index_psi
from .curves import (CurveModel, curve_by_label, reduce_mod_p, ap_table, an_table,
                     period_lattice, check_ogg_pm1)
from .specialfn import EvalResult, PoleError, zeta, zeta_depleted
from .halfplane import UHPoint
from .eisenstein import (
    epstein_lattice,
    epstein_completed,
    epstein_residue,
    kronecker_limit_check,
)
from .modular import CuspFormEval
from .domain import (CosetRep, QuadratureGrid, coset_reps, build_grid,
                     integrate_invariant, petersson, sweep_pair_family,
                     rs_identity_check, unfolding_check)
from .lseries import RankinSeries, L_direct, afe_eval, bad_factor_H, residue_at_1, sym2_report

__all__ = [
    "moebius", "totient", "divisors", "cyclotomic", "index_psi",
    "CurveModel", "curve_by_label", "reduce_mod_p", "ap_table", "an_table",
    "period_lattice", "check_ogg_pm1",
    "EvalResult", "PoleError", "zeta", "zeta_depleted",
    "UHPoint",
    "epstein_lattice", "epstein_completed", "epstein_residue",
    "kronecker_limit_check",
    "CuspFormEval",
    "CosetRep", "QuadratureGrid", "coset_reps", "build_grid",
    "integrate_invariant", "petersson", "sweep_pair_family", "rs_identity_check",
    "unfolding_check",
    "RankinSeries", "L_direct", "afe_eval", "bad_factor_H", "residue_at_1", "sym2_report",
]
