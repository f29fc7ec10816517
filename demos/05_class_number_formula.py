"""The elliptic class-number formula, three ways (the headline check).

For the non-isogenous pair (11a, 14a) with N = lcm = 154:

  (a) Phi(0) = L'_{f,g}(0) from the approximate functional equation,
  (b) -(pi/3) Int_{X_0(154)} log|Delta_N| f conj(g) y^2 dmu, the
      regulator integral through eta products at reduced points,
  (c) the cyclotomic q-logarithm sum, the same integral but with the
      summed q-logarithm evaluated through cyclotomic polynomials.

(a) and (b) agree to ~2e-6; (c)/(a) comes out exactly 1/2, pinning the
prefactor of the q-logarithm sum form.

Runs a 288-coset sweep at depth 1 (about 5 s on a 2-core Xeon).
"""

import math

from ellrank import RankinSeries, curve_by_label, index_psi
from ellrank.arith import best_rational
from ellrank.domain import _grid_pair, sweep_pair_family
from ellrank.lseries import afe_eval
from ellrank.modular import CuspFormEval

f11 = CuspFormEval.from_curve(curve_by_label("11a"), n_max=4200)
f14 = CuspFormEval.from_curve(curve_by_label("14a"), n_max=4200)
rs = RankinSeries.build(f11, f14)
N = 154

phi0 = afe_eval(rs, 0.0)
print(f"(a) Phi(0) via AFE          = {phi0.value:.10f}")

grid = _grid_pair(N, 1, 12.0)
fam = sweep_pair_family(f11, f14, N, grid, want_regulator=True, want_cnf=True,
                        want_norms=True)
reg = -(math.pi / 3.0) * fam["regulator"].real
cnf = -4.0 * math.pi * fam["cnf"].real
print(f"(b) regulator integral      = {reg:.10f}   rel diff {abs(reg/phi0.value-1):.2e}")
print(f"(c) cyclotomic q-log sum    = {cnf:.10f}")
ratio = cnf / phi0.value
br = best_rational(ratio, 48)
print(f"    (c)/(a) = {ratio:.10f}  ~  {br.numerator}/{br.denominator} "
      f"(residual {br.residual:.1e})")

psi = index_psi(N)
print(f"\northogonality on the same sweep: (f,g) = {abs(fam['pet_fg'])/psi:.2e} "
      f"while (f,f) = {fam['pet_ff'].real/psi:.8f}")
# (c) runs at U w for each coset's cusp matrix U, at height >= sqrt(3)/(2N),
# so for N <= 346 no node falls back to the eta route (below height 0.0025)
print(f"eta-route fallback measure in (c): "
      f"{fam['cnf_deep_measure'].real/(psi*(math.pi/3-1/12)):.1%} of the domain")
