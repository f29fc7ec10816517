"""Rankin-Selberg convolution: unfolding, the L-function and its poles.

The strip-unfolding identity is a pure series identity; the full
Rankin-Selberg identity compares the Dirichlet series side against
hyperbolic quadrature of f conj(g) y^2 against Epstein series over
X_0(N), combined as N^-s sum_{d|N} mu(d) d^-s J_d.  The analytic
continuation (approximate functional equation) gives values inside the
critical strip and residues.  The pole orders of L(H^2) at s = 2 are
stated by its factorisation zeta(s-1)^2 H(s-1) L_{f,g}(s-1); what is
measured is the leading coefficient that makes them exact.
"""

from ellrank import (RankinSeries, build_grid, curve_by_label, residue_at_1,
                     rs_identity_check, sweep_pair_family, unfolding_check)
from ellrank.lseries import L_direct, afe_eval
from ellrank.modular import CuspFormEval

f11 = CuspFormEval.from_curve(curve_by_label("11a"), n_max=4200)
f14 = CuspFormEval.from_curve(curve_by_label("14a"), n_max=4200)
rs = RankinSeries.build(f11, f14)
rs_iso = RankinSeries.build(f11, f11)

u = unfolding_check(f11, f11, 2.0)
print(f"strip unfolding at s=2: rel diff {u['rel_diff']:.2e}")

print("\nRankin-Selberg identity at s=2, N=11 (series vs quadrature):")
# one sweep of X_0(11) at depth 2 gives the Eisenstein integrals J_d at s = 2
fam = sweep_pair_family(f11, f11, 11, build_grid(11, depth=2), s_values=(2.0,))
chk = rs_identity_check(f11, f11, 11, 2.0, rs_iso, fam)
# each side carries its error bar: the direct series' tail bound, and the
# sweep's depth-doubling error carried through the Moebius sum
lhs, rhs = chk["lhs"], chk["rhs"]
print(f"  series side     {lhs.value:.10e} +- {lhs.abs_error_bound:.1e}")
print(f"  quadrature side {rhs.value:.10e} +- {rhs.abs_error_bound:.1e}")
print(f"  rel diff {chk['diff']:.2e}  (N^-s sum mu(d) d^-s J_d)")

print("\nL_{f,g} values (11a x 14a):")
print(f"  L(2)  direct  = {L_direct(rs, 2.0).value:.12f}")
print(f"  Phi(0) = L'(0) = {afe_eval(rs, 0.0).value:.12f}   (AFE)")

res = residue_at_1(rs_iso)
# its error bar is the spread of the residue over three split pairs
print(f"\nresidue of Phi at s=1 for 11a x 11a: {res['residue'].value:.10f} "
      f"+- {res['residue'].abs_error_bound:.1e}")

print("\npole orders of L(H^2(E x E'), s) at s = 2 (Tate), from zeta(s-1)^2")
print("and the leading coefficient of L_{f,g}(s-1) at s = 2:")
phi1 = afe_eval(rs, 1.0)
for name, order, what, v in (("11a x 11a", -3, "Res Phi", res["residue"]),
                             ("11a x 14a", -2, "Phi(1)", phi1)):
    print(f"  {name}: order {order}, {what} = {v.value:.10f} +- {v.abs_error_bound:.1e} "
          f"(nonzero: {abs(v.value) > 10 * v.abs_error_bound})")
