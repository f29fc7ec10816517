"""Traces of Frobenius, Hecke eigenvalues and periods for a few curves.

Counts points on y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over F_p
(exhaustively below 1e4; above, by baby-step/giant-step on points of the
curve and of its quadratic twist, over only the residue class of #E
modulo the rational torsion order, with every prime a lane of int64
numpy arrays that all take the same steps, 1024 primes to a block),
assembles the Hecke eigenvalue table, and computes the period lattice
and its area by complex AGM.
"""

from ellrank import (an_table, ap_table, check_ogg_pm1, curve_by_label, period_lattice,
                     reduce_mod_p)

for label in ("11a", "14a", "15a"):
    curve = curve_by_label(label)
    print(f"curve {label}: a-invariants {curve.ainvs}, conductor {curve.conductor}, "
          f"discriminant {curve.discriminant}")

print("\nRational torsion order T (Nagell-Lutz); T | #E(F_p) at every good p >= 3:")
for label in ("11a", "14a", "15a"):
    c = curve_by_label(label)
    counts = {p: p + 1 - reduce_mod_p(c, p).ap for p in (10007, 50021)}
    print(f"  {label}: T = {c.torsion_order}; "
          + ", ".join(f"#E(F_{p}) = {n} = {c.torsion_order} * {n // c.torsion_order}"
                      for p, n in counts.items()))

curve = curve_by_label("11a")
table = ap_table(curve, 60)
print("\na_p for 11a up to 60 (Hasse bound |a_p| <= 2 sqrt p):")
for p, info in table.items():
    print(f"  p={p:3d}  a_p={info.ap:4d}  {info.kind}")

print("\nOgg: at p | N (square-free N) the eigenvalue is +-1:")
for label in ("11a", "14a"):
    rep = check_ogg_pm1(curve_by_label(label))
    print(f"  {label}: {rep['primes']}  all +-1: {rep['all_pm1']}")

an = an_table(11, ap_table(curve, 2000), 2000)
print("\nHecke recursion (a_4 = a_2^2 - 2, a_6 = a_2 a_3, multiplicative):")
print("  a_1..a_10 =", [an.a(n) for n in range(1, 11)])

print("\nPeriod lattices by complex AGM (the roots ordered by the sign of disc):")
for label in ("11a", "14a", "15a"):
    lat = period_lattice(curve_by_label(label))
    print(f"  {label}: omega1 = {lat.omega1:.12f}, omega2 = {lat.omega2:.12f}, "
          f"area = {lat.area:.12f}")
