"""Potential step: coefficients vs energy and the size of the spin flip.

A single interface transmits a small spin-flipped component; the
amplitude ratio falls out of the interface matching as
(c1 - c2) / (d1 + d2) with c1 - c2 = 2 m V0 / ((E+m)(E-V0+m)), so
T2/T1 shrinks like (V0 / p)^2 toward the nonrelativistic limit.  The
two-interface barrier cancels this amplitude exactly; the step does not.
"""

import numpy as np

from etawave import scattering as sc

V0 = 1.0

print("e_over_v0,T1,T2,R1,R2  (m = 0.5 MeV)")
for ratio in (1.2, 1.5, 2.0, 3.0, 5.0):
    c = sc.solve_step(ratio * V0, V0, 0.5e6)
    print(f"{ratio:.1f},{c.t1:.8e},{c.t2:.8e},{c.r1:.8e},{c.r2:.8e}")

print()
print("spin-flip transmission vs mass at E = 2 V0:")
print(f"{'m (eV)':>10} {'T2':>12} {'T2 * m':>12}")
for m in (1e4, 1e5, 1e6, 1e7):
    c = sc.solve_step(2.0 * V0, V0, m)
    e_energy = 2.0 * V0
    p1 = np.sqrt(2.0 * m * e_energy)
    p2 = np.sqrt(2.0 * m * (e_energy - V0))
    flip = 2.0 * m * V0 / ((e_energy + m) * (e_energy - V0 + m))
    keep = np.sqrt(2.0) * (p1 / (e_energy + m) + p2 / (e_energy - V0 + m))
    predicted = c.t1 * (flip / keep) ** 2
    # T2 ~ V0^2/(2 m E) * 1/(1 + sqrt(1 - V0/E))^2: scales as 1/m
    print(f"{m:>10.1e} {c.t2:>12.4e} {c.t2 * m:>12.4e}  (matching: {predicted:.4e})")
