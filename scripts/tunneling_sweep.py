"""Tunneling curves below a 1 eV barrier, 10 nm wide.

The closed form takes 1 / S = (kappa L / sinh kappa L)^2 through
exp(-kappa L), so nothing overflows; this drives it down to T1 ~ 1e-170
and checks the numeric solver tracks it point by point.
"""

import numpy as np

from etawave import cli
from etawave import scattering as sc
from etawave.waveop import PhysicalConstants

V0 = 1.0
L = 10.0
M = 0.5e6

cli.main(
    ["barrier", "--v0", repr(V0), "--length", repr(L), "--mass", repr(M),
     "--emin", "0.02", "--emax", "0.98", "--steps", "300", "--method", "both",
     "--output", "tunneling_sweep.csv"]
)
table = np.genfromtxt("tunneling_sweep.csv", delimiter=",", names=True)
print(f"rows: {len(table)}  max|numeric-closed|: {np.nanmax(table['delta_numeric_closed']):.3e}")
print(f"T1 range: {np.nanmin(table['T1']):.3e} .. {np.nanmax(table['T1']):.3e}")

# the deep end: kappa L = 200 on purpose
kappa = np.sqrt(2.0 * M * (V0 - 0.5 * V0)) / PhysicalConstants().hbar_c
deep = sc.BarrierProblem(e_energy=0.5 * V0, v0=V0, length=200.0 / kappa, m=M)
_, numeric = sc.solve_barrier(deep)
closed = sc.closed_form(deep)
print(
    f"kappa L = 200: closed T1 = {closed.t1:.6e}, "
    f"rel delta = {abs(numeric.t1 - closed.t1) / closed.t1:.2e}"
)
