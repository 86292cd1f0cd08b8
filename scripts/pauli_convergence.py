"""Convergence study for the grid Pauli identity and gauge invariance.

Everything here is second order in h, and all three residuals should
drop ~4x per refinement.  The table of N = 32, 64 and 128 (16, 32 and 64
with --fast) is written by `etawave pauli` to pauli_convergence.csv and
printed; the empirical orders are then read from that CSV.
"""

import sys
import time

import numpy as np

from etawave import cli
from etawave import pauligauge as pg

base_size = "16" if "--fast" in sys.argv else "32"

start = time.perf_counter()
cli.main(
    ["pauli", "--base-size", base_size, "--levels", "3", "--precision", "7",
     "--output", "pauli_convergence.csv"]
)
elapsed = time.perf_counter() - start

with open("pauli_convergence.csv", encoding="utf-8") as fh:
    print(fh.read(), end="")
table = np.genfromtxt("pauli_convergence.csv", delimiter=",", names=True)
for name in ("identity", "gauge", "commutator"):
    orders = pg.convergence_orders(table[f"{name}_residual"])
    print(f"{name} orders: " + ", ".join(f"{o:.3f}" for o in orders))
print(f"({elapsed:.1f} s)")
