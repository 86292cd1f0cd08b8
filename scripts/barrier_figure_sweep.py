"""Above-barrier coefficient curves for the 10 eV / 10 nm configuration.

Writes the sweep table as CSV and prints where the spin-flip reflection
sits relative to its phase-free envelope.  The point values of R1/R2 ride
on sin^2 of a phase of order 1e2 here (1e4 for a keV-scale barrier), so
the companion width scan shows how far picometer-scale changes of L move
them.
"""

import argparse

import numpy as np

from etawave import cli
from etawave import scattering as sc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--v0", type=float, default=10.0)
    ap.add_argument("--length", type=float, default=10.0)
    ap.add_argument("--mass", type=float, default=0.5e6)
    ap.add_argument("--steps", type=int, default=400)
    ap.add_argument("--out", default="barrier_sweep.csv")
    args = ap.parse_args()

    code = cli.main(
        ["barrier", "--v0", repr(args.v0), "--length", repr(args.length),
         "--mass", repr(args.mass), "--emin", "1.01", "--emax", "3.0",
         "--steps", str(args.steps), "--method", "both", "--output", args.out]
    )
    print(f"wrote {args.out}: {args.steps} rows, exit code {code}")

    at = 1.5 * args.v0
    point = sc.closed_form(
        sc.BarrierProblem(e_energy=at, v0=args.v0, length=args.length, m=args.mass)
    )
    env = sc.r2_envelope(at, args.v0, args.mass)
    print(f"E/V0=1.5: R2={point.r2:.6e}  envelope={env:.6e}  fill={point.r2 / env:.3f}")

    widths = args.length + np.linspace(-5e-2, 5e-2, 21)
    scan = sc.l_sensitivity_scan(at, args.v0, args.mass, widths)
    r2 = np.array([c.r2 for _, c in scan])
    print(f"width scan +-50 pm: R2 spans {r2.min():.3e} .. {r2.max():.3e}")


if __name__ == "__main__":
    main()
