"""Quantized levels of the symmetric well with periodic boundary conditions.

The table of analytic and root-found levels is written by `etawave well
--numeric` to well_levels.csv and printed.
"""

import argparse

from etawave import boundstates as bs
from etawave import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--length", type=float, default=10.0, help="half-width, nm")
    ap.add_argument("--mass", type=float, default=0.5e6, help="rest energy, eV")
    ap.add_argument("--nmax", type=int, default=12)
    args = ap.parse_args()

    code = cli.main(
        ["well", "--length", repr(args.length), "--mass", repr(args.mass),
         "--nmax", str(args.nmax), "--numeric", "--output", "well_levels.csv"]
    )
    print(f"L = {args.length} nm, m = {args.mass:.3e} eV, "
          f"{bs.DEGENERACY}-fold degenerate levels, exit code {code}")
    with open("well_levels.csv", encoding="utf-8") as fh:
        print(fh.read(), end="")


if __name__ == "__main__":
    main()
