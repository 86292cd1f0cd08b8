"""Rewrite the golden CLI outputs that tests/test_golden.py compares against.

Each command runs in process through `cli.main`, as the test runs it; its
standard output goes to `<name>.txt` beside this script and its exit code
to `manifest.json`, with the command itself.  Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

A change that moves a golden value says in CHANGES.md which values moved
and by how much; the diff of the rewritten files shows where.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from etawave import cli

HERE = Path(__file__).resolve().parent

# every table at --precision 17; at --v0 10 and the default mass, kappa L is
# 219 at --length 14 and E/V0 = 0.05
COMMANDS = {
    "barrier_deep_tunnelling": ["barrier", "--v0", "10", "--length", "14", "--emin", "0.05",
                                "--emax", "0.95", "--steps", "25", "--method", "both"],
    "barrier_near_top": ["barrier", "--v0", "10", "--length", "1", "--emin", "0.999",
                         "--emax", "1.001", "--steps", "21", "--method", "both"],
    "barrier_above_top": ["barrier", "--v0", "10", "--length", "1", "--emin", "1.01",
                          "--emax", "3", "--steps", "25", "--method", "both"],
    "barrier_json_spin_down": ["barrier", "--v0", "10", "--length", "1", "--emin", "0.5",
                               "--emax", "2", "--steps", "11", "--method", "both",
                               "--spin", "down", "--format", "json"],
    # E/V0 = 1 is the 11th of the 21 points
    "step_up": ["step", "--v0", "10", "--emin", "0.5", "--emax", "1.5", "--steps", "21"],
    "step_down": ["step", "--v0", "10", "--emin", "0.5", "--emax", "1.5", "--steps", "21",
                  "--spin", "down"],
    "well_numeric": ["well", "--length", "10", "--nmax", "50", "--numeric"],
    "point": ["point", "--v0", "10", "--length", "1", "--e-over-v0", "1.5"],
}


def run(argv):
    """(exit code, standard output) of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main():
    manifest = {}
    for name, argv in COMMANDS.items():
        argv = argv + ["--precision", "17"]
        code, text = run(argv)
        (HERE / f"{name}.txt").write_text(text, encoding="utf-8", newline="\n")
        manifest[name] = {"argv": argv, "exit": code}
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
