"""The CLI's committed outputs: each command of tests/golden/manifest.json
runs in process and must give its exit code and, line by line, its text.

Non-float text (headers, comment lines, method names, flags, JSON keys) must
match exactly; floats match per column to 1e-14 relative, so that a numpy
whose sin or exp differs in the last bit still passes.  A column that holds
rounding noise has an absolute floor instead.  tests/golden/regenerate.py
rewrites the files.
"""

import json
import math
from pathlib import Path

import pytest

from etawave import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))

REL = 1e-14
# (relative, absolute) where a column's last digits are noise
TOLERANCE = {
    # the difference of two solvers' rounding, about 1e-16
    "delta_numeric_closed": (REL, 1e-14),
    # |exp(2i p L) - 1| at an analytic level: the rounding of its phase
    "residual": (REL, 1e-12),
    # the bisection stops at 1e-12 relative, so a last-bit change of the
    # residual's sign can move the level by up to that
    "E_n_numeric": (2e-12, 0.0),
    "rel_deviation": (REL, 2e-12),
}
# the barrier's spin-flip transmission vanishes (criterion 05): what it
# prints, up to about 1e-31, is the square of a rounding error
SPIN_FLIP_FLOOR = 1e-30


def tolerance(argv, column):
    if argv[0] in ("barrier", "point") and column == ("T1" if "down" in argv else "T2"):
        return REL, SPIN_FLIP_FLOOR
    return TOLERANCE.get(column, (REL, 0.0))


def same_value(got, want, tol, where):
    if isinstance(want, float) and isinstance(got, float):
        rel, floor = tol
        if math.isnan(want):
            assert math.isnan(got), where
        else:
            assert abs(got - want) <= rel * abs(want) + floor, (where, got, want)
    else:
        assert got == want and type(got) is type(want), (where, got, want)


def csv_cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def compare_csv(argv, got, want):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    while want_lines[0].startswith("#"):
        assert got_lines.pop(0) == want_lines.pop(0)
    header = want_lines[0].split(",")
    assert got_lines[0] == want_lines[0]
    for row, (g, w) in enumerate(zip(got_lines[1:], want_lines[1:]), 1):
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells) == len(header), row
        for column, gc, wc in zip(header, g_cells, w_cells):
            same_value(csv_cell(gc), csv_cell(wc), tolerance(argv, column), (row, column))


def compare_json(argv, got, want):
    got_records, want_records = json.loads(got), json.loads(want)
    assert len(got_records) == len(want_records)
    for row, (g, w) in enumerate(zip(got_records, want_records)):
        assert list(g) == list(w), row
        for column in w:
            same_value(g[column], w[column], tolerance(argv, column), (row, column))


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_cli_output_matches_the_golden_file(name, capsys):
    entry = MANIFEST[name]
    argv = entry["argv"]
    code = cli.main(list(argv))
    got = capsys.readouterr().out
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert code == entry["exit"]
    if "json" in argv:
        compare_json(argv, got, want)
    else:
        compare_csv(argv, got, want)
