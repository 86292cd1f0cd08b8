import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etawave import boundstates as bs
from etawave import cli
from etawave import pauligauge
from etawave.waveop import PhysicalConstants

SWEEP_HEADER = "e_over_v0,T1,T2,R1,R2,T_qm,R_qm,sum"


def run(argv):
    return cli.main(argv)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def loads(text):
    """json.loads that refuses NaN and Infinity, as strict parsers do."""
    return json.loads(text, parse_constant=_reject_constant)


def test_missing_required_flag_exits_64():
    # a non-finite value is a usage error like a missing flag, not a
    # property failure (exit 1) and not a table of nan rows
    for argv in (
        ["barrier", "--length", "1.0"],
        ["barrier", "--v0", "10", "--length", "inf"],
        ["barrier", "--v0", "nan", "--length", "10"],
        ["point", "--v0", "10", "--length", "inf", "--e-over-v0", "1.5"],
        ["point", "--v0", "1e308", "--length", "1", "--e-over-v0", "10"],
        ["well", "--length", "inf"],
        ["step", "--v0", "10", "--emax", "inf"],
        ["pauli", "--bz", "nan"],
        ["well", "--length", "10", "--mass", "inf"],
        ["check", "--seed", "-1"],
        # 4h^2 below the normal range: the lattice residuals would lose their digits
        ["pauli", "--base-size", "8", "--levels", "1", "--extent", "1e-160"],
    ):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 64, argv


def test_command_error_prints_command_usage(tmp_path, capsys):
    # errors raised while a command runs name that command, like parse errors
    bad = tmp_path / "bad.cfg"
    bad.write_text("hbar_c = inf\n")
    for argv in (
        ["point", "--v0", "1e308", "--length", "1", "--e-over-v0", "10"],
        ["well", "--length", "10", "--config", str(bad)],
        ["check", "--fault", "eta-sign"],
    ):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 64, argv
        assert capsys.readouterr().err.startswith(f"usage: etawave {argv[0]} "), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["barrier", "--v0", "0", "--length", "1"],
        ["barrier", "--v0", "10", "--length", "-1"],
        ["barrier", "--v0", "10", "--length", "1", "--steps", "0"],
        ["barrier", "--v0", "10", "--length", "1", "--mass", "0"],
        ["barrier", "--v0", "10", "--length", "1", "--hbar-c", "-1"],
        ["step", "--v0", "-10"],
        ["step", "--v0", "10", "--steps", "0"],
        ["step", "--v0", "10", "--mass", "-1"],
        ["well", "--length", "0"],
        ["well", "--length", "10", "--nmax", "0"],
        ["well", "--length", "10", "--hbar-c", "0"],
        ["point", "--v0", "0", "--length", "1", "--e-over-v0", "1.5"],
        ["point", "--v0", "10", "--length", "0", "--e-over-v0", "1.5"],
        ["point", "--v0", "10", "--length", "1", "--e-over-v0", "-1.5"],
        ["point", "--v0", "10", "--length", "1", "--e-over-v0", "1.5", "--mass", "0"],
        ["point", "--v0", "10", "--length", "1", "--e-over-v0", "1.5", "--hbar-c", "0"],
        ["pauli", "--levels", "0"],
        ["pauli", "--base-size", "7"],
    ],
    ids="_".join,
)
def test_a_value_out_of_range_is_a_usage_error(argv, capsys):
    # non-positive physical values, and fewer than one step or level
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 64
    assert capsys.readouterr().err.startswith(f"usage: etawave {argv[0]} ")


def test_barrier_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        ["barrier", "--v0", "10", "--length", "10", "--emin", "1.2", "--emax", "1.8",
         "--steps", "4", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 5
    for line in lines[1:]:
        fields = [float(v) for v in line.split(",")]
        assert len(fields) == 8
        assert abs(fields[-1] - 1.0) <= 1e-10


def test_barrier_sweep_deterministic(tmp_path):
    argv = ["barrier", "--v0", "10", "--length", "10", "--steps", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(argv + ["--output", str(a)])
    run(argv + ["--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_barrier_bridges_critical_point(tmp_path):
    out = tmp_path / "crossing.csv"
    code = run(
        ["barrier", "--v0", "10", "--length", "0.5", "--emin", "0.5", "--emax", "1.5",
         "--steps", "3", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert "nan" not in out.read_text()


def test_barrier_closed_form_beyond_the_float_range(capsys):
    # V0^2 = 1e400 overflows a float; the closed form's q does not
    argv = ["barrier", "--v0", "1e200", "--length", "1", "--steps", "3", "--method", "closed"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SWEEP_HEADER and len(lines) == 4
    for line in lines[1:]:
        fields = [float(v) for v in line.split(",")]
        assert all(np.isfinite(fields)) and abs(fields[-1] - 1.0) <= 1e-10


def test_barrier_flags_energies_beyond_the_float_range_quietly(capsys):
    # E = 2 V0 and 3 V0 overflow: their rows are flagged and labelled with the
    # requested ratios, and numpy prints no overflow warning to stderr
    argv = ["barrier", "--v0", "1e308", "--length", "1", "--emin", "1", "--emax", "3",
            "--steps", "3", "--format", "json"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = loads(captured.out)
    assert [rec["e_over_v0"] for rec in rows] == [1.0, 2.0, 3.0]
    assert "flag" not in rows[0] and abs(rows[0]["sum"] - 1.0) <= 1e-10
    assert all(rec["flag"].startswith("ValueError") for rec in rows[1:])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_json_keeps_a_value_whose_text_rounds_past_the_float_range(fmt, capsys):
    # the largest float to 10 digits reads as inf: both formats write the
    # value unrounded, and the flagged row's values are nan in CSV, null in
    # JSON (which has no Infinity either)
    def table(ratio):
        code = run(["barrier", "--v0", "1", "--length", "1", "--emin", ratio, "--emax", ratio,
                    "--steps", "1", "--precision", "10", "--format", fmt])
        text = capsys.readouterr().out
        if fmt == "json":
            (rec,) = loads(text)
        else:
            header, row = (line.split(",") for line in text.splitlines())
            rec = {k: None if v == "nan" else float(v) for k, v in zip(header, row)}
        return code, rec

    big = "1.7976931348623157e308"
    code, rec = table(big)
    assert code == 2 and rec["e_over_v0"] == float(big) and rec["T1"] is None
    assert fmt == "csv" or "flag" in rec
    # a value whose text stays in range keeps its rounding to 10 digits
    code, rec = table("1.5")
    assert code == 0 and 0.0 < rec["T1"] < 1.0 and float(f"{rec['T1']:.9e}") == rec["T1"]


@pytest.mark.parametrize(
    "argv",
    [[command, "--seed", "1"] for command in ("barrier", "step", "well", "pauli", "point")]
    + [["pauli", flag, "1"] for flag in ("--hbar-c", "--mass")]
    + [["step", "--hbar-c", "1"]]
    + [["check", flag, value] for flag, value in
       (("--hbar-c", "1"), ("--mass", "1"), ("--format", "json"), ("--precision", "6"))],
    ids=lambda argv: f"{argv[0]}{argv[1]}",
)
def test_a_command_refuses_a_common_flag_it_does_not_read(argv, capsys):
    # the seed is read only by check; pauli has no constants, the step no
    # length to scale by hbar_c, and check writes a report, not a table
    required = {"barrier": ["--v0", "1", "--length", "1"], "step": ["--v0", "1"],
                "well": ["--length", "1"], "point": ["--v0", "1", "--length", "1",
                                                     "--e-over-v0", "1.5"]}
    with pytest.raises(SystemExit) as err:
        run(argv[:1] + required.get(argv[0], []) + argv[1:])
    assert err.value.code == 64
    # the usage line is the command's own, with the flags it does read
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"usage: etawave {argv[0]} [-h]")
    assert f"etawave {argv[0]}: error: unrecognized arguments: {argv[1]}" in stderr


def test_point_flags_the_solver_that_fails(capsys):
    # the matching system is singular at this scale: its row is flagged and
    # the closed row kept, with exit 2 as a sweep with flagged rows
    argv = ["point", "--v0", "1e200", "--length", "1", "--e-over-v0", "1.5", "--format", "json"]
    assert run(argv) == 2
    numeric, closed = loads(capsys.readouterr().out)
    assert numeric["method"] == "numeric" and numeric["T1"] is None
    assert numeric["flag"].startswith("DegenerateConfigurationError")
    assert closed["method"] == "closed" and "flag" not in closed
    assert abs(closed["sum"] - 1.0) <= 1e-10


def test_well_rejects_levels_beyond_the_float_range(capsys):
    # 2m overflows and L^2 underflows: every level was nan, with exit 0
    with pytest.raises(SystemExit) as err:
        run(["well", "--length", "1e-300", "--nmax", "3", "--mass", "1.7e308", "--numeric"])
    assert err.value.code == 64
    assert "not finite and positive" in capsys.readouterr().err


def test_barrier_sweep_through_the_top_has_no_flagged_row(tmp_path):
    # 2001 points within 1e-5 of the top: the closed form neither raises just
    # outside the critical band nor disagrees with the matching solve there
    out = tmp_path / "top.csv"
    code = run(
        ["barrier", "--v0", "10", "--length", "0.05", "--mass", "1e4", "--emin", "0.99999",
         "--emax", "1.00001", "--steps", "2001", "--method", "both", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER + ",delta_numeric_closed"
    assert len(lines) == 2002
    for line in lines[1:]:
        fields = [float(v) for v in line.split(",")]
        assert all(np.isfinite(fields))
        coeffs, delta = fields[1:5], fields[-1]
        assert delta <= 1e-10 * max(map(abs, coeffs)) + 1e-11


def test_step_through_the_top_exits_0(tmp_path):
    # E = V0 is the middle row: total reflection, no flagged row
    out = tmp_path / "step.csv"
    code = run(
        ["step", "--v0", "10", "--emin", "0.5", "--emax", "1.5", "--steps", "3",
         "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4 and "nan" not in out.read_text()
    ratio, t1, t2, r1, r2, *_ = map(float, lines[2].split(","))
    assert ratio == 1.0 and t1 == t2 == 0.0
    assert abs(r1 + r2 - 1.0) <= 1e-10
    for spin in ("up", "down"):
        argv = ["step", "--v0", "10", "--emin", "1", "--emax", "1", "--steps", "1",
                "--spin", spin, "--format", "json", "--output", str(out)]
        assert run(argv) == 0
        (rec,) = loads(out.read_text())
        assert rec["T1"] == rec["T2"] == 0.0 and abs(rec["R1"] + rec["R2"] - 1.0) <= 1e-10


def test_step_transparent_where_its_flux_products_overflow(capsys):
    # p2 (E + m) and p1 (E - V0 + m) both overflow here, and their quotient
    # was inf / inf = nan; Re d2 / Re d1 is the same ratio with nothing
    # formed beyond the float range, and the step is transparent to rounding
    argv = ["step", "--v0", "7.844899614393561e+133", "--mass", "3.038941010877242e+161",
            "--emin", "9.6e6", "--emax", "9.6e6", "--steps", "1", "--format", "json",
            "--precision", "17"]
    assert run(argv) == 0
    (rec,) = loads(capsys.readouterr().out)
    assert "flag" not in rec and abs(rec["T1"] - 1.0) <= 1e-14


def test_step_reflects_totally_at_a_subnormal_mass(capsys):
    # E - V0 + m = m = 1e-320 at E = V0: its reciprocal overflowed and the
    # mode columns read inf * 0 = nan; c and d now divide by it directly
    argv = ["step", "--v0", "1e10", "--mass", "1e-320", "--emin", "1", "--emax", "1",
            "--steps", "1", "--format", "json", "--precision", "17"]
    assert run(argv) == 0
    (rec,) = loads(capsys.readouterr().out)
    assert rec["R1"] == 1.0 and rec["T1"] == rec["T2"] == 0.0


def test_step_at_a_mass_whose_double_overflows(capsys):
    # 2m is inf for m > 8.99e307, but p = sqrt2 sqrt(m) sqrt(E - V) is
    # finite; with E, V0 << m the step is the nonrelativistic one
    argv = ["step", "--v0", "1", "--mass", "1.7e308", "--emin", "0.5", "--emax", "2",
            "--steps", "2", "--format", "json", "--precision", "17"]
    assert run(argv) == 0
    below, above = loads(capsys.readouterr().out)
    assert below["R1"] == 1.0 and below["T1"] == below["T2"] == 0.0
    k1, k2 = math.sqrt(2.0), 1.0
    assert abs(above["T1"] - 4.0 * k1 * k2 / (k1 + k2) ** 2) <= 1e-14
    assert abs(above["T1"] + above["R1"] - 1.0) <= 1e-14


def test_closed_form_where_the_phase_underflows(capsys):
    # g (E - V0) underflows to 0: S(0) = 1, not a ZeroDivisionError
    flags = ["--v0", "1", "--length", "6.5e-139", "--mass", "6.5e-139", "--hbar-c", "1"]
    assert run(["point", "--e-over-v0", "0.5"] + flags + ["--format", "json"]) in (0, 2)
    closed = loads(capsys.readouterr().out)[1]
    assert closed["method"] == "closed" and "flag" not in closed
    assert closed["T1"] == 1.0 and closed["sum"] == 1.0
    argv = ["barrier", "--emin", "0.5", "--emax", "0.5", "--steps", "1", "--method", "closed"]
    assert run(argv + flags) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[1] == "1.00000000000e+00"


def test_well_numeric_where_sqrt_2mE_overflows(capsys):
    # E_n is finite, sqrt(2 m E) is not: the phase is sqrt(2 m) sqrt(E) L / hbar_c
    argv = ["well", "--length", "1e-153", "--nmax", "2", "--mass", "1e10", "--numeric"]
    assert run(argv + ["--format", "json"]) == 0
    for rec in loads(capsys.readouterr().out):
        assert rec["residual"] <= 1e-10 and rec["rel_deviation"] <= 1e-10


def test_well_numeric_near_the_top_of_the_float_range(capsys):
    # E_3 = 1.04e308: a bisection midpoint 0.5 (a + b) overflowed to inf
    argv = ["well", "--length", "4.488745761261332e-117", "--nmax", "3",
            "--mass", "8.256992235064374e-70", "--numeric", "--format", "json"]
    assert run(argv) == 0
    for rec in loads(capsys.readouterr().out):
        assert rec["rel_deviation"] <= 1e-10
    # E_3 = 1.6e308: the bracket E_3 (1 + 1/6) above it is beyond the float range
    with pytest.raises(SystemExit) as err:
        run(["well", "--length", "3.6e-117", "--nmax", "3", "--mass", "8.256992235064374e-70",
             "--numeric"])
    assert err.value.code == 64
    assert "not finite" in capsys.readouterr().err


def test_well_levels_below_the_normal_range(capsys):
    # E_1 = 4.9e-314: the bisection of subnormal levels ends where no float
    # lies between its ends (it looped forever)
    flags = ["--hbar-c", "1e-150", "--length", "1", "--nmax", "3", "--numeric"]
    assert run(["well", "--mass", "1e14", "--format", "json"] + flags) == 0
    assert all(rec["rel_deviation"] <= 1e-9 for rec in loads(capsys.readouterr().out))
    # E_1 = 4.9e-318 leaves no grid to search; 2 m L^2 = 4.9e-324 has lost
    # its precision, and with it every level: usage errors, not wrong tables
    for argv in (["well", "--mass", "1e18"] + flags,
                 ["well", "--length", "0.625", "--mass", "5e-324", "--hbar-c", "1.175494351e-38",
                  "--nmax", "3"]):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 64, argv


def test_well_reference_level(tmp_path):
    out = tmp_path / "well.csv"
    assert run(["well", "--length", "10", "--nmax", "3", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,E_n_eV,residual"
    assert len(lines) == 4
    n, e1, residual = lines[1].split(",")
    assert n == "1"
    assert float(e1) == pytest.approx(3.8302947720187685e-3, rel=1e-10)
    assert float(residual) <= 1e-10


def test_well_numeric_deviation_column(tmp_path):
    out = tmp_path / "well.csv"
    assert run(
        ["well", "--length", "10", "--nmax", "5", "--numeric", "--output", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,E_n_eV,residual,E_n_numeric,rel_deviation"
    for line in lines[1:]:
        assert float(line.split(",")[4]) <= 1e-10


def test_well_rejects_nmax_zero():
    with pytest.raises(SystemExit) as err:
        run(["well", "--length", "10", "--nmax", "0"])
    assert err.value.code == 64


def test_point_inside_band_falls_back_to_closed_form(capsys):
    code = run(
        ["point", "--v0", "10", "--length", "10", "--e-over-v0", "1.000000000001"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("method,")
    numeric = lines[1].split(",", 1)
    closed = lines[2].split(",", 1)
    assert numeric[0] == "numeric" and closed[0] == "closed"
    assert numeric[1] == closed[1]


def test_check_reports_ok(capsys):
    assert run(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "OK all identities and properties hold"
    assert all(line.startswith("PASS") for line in lines[:-1])


# every row `etawave check` reports, in order, with its tolerance
CHECK_ROWS = """\
clifford.anticommutator_g0_g0 tol=1.0e-14
clifford.anticommutator_g0_g1 tol=1.0e-14
clifford.anticommutator_g0_g2 tol=1.0e-14
clifford.anticommutator_g0_g3 tol=1.0e-14
clifford.anticommutator_g1_g1 tol=1.0e-14
clifford.anticommutator_g1_g2 tol=1.0e-14
clifford.anticommutator_g1_g3 tol=1.0e-14
clifford.anticommutator_g2_g2 tol=1.0e-14
clifford.anticommutator_g2_g3 tol=1.0e-14
clifford.anticommutator_g3_g3 tol=1.0e-14
clifford.gamma5_product tol=1.0e-14
clifford.gamma0_hermitian tol=1.0e-14
clifford.gamma5_hermitian tol=1.0e-14
clifford.gamma5_anticommutes_g0 tol=1.0e-14
clifford.gamma5_anticommutes_g1 tol=1.0e-14
clifford.gamma5_anticommutes_g2 tol=1.0e-14
clifford.gamma5_anticommutes_g3 tol=1.0e-14
clifford.eta_nilpotent tol=1.0e-14
clifford.eta_dagger_nilpotent tol=1.0e-14
clifford.eta_completeness tol=1.0e-14
clifford.gamma0_recovery tol=1.0e-14
clifford.igamma5_recovery tol=1.0e-14
clifford.footnote_equivalence tol=1.0e-14
clifford.conjugated_representation tol=1.0e-13
waveop.squared_dispersion tol=1.0e-12
waveop.a_independence tol=1.0e-12
waveop.nonrel_envelope tol=0.0e+00
spinors.reconstruction_residual tol=1.0e-08
spinors.eigen_consistency tol=1.0e-10
scattering.conservation tol=1.0e-10
scattering.numeric_vs_closed tol=1.0e-10
scattering.spin_down_transmission tol=1.0e-10
scattering.step_conservation tol=1.0e-10
boundstates.levels tol=1.0e-10
pauligauge.identity_order tol=0.0e+00
pauligauge.gauge_order tol=0.0e+00
pauligauge.commutator_order tol=0.0e+00
"""


def test_check_reports_every_row_in_order(capsys):
    assert run(["check", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [f"{w[1]} {w[3]}" for w in map(str.split, lines[:-1])] == CHECK_ROWS.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "OK all identities and properties hold"


def test_check_fault_injection_fails(capsys, monkeypatch):
    build_eta = cli.clifford.build_eta

    def broken_eta(g):
        eta = build_eta(g)
        eta[0, 2] = -eta[0, 2]  # breaks nilpotency
        return eta

    monkeypatch.setattr(cli.clifford, "build_eta", broken_eta)
    assert run(["check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "FAILED first=clifford.eta_nilpotent" in out


def test_check_passes_where_rounding_of_mass_term_dominates(capsys):
    # this seed draws E close to V, where the squared-dispersion deviation is
    # rounding of the m^2 term and must be scaled by m^2, not by 2m|E-V|
    assert run(["check", "--seed", "124214871"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "OK all identities and properties hold"
    squared = [line for line in lines if "waveop.squared_dispersion" in line]
    assert len(squared) == 1 and squared[0].startswith("PASS")


def test_check_deterministic_per_seed(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(["check", "--seed", "3", "--output", str(a)])
    run(["check", "--seed", "3", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_config_file_sets_constants(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hbar_c = 200.0\nmass_c2 = 1.0e5\n")
    out = tmp_path / "well.csv"
    assert run(
        ["well", "--length", "10", "--nmax", "1", "--config", str(cfg), "--output", str(out)]
    ) == 0
    e1 = float(out.read_text().splitlines()[1].split(",")[1])
    expected = bs.level_energy(1, 10.0, 1.0e5, PhysicalConstants(hbar_c=200.0))
    assert e1 == pytest.approx(expected, rel=1e-10)


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mass_c2 = 1.0e5\n")
    out = tmp_path / "well.csv"
    assert run(
        ["well", "--length", "10", "--nmax", "1", "--config", str(cfg),
         "--mass", "5.0e5", "--output", str(out)]
    ) == 0
    e1 = float(out.read_text().splitlines()[1].split(",")[1])
    expected = bs.level_energy(1, 10.0, 5.0e5, PhysicalConstants())
    assert e1 == pytest.approx(expected, rel=1e-10)


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    for text in ("banana = 3\n", "hbar_c = inf\n", "mass_c2 = nan\n", "seed = -3\n"):
        cfg.write_text(text)
        for argv in (["well", "--length", "10"], ["check"]):
            with pytest.raises(SystemExit) as err:
                run(argv + ["--config", str(cfg)])
            assert err.value.code == 64, (text, argv)


def test_precision_out_of_range_rejected():
    with pytest.raises(SystemExit) as err:
        run(["well", "--length", "10", "--precision", "5"])
    assert err.value.code == 64


def test_barrier_json_records(capsys):
    code = run(
        ["barrier", "--v0", "10", "--length", "10", "--steps", "3", "--format", "json"]
    )
    assert code == 0
    records = loads(capsys.readouterr().out)
    assert isinstance(records, list) and len(records) == 3
    assert set(records[0]) == set(SWEEP_HEADER.split(","))
    assert records[0]["sum"] == pytest.approx(1.0, abs=1e-10)


def test_spin_down_marked_in_output(tmp_path, capsys):
    out = tmp_path / "down.csv"
    run(
        ["barrier", "--v0", "10", "--length", "10", "--steps", "3", "--spin", "down",
         "--output", str(out)]
    )
    assert out.read_text().splitlines()[0] == "# incident_spin=down"
    run(
        ["barrier", "--v0", "10", "--length", "10", "--steps", "3", "--spin", "down",
         "--format", "json"]
    )
    records = loads(capsys.readouterr().out)
    assert all(rec["incident_spin"] == "down" for rec in records)
    # closed form and matching agree for spin-down incidence, critical band included
    run(
        ["barrier", "--v0", "10", "--length", "10", "--emin", "0.5", "--emax", "1.5",
         "--steps", "5", "--spin", "down", "--method", "both", "--format", "json"]
    )
    records = loads(capsys.readouterr().out)
    assert len(records) == 5
    assert all(rec["delta_numeric_closed"] <= 1e-10 for rec in records)


def test_point_spin_down_marked_in_output(capsys):
    argv = ["point", "--v0", "10", "--length", "10", "--e-over-v0", "0.5"]
    assert run(argv + ["--spin", "down"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# incident_spin=down" and lines[1].startswith("method,")
    assert run(argv + ["--spin", "down", "--format", "json"]) == 0
    records = loads(capsys.readouterr().out)
    assert [rec["incident_spin"] for rec in records] == ["down", "down"]
    # spin-up output carries no marker
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("method,")
    assert run(argv + ["--format", "json"]) == 0
    assert all("incident_spin" not in rec for rec in loads(capsys.readouterr().out))


def test_pauli_table(tmp_path):
    out = tmp_path / "pauli.csv"
    assert run(
        ["pauli", "--base-size", "8", "--levels", "2", "--output", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h_nm,identity_residual,gauge_residual,commutator_residual"
    assert len(lines) == 3
    h0 = float(lines[1].split(",")[0])
    h1 = float(lines[2].split(",")[0])
    assert h1 == pytest.approx(h0 / 2.0, rel=1e-12)


def test_pauli_rejects_small_base():
    with pytest.raises(SystemExit) as err:
        run(["pauli", "--base-size", "4"])
    assert err.value.code == 64


@pytest.mark.parametrize("extent", ["0", "-8"])
def test_pauli_rejects_nonpositive_extent(extent, capsys):
    # a usage error like `well --length 0`, not a ValueError traceback
    with pytest.raises(SystemExit) as err:
        run(["pauli", "--extent", extent])
    assert err.value.code == 64
    assert capsys.readouterr().err.startswith("usage: etawave pauli ")


@pytest.mark.parametrize("bz", ["1e150", "1e300"])
def test_pauli_rejects_a_field_too_strong_to_square(bz, capsys, monkeypatch):
    # the residuals would be inf or nan rows; a usage error instead.  The
    # second run takes the path of N >= 128, whose worker thread squares
    # under the caller's numpy error state, so it neither warns nor raises
    # RuntimeWarning
    for threaded_n, threads in ((128, 1), (16, 2)):
        monkeypatch.setattr(pauligauge, "_THREADED_N", threaded_n)
        monkeypatch.setattr(pauligauge, "_THREADS", threads)
        with pytest.raises(SystemExit) as err:
            run(["pauli", "--bz", bz, "--base-size", "16", "--levels", "2"])
        assert err.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: etawave pauli ")
        assert "not finite" in captured.err


def test_precision_controls_mantissa(tmp_path):
    out = tmp_path / "coarse.csv"
    run(["well", "--length", "10", "--nmax", "1", "--precision", "6", "--output", str(out)])
    e_field = out.read_text().splitlines()[1].split(",")[1]
    mantissa = e_field.split("e")[0]
    assert len(mantissa.split(".")[1]) == 5


@pytest.mark.parametrize(
    "argv,flagged",
    [
        (["barrier", "--v0", "5", "--length", "1", "--mass", "1", "--emin", "0.7",
          "--emax", "0.9", "--steps", "3", "--method", "both", "--spin", "down"],
         {1: "ConventionSingularityError"}),
        (["step", "--v0", "5", "--mass", "1", "--emin", "0.7", "--emax", "0.9", "--steps", "3"],
         {1: "ConventionSingularityError"}),
        (["well", "--length", "10", "--nmax", "4", "--numeric"], {}),
        (["pauli", "--base-size", "8", "--levels", "1"], {}),
        (["point", "--v0", "10", "--length", "10", "--e-over-v0", "1.5"], {}),
    ],
    ids=["barrier", "step", "well", "pauli", "point"],
)
def test_csv_and_json_hold_the_same_table(argv, flagged, capsys):
    code = run(argv + ["--format", "csv"])
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert run(argv + ["--format", "json"]) == code
    records = loads(capsys.readouterr().out)
    header = lines[0].split(",")
    assert len(records) == len(lines) - 1
    for i, (line, rec) in enumerate(zip(lines[1:], records)):
        # JSON has the CSV columns in the same order, then only flag / incident_spin
        assert list(rec)[: len(header)] == header
        assert set(list(rec)[len(header):]) <= {"flag", "incident_spin"}
        assert ("flag" in rec) == (i in flagged)
        if i in flagged:
            assert rec["flag"].startswith(flagged[i])
        for text, value in zip(line.split(","), (rec[h] for h in header)):
            if value is None:
                assert text == "nan"
            elif isinstance(value, float):
                assert float(text) == value
            else:
                assert text == str(value)


# hypothesis' own float draws, and draws spread evenly over the binary exponents
positive_floats = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1023)),
).filter(lambda v: v > 0.0)
spin_flags = st.sampled_from(["up", "down"]).map(lambda spin: ["--spin", spin])


def _command(name, float_flags, *extra):
    """argv of one command, every float flag drawn from the positive finite floats."""
    flags = [positive_floats.map(lambda v, f=f: [f, repr(v)]) for f in float_flags]
    return st.tuples(*flags, *extra).map(lambda parts: [name] + sum(parts, []))


table_commands = st.one_of(
    _command("barrier", ["--v0", "--length", "--emin", "--emax", "--mass", "--hbar-c"],
             spin_flags, st.sampled_from(["numeric", "closed", "both"]).map(
                 lambda method: ["--method", method]), st.just(["--steps", "3"])),
    _command("step", ["--v0", "--emin", "--emax", "--mass"],
             spin_flags, st.just(["--steps", "3"])),
    _command("point", ["--v0", "--length", "--e-over-v0", "--mass", "--hbar-c"], spin_flags),
    _command("well", ["--length", "--mass", "--hbar-c"], st.just(["--nmax", "3", "--numeric"])),
    # the lattice checks: a field or a box too large to square, or too small
    # to resolve, is a usage error; "--flag=value" lets argparse take a
    # negative value
    st.tuples(
        st.sampled_from([8, 9, 12, 16]).map(lambda n: ["--base-size", str(n)]),
        st.sampled_from([1, 2]).map(lambda k: ["--levels", str(k)]),
        *(
            st.one_of(positive_floats, positive_floats.map(lambda v: -v), st.just(0.0)).map(
                lambda v, f=f: [f"{f}={v!r}"]
            )
            for f in ("--extent", "--bz")
        ),
    ).map(lambda parts: ["pauli"] + sum(parts, [])),
)


@settings(max_examples=100, deadline=None)
@given(table_commands)
def test_every_finite_input_gives_a_table_a_flag_or_a_usage_error(argv):
    # no exception escapes cli.main, every table (exit 0, or 2 with flagged
    # rows) is strict JSON, and an exit-0 table holds only finite values whose
    # coefficient sums are 1 (17 digits: the values the library checked, not
    # their rounding)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(argv + ["--format", "json", "--precision", "17"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 64)
    records = loads(out.getvalue()) if code in (0, 2) else []
    if code == 0:
        for rec in records:
            assert None not in rec.values(), rec
            assert all(math.isfinite(v) for v in rec.values() if isinstance(v, float)), rec
            assert "sum" not in rec or abs(rec["sum"] - 1.0) <= 1e-10, rec


@settings(max_examples=10, deadline=None)
@given(st.integers())
def test_check_gives_a_report_or_a_usage_error_for_any_seed(seed):
    # integers of both signs and any size: a report for a seed numpy takes, a
    # usage error for a negative one, and no traceback
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(["check", f"--seed={seed}"])
        except SystemExit as exc:
            code = exc.code
    assert code == (64 if seed < 0 else 0)
