import json

import numpy as np
import pytest

from etawave import boundstates as bs
from etawave import cli
from etawave.waveop import PhysicalConstants

SWEEP_HEADER = "e_over_v0,T1,T2,R1,R2,T_qm,R_qm,sum"


def run(argv):
    return cli.main(argv)


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
    ):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 64, argv
        assert capsys.readouterr().err.startswith(f"usage: etawave {argv[0]} "), argv


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


def test_point_flags_the_solver_that_fails(capsys):
    # the matching system is singular at this scale: its row is flagged and
    # the closed row kept, with exit 2 as a sweep with flagged rows
    argv = ["point", "--v0", "1e200", "--length", "1", "--e-over-v0", "1.5", "--format", "json"]
    assert run(argv) == 2
    numeric, closed = json.loads(capsys.readouterr().out)
    assert numeric["method"] == "numeric" and np.isnan(numeric["T1"])
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


def test_step_critical_point_flagged(tmp_path):
    out = tmp_path / "step.csv"
    code = run(
        ["step", "--v0", "10", "--emin", "0.5", "--emax", "1.5", "--steps", "3",
         "--output", str(out)]
    )
    assert code == 2
    text = out.read_text()
    assert "nan" in text
    assert len(text.splitlines()) == 4


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


def test_check_fault_injection_fails(capsys):
    assert run(["check", "--fault", "eta-sign"]) == 1
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
    for text in ("banana = 3\n", "hbar_c = inf\n", "mass_c2 = nan\n"):
        cfg.write_text(text)
        with pytest.raises(SystemExit) as err:
            run(["well", "--length", "10", "--config", str(cfg)])
        assert err.value.code == 64, text


def test_precision_out_of_range_rejected():
    with pytest.raises(SystemExit) as err:
        run(["well", "--length", "10", "--precision", "5"])
    assert err.value.code == 64


def test_barrier_json_records(capsys):
    code = run(
        ["barrier", "--v0", "10", "--length", "10", "--steps", "3", "--format", "json"]
    )
    assert code == 0
    records = json.loads(capsys.readouterr().out)
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
    records = json.loads(capsys.readouterr().out)
    assert all(rec["incident_spin"] == "down" for rec in records)
    # closed form and matching agree for spin-down incidence, critical band included
    run(
        ["barrier", "--v0", "10", "--length", "10", "--emin", "0.5", "--emax", "1.5",
         "--steps", "5", "--spin", "down", "--method", "both", "--format", "json"]
    )
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 5
    assert all(rec["delta_numeric_closed"] <= 1e-10 for rec in records)


def test_point_spin_down_marked_in_output(capsys):
    argv = ["point", "--v0", "10", "--length", "10", "--e-over-v0", "0.5"]
    assert run(argv + ["--spin", "down"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# incident_spin=down" and lines[1].startswith("method,")
    assert run(argv + ["--spin", "down", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [rec["incident_spin"] for rec in records] == ["down", "down"]
    # spin-up output carries no marker
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("method,")
    assert run(argv + ["--format", "json"]) == 0
    assert all("incident_spin" not in rec for rec in json.loads(capsys.readouterr().out))


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
def test_pauli_rejects_a_field_too_strong_to_square(bz, capsys):
    # the residuals would be inf or nan rows; a usage error instead
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
        (["step", "--v0", "10", "--emin", "0.5", "--emax", "1.5", "--steps", "3"],
         {1: "CriticalBandError"}),
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
    records = json.loads(capsys.readouterr().out)
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
            if isinstance(value, float):
                assert float(text) == value or (text == "nan" and np.isnan(value))
            else:
                assert text == str(value)
