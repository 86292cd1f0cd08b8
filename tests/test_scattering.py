"""Barrier and step coefficients: conservation, the numeric/closed-form
agreement, spin selection, deep tunneling conditioning, and the sweep table
plumbing."""

import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from etawave import boundstates as bs
from etawave import cli
from etawave import scattering as sc
from etawave import spinors as sp
from etawave.numerics import SingularSystemError
from etawave.waveop import CRITICAL, PhysicalConstants, classify_regime, complex_momentum

CONSTANTS = PhysicalConstants()

def barrier(e_energy, v0=10.0, length=2.0, m=0.5e6, spin=sp.UP):
    return sc.BarrierProblem(e_energy, v0, length, m, incident_spin=spin)


def agreement(a, b):
    """numeric-vs-closed metric: relative with a small absolute floor for the
    coefficients that underflow (deep tunneling T1, exact zeros)."""
    worst = 0.0
    for x, y in [(a.t1, b.t1), (a.t2, b.t2), (a.r1, b.r1), (a.r2, b.r2)]:
        worst = max(worst, abs(x - y) / max(abs(y), 1e-1) if abs(y) > 1e-280 else abs(x - y))
    return worst


ratios_above = st.floats(1.0001, 4.0)
ratios_below = st.floats(0.02, 0.9999)
heights = st.floats(0.5, 50.0)
lengths = st.floats(0.05, 12.0)
masses = st.floats(1e4, 1e6)


def test_reference_point_values():
    # V0 = 10 eV, L = 10 nm, default constants, E/V0 = 1.5
    p = barrier(15.0, 10.0, 10.0)
    _, numeric = sc.solve_barrier(p)
    closed = sc.closed_form(p)
    assert closed.t1 == pytest.approx(0.9499966385885575, rel=1e-12)
    assert closed.r1 == pytest.approx(0.049997361368078, rel=1e-9)
    assert closed.r2 == pytest.approx(6.0000433613713776e-06, rel=1e-9)
    assert closed.t2 == 0.0
    assert sc.coefficient_delta(numeric, closed) <= 1e-12
    assert abs(numeric.total - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(ratios_above, heights, lengths, masses)
def test_conservation_above(ratio, v0, length, m):
    p = barrier(ratio * v0, v0, length, m)
    _, numeric = sc.solve_barrier(p)
    closed = sc.closed_form(p)
    assert abs(numeric.total - 1.0) <= 1e-10
    assert abs(closed.total - 1.0) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(ratios_below, heights, lengths, masses)
def test_conservation_below(ratio, v0, length, m):
    p = barrier(ratio * v0, v0, length, m)
    _, numeric = sc.solve_barrier(p)
    closed = sc.closed_form(p)
    assert abs(numeric.total - 1.0) <= 1e-10
    assert abs(closed.total - 1.0) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(ratios_above, ratios_below),
    heights,
    lengths,
    masses,
)
def test_numeric_matches_closed(ratio, v0, length, m):
    p = barrier(ratio * v0, v0, length, m)
    _, numeric = sc.solve_barrier(p)
    closed = sc.closed_form(p)
    for x, y in [
        (numeric.t1, closed.t1),
        (numeric.t2, closed.t2),
        (numeric.r1, closed.r1),
        (numeric.r2, closed.r2),
    ]:
        assert abs(x - y) <= 1e-10 * abs(y) + 1e-11


@settings(max_examples=150, deadline=None)
@given(st.one_of(ratios_above, ratios_below), heights, lengths, masses)
def test_spin_down_transmission_zero(ratio, v0, length, m):
    _, numeric = sc.solve_barrier(barrier(ratio * v0, v0, length, m))
    assert numeric.t2 <= 1e-10


def test_deep_tunneling_kappa_l_200():
    # kappa L = 200: T1 ~ 1e-174, matching still agrees to rounding
    m, v0, ratio = 0.5e6, 10.0, 0.5
    kappa = np.sqrt(2 * m * v0 * (1 - ratio)) / CONSTANTS.hbar_c
    length = 200.0 / kappa
    p = barrier(ratio * v0, v0, length, m)
    _, numeric = sc.solve_barrier(p)
    closed = sc.closed_form(p)
    assert closed.t1 < 1e-150
    assert numeric.t1 == pytest.approx(closed.t1, rel=1e-10)
    assert numeric.r1 == pytest.approx(closed.r1, rel=1e-12)
    assert numeric.r2 == pytest.approx(closed.r2, rel=1e-12)
    assert abs(numeric.total - 1.0) <= 1e-10


def test_continuity_residual_small():
    for ratio in (0.3, 0.97, 1.5, 3.0):
        assert sc.continuity_residual(barrier(ratio * 10.0)) <= 1e-13


def test_continuity_residual_refuses_what_solve_barrier_refuses(monkeypatch):
    inside_band = sc.BarrierProblem(10.0, 10.0, 1.0, 5e5)
    with pytest.raises(sc.CriticalBandError):
        sc.continuity_residual(inside_band)

    def singular(m, b):
        raise SingularSystemError("exactly singular: stub")

    monkeypatch.setattr(sc, "solve_linear", singular)
    for run in (sc.solve_barrier, sc.continuity_residual):
        with pytest.raises(sc.DegenerateConfigurationError):
            run(barrier(15.0))


@pytest.mark.parametrize("offset", [0.0, 0.5e-6, -0.5e-6])
def test_component_pole_raises_on_matching_paths(offset):
    # m = 1, V0 = 5: E - V0 + m lies within DENOMINATOR_RTOL * m of the pole
    # of the barrier region's mode columns
    m, v0, length = 1.0, 5.0, 0.1
    e_energy = 4.0 + offset
    assert abs(e_energy - v0 + m) <= sp.DENOMINATOR_RTOL * m
    with pytest.raises(sp.ConventionSingularityError):
        sc.solve_barrier(sc.BarrierProblem(e_energy, v0, length, m))
    for spin in (sp.UP, sp.DOWN):
        with pytest.raises(sp.ConventionSingularityError):
            sc.solve_step(e_energy, v0, m, spin)
    table = sc.sweep(sc.BarrierProblem(v0, v0, length, m), [2.0, e_energy, 7.0], method="both")
    assert [row.flag is not None for row in table.rows] == [False, True, False]
    assert table.rows[1].flag.startswith("ConventionSingularityError")


def test_critical_band_refused_and_bridged():
    p = barrier(10.0, 10.0)
    with pytest.raises(sc.CriticalBandError):
        sc.solve_barrier(p)
    series = sc.closed_form(p)
    g = p.m * p.length**2 / CONSTANTS.hbar_c**2
    assert series.t1 == pytest.approx(2 * 10.0 / (2 * 10.0 + g * 10.0**2), rel=1e-14)
    assert abs(series.total - 1.0) <= 1e-12


@pytest.mark.parametrize("spin", [sp.UP, sp.DOWN])
def test_closed_form_where_the_phase_underflows(spin):
    # g (E - V0) underflows to 0 below the top: S(0) = 1, not 0/0, and q
    # underflows with it, so the barrier is transparent
    tiny = sc.BarrierProblem(0.5, 1.0, 6.5e-139, 6.5e-139, spin, PhysicalConstants(1.0))
    coeffs = sc.closed_form(tiny)
    assert max(coeffs.t1, coeffs.t2) == 1.0 and coeffs.r_qm == 0.0
    # E and m too small for their half sum: q = V0^2 L^2 / (2 hbar_c^2) at E = m
    sub = sc.BarrierProblem(5e-324, 1.0, 1.0, 5e-324, spin, PhysicalConstants(1.0))
    coeffs = sc.closed_form(sub)
    assert coeffs.t_qm == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert coeffs.r_qm == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert abs(coeffs.total - 1.0) <= 1e-14


def test_closed_form_continuous_across_band():
    # approaching from both sides reproduces the series limit
    v0, length, m = 1.0, 0.1, 0.5e6
    at_top = sc.closed_form(sc.BarrierProblem(v0, v0, length, m))
    for side in (1 + 1e-6, 1 - 1e-6):
        near = sc.closed_form(sc.BarrierProblem(side * v0, v0, length, m))
        assert near.t1 == pytest.approx(at_top.t1, rel=1e-5)
        assert near.r2 == pytest.approx(at_top.r2, rel=1e-5)


def test_coefficients_validation():
    with pytest.raises(sc.ConservationError):
        sc.Coefficients(0.9, 0.0, 0.2, 0.0, 0.9, 0.2)  # sum 1.1
    with pytest.raises(sc.ConservationError):
        sc.Coefficients(1.2, 0.0, -0.2, 0.0, 1.2, -0.2)  # outside [0, 1]
    with pytest.raises(sc.ConservationError):
        sc.Coefficients(0.6, 0.0, 0.4, 0.0, 0.7, 0.4)  # t_qm inconsistent


def test_invalid_problems_rejected():
    with pytest.raises(ValueError):
        barrier(-1.0)
    with pytest.raises(ValueError):
        sc.BarrierProblem(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sc.BarrierProblem(1.0, 1.0, 1.0, 1.0, incident_spin="left")
    for bad in (np.inf, np.nan):
        for args in ((bad, 1.0, 1.0, 1.0), (1.0, bad, 1.0, 1.0), (1.0, 1.0, bad, 1.0),
                     (1.0, 1.0, 1.0, bad)):
            with pytest.raises(ValueError):
                sc.BarrierProblem(*args)
        for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ValueError):
                sc.solve_step(*args)
        for args in ((bad, 1.0, 1), (1.0, bad, 1)):
            with pytest.raises(ValueError):
                bs.WellProblem(*args)


def _channels(c):
    return (c.t1, c.t2, c.r1, c.r2)


def _swapped(c):
    return (c.t2, c.t1, c.r2, c.r1)


def test_spin_down_incidence_mirrors_up():
    p_up = barrier(15.0, 10.0)
    p_dn = barrier(15.0, 10.0, spin=sp.DOWN)
    _, c_up = sc.solve_barrier(p_up)
    _, c_dn = sc.solve_barrier(p_dn)
    assert c_dn.t2 == pytest.approx(c_up.t1, rel=1e-12)
    assert c_dn.r2 == pytest.approx(c_up.r1, rel=1e-12)
    assert c_dn.r1 == pytest.approx(c_up.r2, rel=1e-12)
    assert c_dn.t1 <= 1e-10
    assert abs(c_dn.total - 1.0) <= 1e-10
    # closed_form: spin-down is spin-up with the channels exchanged, and the
    # matching solve agrees within the criterion-04 bound above the barrier
    # and in deep tunnelling (kappa L = 200)
    m, v0 = 0.5e6, 10.0
    kappa = np.sqrt(2 * m * 5.0) / CONSTANTS.hbar_c
    for e_energy, length in ((15.0, 2.0), (5.0, 200.0 / kappa)):
        closed_up = sc.closed_form(barrier(e_energy, v0, length, m))
        closed_dn = sc.closed_form(barrier(e_energy, v0, length, m, spin=sp.DOWN))
        assert _channels(closed_dn) == _swapped(closed_up)
        _, numeric_dn = sc.solve_barrier(barrier(e_energy, v0, length, m, spin=sp.DOWN))
        for n_val, c_val in zip(_channels(numeric_dn), _channels(closed_dn)):
            assert abs(n_val - c_val) <= 1e-10 * abs(c_val) + 1e-11
    # a critical-band row of a spin-down sweep is bridged with the channels exchanged
    table = sc.sweep(barrier(v0, v0, spin=sp.DOWN), [v0], method="numeric")
    assert table.flagged == []
    assert _channels(table.rows[0].coeffs) == _swapped(sc.closed_form(barrier(v0, v0)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(ratios_above, ratios_below), heights, lengths, masses)
def test_spin_down_mirrors_up_on_criterion_03_sample(ratio, v0, length, m):
    # criterion 03's ranges, with its clamp of the tunnelling tail to kappa L <= 220
    if ratio < 1.0:
        kappa = np.sqrt(2.0 * m * (1.0 - ratio) * v0) / CONSTANTS.hbar_c
        length = min(length, 220.0 / kappa)
    e_energy = ratio * v0
    down = barrier(e_energy, v0, length, m, spin=sp.DOWN)
    closed_dn = sc.closed_form(down)
    assert _channels(closed_dn) == _swapped(sc.closed_form(barrier(e_energy, v0, length, m)))
    _, numeric_dn = sc.solve_barrier(down)
    for n_val, c_val in zip(_channels(numeric_dn), _channels(closed_dn)):
        assert abs(n_val - c_val) <= 1e-10 * abs(c_val) + 1e-11


@settings(max_examples=120, deadline=None)
@given(st.floats(0.05, 3.0), heights, masses)
def test_step_conservation(ratio, v0, m):
    coeffs = sc.solve_step(ratio * v0, v0, m)
    assert abs(coeffs.total - 1.0) <= 1e-10


@settings(max_examples=80, deadline=None)
@given(st.floats(1.2, 4.0), heights, masses)
def test_step_spin_flip_ratio(ratio, v0, m):
    # a single interface does flip spin in transmission; eliminating the
    # 4x4 continuity system by hand gives t2/t1 = |c1-c2|^2 / |d1+d2|^2
    # with c1-c2 = 2mV0/((E+m)(E-V0+m)).  only the two-interface barrier
    # cancels this amplitude exactly.
    e_energy = ratio * v0
    coeffs = sc.solve_step(e_energy, v0, m)
    p1 = np.sqrt(2.0 * m * e_energy)
    p2 = np.sqrt(2.0 * m * (e_energy - v0))
    flip = 2.0 * m * v0 / ((e_energy + m) * (e_energy - v0 + m))
    keep = np.sqrt(2.0) * (p1 / (e_energy + m) + p2 / (e_energy - v0 + m))
    expected = coeffs.t1 * (flip / keep) ** 2
    assert coeffs.t2 == pytest.approx(expected, rel=1e-9, abs=1e-300)


def test_step_below_barrier_total_reflection():
    coeffs = sc.solve_step(4.0, 10.0, 0.5e6)
    assert coeffs.t1 == 0.0 and coeffs.t2 == 0.0
    assert coeffs.r1 + coeffs.r2 == pytest.approx(1.0, abs=1e-12)


def test_step_flux_factor_matters():
    # the naive momentum ratio misses the (E+m)/(E-V0+m) spinor weight; at
    # 100 keV on a 0.5 MeV mass that is a 3 percent error in T
    e_energy, v0, m = 1.5e5, 1.0e5, 0.5e6
    coeffs = sc.solve_step(e_energy, v0, m)
    p1 = np.sqrt(2 * m * e_energy)
    p2 = np.sqrt(2 * m * (e_energy - v0))
    exact = (p2 * (e_energy + m)) / (p1 * (e_energy - v0 + m))
    naive = p2 / p1
    assert abs(coeffs.total - 1.0) <= 1e-12
    assert abs(exact / naive - 1.0) > 1e-2
    naive_total = coeffs.t1 * naive / exact + coeffs.t2 + coeffs.r1 + coeffs.r2
    assert abs(naive_total - 1.0) > 1e-3


@pytest.mark.parametrize("spin", [sp.UP, sp.DOWN])
def test_step_solves_through_the_top(spin):
    # the 4x4 system stays regular at E = V0, where the flux factor p2 is 0:
    # total reflection; within 1e-9 of the top, where the barrier's matching
    # solve refuses, the step conserves to rounding
    for v0 in (0.5, 10.0, 50.0, 1e3):
        for m in (1e4, 5e5, 1e6):
            top = sc.solve_step(v0, v0, m, spin)
            assert top.t1 == 0.0 and top.t2 == 0.0
            assert abs(top.r1 + top.r2 - 1.0) <= 1e-10
            for offset in (-1e-9, -1e-12, 1e-12, 1e-9):
                coeffs = sc.solve_step(v0 * (1.0 + offset), v0, m, spin)
                assert abs(coeffs.total - 1.0) <= 1e-10
                assert (coeffs.t_qm > 0.0) == (offset > 0.0)


def test_step_rejects_an_incident_momentum_that_underflows():
    # p1 = sqrt(2 m E) = 0 made the flux ratio 0/0, a ZeroDivisionError
    with pytest.raises(ValueError, match="underflows"):
        sc.solve_step(1e-170, 1e-171, 1e-170)


def test_step_rejects_unknown_spin():
    # as BarrierProblem does; an unknown spin used to give the spin-down result
    with pytest.raises(ValueError, match="incident_spin"):
        sc.solve_step(15.0, 10.0, 5e5, "left")


def test_sweep_bridges_critical_point():
    template = barrier(10.0, 10.0, 2.0)
    grid = np.array([5.0, 10.0, 15.0])
    table = sc.sweep(template, grid, method="both")
    assert len(table.rows) == 3 and not table.flagged
    mid = table.rows[1]
    assert mid.e_over_v0 == pytest.approx(1.0)
    # bridged point: numeric falls back to the closed form, delta collapses
    assert mid.delta == 0.0
    for row in table.rows:
        assert abs(row.coeffs.total - 1.0) <= 1e-10


def test_sweep_flags_bad_points(capsys):
    template = barrier(10.0, 10.0, 2.0)
    table = sc.sweep(template, np.array([5.0, -1.0]), method="numeric")
    assert len(table.flagged) == 1
    assert "ValueError" in table.flagged[0].flag
    # the CLI writes a flagged row (E - V0 + m = 0 here) as nan in every value column
    argv = ["barrier", "--v0", "5", "--length", "1", "--mass", "1", "--emin", "0.7",
            "--emax", "0.9", "--steps", "3"]
    assert cli.main(argv) == 2
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows[1].split(",")[1:] == ["nan"] * 7
    assert "nan" not in rows[0] + rows[2]


def test_sweep_method_validation():
    with pytest.raises(ValueError):
        sc.sweep(barrier(15.0), [15.0], method="magic")


def test_sweep_csv_roundtrip(tmp_path):
    # the CLI table at --precision 17 gives back the library sweep bit for bit
    out = tmp_path / "sweep.csv"
    argv = ["barrier", "--v0", "10", "--length", "2", "--emin", "1.1", "--emax", "3.0",
            "--steps", "7", "--method", "both", "--precision", "17", "--output", str(out)]
    assert cli.main(argv) == 0
    table = sc.sweep(barrier(10.0, 10.0, 2.0), np.linspace(1.1, 3.0, 7) * 10.0, method="both")
    lines = out.read_text().splitlines()
    assert lines[0] == "e_over_v0,T1,T2,R1,R2,T_qm,R_qm,sum,delta_numeric_closed"
    assert len(lines) == 1 + len(table.rows)
    for line, row in zip(lines[1:], table.rows):
        c = row.coeffs
        expected = [row.e_over_v0, c.t1, c.t2, c.r1, c.r2, c.t_qm, c.r_qm, c.total, row.delta]
        assert [float(tok) for tok in line.split(",")] == expected
        assert abs(c.total - 1.0) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(ratios_above, heights, lengths, masses)
def test_envelope_bounds_r2(ratio, v0, length, m):
    e_energy = ratio * v0
    closed = sc.closed_form(barrier(e_energy, v0, length, m))
    assert closed.r2 <= sc.r2_envelope(e_energy, v0, m) * (1 + 1e-9)


def test_envelope_attained_at_quarter_wave():
    e_energy, v0, m = 15.0, 10.0, 0.5e6
    length = (np.pi / 2) * CONSTANTS.hbar_c / np.sqrt(2 * m * (e_energy - v0))
    closed = sc.closed_form(barrier(e_energy, v0, length, m))
    assert closed.r2 == pytest.approx(sc.r2_envelope(e_energy, v0, m), rel=1e-10)


def test_envelope_requires_propagation():
    with pytest.raises(ValueError):
        sc.r2_envelope(5.0, 10.0, 1.0)


@pytest.mark.parametrize(
    "e_energy, v0, m",
    [
        (1e160, 1e159, 1.0),  # E^2 overflows
        (1e-170, 1e-171, 1e-170),  # (E + m)^2 underflows to 0
        (1.7e308, 1.6e308, 1e308),  # 2E overflows
        (15.0, 10.0, 0.5e6),
    ],
)
def test_envelope_at_finite_extremes_against_50_digits(e_energy, v0, m):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    e, v, mm = mpmath.mpf(e_energy), mpmath.mpf(v0), mpmath.mpf(m)
    exact = 8 * e * mm * v**2 / ((e + mm) ** 2 * (8 * e**2 - 8 * e * v + 2 * v**2))
    got = sc.r2_envelope(e_energy, v0, m)
    assert abs(got - exact) <= 1e-14 * exact


def test_length_sensitivity_scan():
    scan = sc.l_sensitivity_scan(1.5e5, 1.0e5, 0.5e6, np.linspace(9.999, 10.001, 21))
    r2 = np.array([c.r2 for _, c in scan])
    # per-mille width changes sweep the oscillatory coefficient across decades
    assert r2.max() / max(r2.min(), 1e-300) > 100.0
    assert r2.max() <= sc.r2_envelope(1.5e5, 1.0e5, 0.5e6) * (1 + 1e-9)


# ------------------------------------------- matching systems and closed form


def _mode_columns(e_energy, v, m):
    """+p up, +p down, -p up, -p down columns of one region."""
    return [
        sp.mode_column(e_energy, v, m, spin, positive)
        for positive in (True, False)
        for spin in (sp.UP, sp.DOWN)
    ]


def _barrier_system_from_columns(p):
    """The barrier system assembled column by column from mode_column."""
    k2 = complex_momentum(p.e_energy, p.v0, p.m) / p.constants.hbar_c
    ph2 = np.exp(1j * k2 * p.length)
    u_fu, u_fd, u_bu, u_bd = _mode_columns(p.e_energy, 0.0, p.m)
    w_fu, w_fd, w_bu, w_bd = _mode_columns(p.e_energy, p.v0, p.m)
    m8 = np.zeros((8, 8), dtype=complex)
    m8[:4, :6] = np.column_stack([u_bu, u_bd, -w_fu, -w_fd, -ph2 * w_bu, -ph2 * w_bd])
    m8[4:, 2:] = np.column_stack([ph2 * w_fu, ph2 * w_fd, w_bu, w_bd, -u_fu, -u_fd])
    rhs = np.zeros(8, dtype=complex)
    rhs[:4] = -(u_fu if p.incident_spin == sp.UP else u_fd)
    return m8, rhs


def _step_system_from_columns(e_energy, v0, m, spin):
    u_fu, u_fd, u_bu, u_bd = _mode_columns(e_energy, 0.0, m)
    w_fu, w_fd, _, _ = _mode_columns(e_energy, v0, m)
    m4 = np.column_stack([u_bu, u_bd, -w_fu, -w_fd])
    return m4, -(u_fu if spin == sp.UP else u_fd)


def _nested_barrier_system(p):
    """The barrier system as a nested list per row, converted by np.array
    row by row: the assembly the flat one replaced."""
    _, c1, d1 = sp._mode_scalars(p.e_energy, 0.0, p.m)
    p2, c2, d2 = sp._mode_scalars(p.e_energy, p.v0, p.m)
    ph2 = cmath.exp(1j * (p2 / p.constants.hbar_c) * p.length)
    a, b = ph2 * c2, ph2 * d2
    m8 = np.array(
        [
            [1, 0, -1, 0, -ph2, 0, 0, 0],
            [0, 1, 0, -1, 0, -ph2, 0, 0],
            [c1, -d1, -c2, -d2, -a, b, 0, 0],
            [d1, -c1, d2, c2, -b, a, 0, 0],
            [0, 0, ph2, 0, 1, 0, -1, 0],
            [0, 0, 0, ph2, 0, 1, 0, -1],
            [0, 0, a, b, c2, -d2, -c1, -d1],
            [0, 0, -b, -a, d2, -c2, d1, c1],
        ],
        dtype=complex,
    )
    incident = [-1, 0, -c1, d1] if p.incident_spin == sp.UP else [0, -1, -d1, c1]
    return m8, np.array(incident + [0, 0, 0, 0], dtype=complex)


def _nested_step_system(e_energy, v0, m, spin):
    _, c1, d1 = sp._mode_scalars(e_energy, 0.0, m)
    _, c2, d2 = sp._mode_scalars(e_energy, v0, m)
    m4 = np.array(
        [[1, 0, -1, 0], [0, 1, 0, -1], [c1, -d1, -c2, -d2], [d1, -c1, d2, c2]], dtype=complex
    )
    incident = [-1, 0, -c1, d1] if spin == sp.UP else [0, -1, -d1, c1]
    return m4, np.array(incident, dtype=complex)


def _assert_same_system(got, ref):
    scale = np.abs(ref[0]).max()
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.abs(g - r).max() <= 1e-15 * scale


def _clamp_kappa_l(ratio, v0, length, m, limit=220.0):
    if ratio < 1.0:
        kappa = np.sqrt(2.0 * m * (1.0 - ratio) * v0) / CONSTANTS.hbar_c
        length = min(length, limit / kappa)
    return length


spins = st.sampled_from([sp.UP, sp.DOWN])


@settings(max_examples=200, deadline=None)
@given(st.one_of(ratios_above, ratios_below), heights, lengths, masses, spins)
def test_barrier_system_equals_mode_column_assembly(ratio, v0, length, m, spin):
    p = barrier(ratio * v0, v0, _clamp_kappa_l(ratio, v0, length, m), m, spin)
    m8, rhs = _barrier_system_from_columns(p)
    _assert_same_system(sc._assemble_barrier(p)[:2], (m8, rhs))
    x = np.linalg.solve(m8, rhs)
    _, coeffs = sc.solve_barrier(p)
    ref = [abs(x[k]) ** 2 for k in (6, 7, 0, 1)]
    for got, want in zip(_channels(coeffs), ref):
        assert type(got) is float
        assert abs(got - want) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, 3.0), heights, masses, spins)
def test_step_system_equals_mode_column_assembly(ratio, v0, m, spin):
    assume(abs(ratio - 1.0) > 1e-6)
    e_energy = ratio * v0
    m4, rhs = _step_system_from_columns(e_energy, v0, m, spin)
    _assert_same_system(sc._assemble_step(e_energy, v0, m, spin)[:2], (m4, rhs))
    x = np.linalg.solve(m4, rhs)
    t = [0.0, 0.0]
    if e_energy > v0:
        p1 = np.sqrt(2.0 * m * e_energy)
        p2 = np.sqrt(2.0 * m * (e_energy - v0))
        flux = (p2 * (e_energy + m)) / (p1 * (e_energy - v0 + m))
        t = [abs(x[2]) ** 2 * flux, abs(x[3]) ** 2 * flux]
    ref = t + [abs(x[0]) ** 2, abs(x[1]) ** 2]
    for got, want in zip(_channels(sc.solve_step(e_energy, v0, m, spin)), ref):
        assert type(got) is float
        assert abs(got - want) <= 1e-14


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(ratios_above, ratios_below, st.floats(0.999, 1.001)),
    heights,
    lengths,
    st.floats(1.0, 1e7),
    spins,
)
def test_flat_assembly_equals_nested_list_bitwise(ratio, v0, length, m, spin):
    e_energy = ratio * v0
    # away from the component pole E - V0 + m = 0 that _mode_scalars refuses
    assume(abs(e_energy - v0 + m) > 1e-6 * m)
    p = barrier(e_energy, v0, length, m, spin)
    for got, ref in (
        (sc._assemble_barrier(p)[:2], _nested_barrier_system(p)),
        (sc._assemble_step(e_energy, v0, m, spin)[:2], _nested_step_system(e_energy, v0, m, spin)),
    ):
        for g, r in zip(got, ref):
            assert g.shape == r.shape and g.dtype == r.dtype
            assert g.tobytes() == r.tobytes()


def _exact_closed_form(mpmath, e_energy, v0, length, m, z_scale=1):
    """Spin-up (t1, r1, r2) of the textbook barrier formula at 50 digits,
    with the phase argument z = (k L)^2 multiplied by z_scale."""
    mpmath.mp.dps = 50
    e, v, mm = mpmath.mpf(e_energy), mpmath.mpf(v0), mpmath.mpf(m)
    g = 2 * mm * (mpmath.mpf(length) / mpmath.mpf(CONSTANTS.hbar_c)) ** 2
    z = g * (e - v) * z_scale
    r = mpmath.sqrt(abs(z))
    shape = (mpmath.sin(r) / r) ** 2 if z > 0 else (mpmath.sinh(r) / r) ** 2 if z < 0 else 1
    q = v**2 * g * shape / (4 * e)
    refl = q / (1 + q)
    return 1 / (1 + q), refl * (e - mm) ** 2 / (e + mm) ** 2, refl * 4 * e * mm / (e + mm) ** 2


# within 1e-5 of the top on either side, the critical band (1e-9) included
near_top = st.builds(
    lambda offset, side: 1.0 + side * offset,
    st.floats(-10.0, -5.0).map(lambda x: 10.0**x),
    st.sampled_from([-1.0, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_top, ratios_above, ratios_below), heights, lengths, masses)
def test_closed_form_against_50_digits(ratio, v0, length, m):
    mpmath = pytest.importorskip("mpmath")
    up = barrier(ratio * v0, v0, _clamp_kappa_l(ratio, v0, length, m), m)
    args = (up.e_energy, v0, up.length, m)
    exact = _exact_closed_form(mpmath, *args)
    # the phase is the one ill-conditioned input: allow the change of the
    # exact values when z moves by the few ulp its float evaluation rounds
    moved = [_exact_closed_form(mpmath, *args, z_scale=1 + k * 2e-15) for k in (-1, 1)]
    got = sc.closed_form(up)
    for k, value in enumerate((got.t1, got.r1, got.r2)):
        assert type(value) is float
        slack = max(abs(w[k] - exact[k]) for w in moved)
        assert abs(value - exact[k]) <= 1e-13 * exact[k] + slack + 1e-300
    assert got.t2 == 0.0
    assert abs(got.total - 1.0) <= 1e-14
    down = sc.closed_form(barrier(up.e_energy, v0, up.length, m, spin=sp.DOWN))
    assert _channels(down) == _swapped(got)
    if classify_regime(up.e_energy, v0) != CRITICAL:
        _, numeric = sc.solve_barrier(up)
        for n_val, c_val in zip(_channels(numeric), _channels(got)):
            assert abs(n_val - c_val) <= 1e-10 * abs(c_val) + 1e-11
        return
    # inside the band the matching solve refuses; T1 there continues the
    # matching solve at the band edge on the same side of the top
    edge = v0 * (1.0 + 1.1e-9 * (1.0 if ratio >= 1.0 else -1.0))
    _, numeric = sc.solve_barrier(barrier(edge, v0, up.length, m))
    drift = abs(_exact_closed_form(mpmath, edge, v0, up.length, m)[0] - exact[0])
    assert abs(got.t1 - numeric.t1) <= drift + 1e-10 * got.t1 + 1e-11


def _s_form_t1(e_energy, v0, length, m):
    """T1 below the top written with s = exp(-2 kappa L): the same formula
    through other floating-point operations."""
    s = np.exp(-2.0 * np.sqrt(2.0 * m * (v0 - e_energy)) * length / CONSTANTS.hbar_c)
    den2s = 2.0 * s * (8.0 * e_energy**2 - 8.0 * e_energy * v0 + v0**2) - v0**2 * (1.0 + s**2)
    return 16.0 * e_energy * (e_energy - v0) * s / den2s


@pytest.mark.parametrize("e_energy, v0, m", [(5.0, 10.0, 5e5), (0.3, 10.0, 1e4), (9.9, 10.0, 1e6)])
def test_closed_form_deep_barrier(e_energy, v0, m):
    kappa = np.sqrt(2.0 * m * (v0 - e_energy)) / CONSTANTS.hbar_c
    # sinh^2(kappa L) overflows a float from kappa L ~ 355: T1 underflows to 0
    for kappa_l in (400.0, 2000.0):
        for spin in (sp.UP, sp.DOWN):
            c = sc.closed_form(barrier(e_energy, v0, kappa_l / kappa, m, spin))
            assert c.t1 == 0.0 and c.t2 == 0.0
            # the two spin weights of R round separately: one ulp
            assert abs(c.r1 + c.r2 - 1.0) <= 2.0**-52
    for kappa_l in (1e-3, 0.1, 1.0, 5.0, 20.0, 50.0, 100.0, 200.0, 220.0):
        length = kappa_l / kappa
        t1 = sc.closed_form(barrier(e_energy, v0, length, m)).t1
        assert t1 == pytest.approx(_s_form_t1(e_energy, v0, length, m), rel=1e-13)


@pytest.mark.parametrize("xp", [1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 1.0])
def test_closed_form_evanescent_branch_against_40_digits(xp):
    # a thin barrier puts x' = sqrt(2 m (V0 - E)) L / hbar_c near zero well
    # below the top, where forms in s = exp(-2 x') such as (1 - s)^2 lose digits
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    e_energy, v0, m = 5.0, 10.0, 5e5
    length = xp * CONSTANTS.hbar_c / (np.sqrt(2.0) * np.sqrt(m * (v0 - e_energy)))
    up = barrier(e_energy, v0, length, m)
    e, v, mm = mpmath.mpf(e_energy), mpmath.mpf(v0), mpmath.mpf(m)
    x = mpmath.sqrt(2 * mm * (v - e)) * mpmath.mpf(length) / mpmath.mpf(CONSTANTS.hbar_c)
    s = mpmath.exp(-2 * x)
    den2s = 2 * s * (8 * e**2 - 8 * e * v + v**2) - v**2 * (1 + s**2)
    scale = -(v**2) * (1 - s) ** 2 / (2 * (e + mm) ** 2 * den2s)
    exact = (16 * e * (e - v) * s / den2s, 2 * (e - mm) ** 2 * scale, 8 * e * mm * scale)
    got = sc.closed_form(up)
    for value, want in zip((got.t1, got.r1, got.r2), exact):
        assert abs(value - want) <= 4e-15 * abs(want)
    down = sc.closed_form(barrier(e_energy, v0, length, m, spin=sp.DOWN))
    assert _channels(down) == _swapped(got)


@pytest.mark.parametrize("spin", [sp.UP, sp.DOWN])
def test_closed_form_beyond_the_float_range(spin):
    # spin down exchanges the channels: read both in spin-up order
    view = _channels if spin == sp.UP else _swapped
    # V0^2 = 1e400 is beyond the float range while q is not: above the top q
    # is V0^2 sin^2(kL) / (4 E (E - V0)), at most 1 / 0.3 here
    e_energy, v0, m = 1.5e200, 1e200, 0.5e6
    c = sc.closed_form(barrier(e_energy, v0, 1.0, m, spin))
    t1, t2, r1, r2 = view(c)
    assert 1.0 / (1.0 + 1.0 / 0.3) <= t1 <= 1.0 and t2 == 0.0
    assert abs(c.total - 1.0) <= 1e-14
    # the spin split of R, (E-m)^2/(E+m)^2 and 4Em/(E+m)^2, without overflow
    assert r1 == pytest.approx(1.0 - t1, rel=1e-14)
    assert r2 == pytest.approx((1.0 - t1) * 4.0 * m / e_energy, rel=1e-14)
    # below the top V0^2 g / (4E) itself is beyond the float range: q is
    # infinite, and T1 = 0, R = 1 (not inf / inf)
    t1, t2, r1, r2 = view(sc.closed_form(barrier(1e-300, 1e300, 1.0, m, spin)))
    assert (t1, t2, r1) == (0.0, 0.0, 1.0)
    assert r2 == pytest.approx(4.0 * 1e-300 / m, rel=1e-14)
