"""Barrier and step coefficients: conservation, the numeric/closed-form
agreement, spin selection, deep tunneling conditioning, and the sweep table
plumbing."""

import math

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
spins = st.sampled_from([sp.UP, sp.DOWN])


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
    # the barrier flips no spin in transmission: the spin-flip T is the half
    # difference of the two channels' equal transmitted amplitudes
    _, numeric = sc.solve_barrier(barrier(ratio * v0, v0, length, m))
    assert numeric.t2 <= 1e-25
    _, numeric = sc.solve_barrier(barrier(ratio * v0, v0, length, m, spin=sp.DOWN))
    assert numeric.t1 <= 1e-25


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
    # of the barrier region's mode columns.  The barrier refuses; the step,
    # whose channels are written on den-scaled columns, solves within the
    # criterion-04 bound of a 50-digit solve (at the pole itself, one 1e-30
    # beside it, whose columns are finite)
    mpmath = pytest.importorskip("mpmath")
    m, v0, length = 1.0, 5.0, 0.1
    e_energy = 4.0 + offset
    assert abs(e_energy - v0 + m) <= sp.DENOMINATOR_RTOL * m
    with pytest.raises(sp.ConventionSingularityError):
        sc.solve_barrier(sc.BarrierProblem(e_energy, v0, length, m))
    mpmath.mp.dps = 50
    beside = mpmath.mpf(e_energy) + (0 if offset else mpmath.mpf("1e-30"))
    for spin in (sp.UP, sp.DOWN):
        exact = _step_at_50_digits(mpmath, beside, v0, m, spin)
        for got, want in zip(_channels(sc.solve_step(e_energy, v0, m, spin)), exact):
            assert abs(got - want) <= 1e-10 * abs(want) + 1e-11
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
        sc.Coefficients(0.9, 0.0, 0.2, 0.0)  # sum 1.1
    with pytest.raises(sc.ConservationError):
        sc.Coefficients(1.2, 0.0, -0.2, 0.0)  # outside [0, 1]


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
    assert table.rows[0].flag is None
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
    # a single interface does flip spin in transmission; solving the
    # four-component continuity by hand gives t2/t1 = |c1-c2|^2 / |d1+d2|^2
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


@settings(max_examples=200, deadline=None)
@given(st.floats(1.0, 1e3, exclude_min=True), st.floats(1e-6, 1e6), st.floats(1e-6, 1e9))
def test_step_flux_is_the_mode_current_ratio(ratio, v0, m):
    # the flux factor that solve_step hands to _channel_coeffs, (Re q / den)
    # / Re d1, is the ratio of the conserved currents u^+ G u of the
    # transmitted and incident spin-up +p columns
    e_energy = ratio * v0
    fluxes = []
    channel_coeffs = sc._channel_coeffs

    def captured(x, flux, incident_spin):
        fluxes.append(flux)
        return channel_coeffs(x, flux, incident_spin)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sc, "_channel_coeffs", captured)
        sc.solve_step(e_energy, v0, m)
    transmitted = sp.mode_current(sp.mode_column(e_energy, v0, m, sp.UP, True))
    incident = sp.mode_current(sp.mode_column(e_energy, 0.0, m, sp.UP, True))
    (flux,) = fluxes
    assert flux == pytest.approx(transmitted / incident, rel=1e-13)


@pytest.mark.parametrize("spin", [sp.UP, sp.DOWN])
def test_step_solves_through_the_top(spin):
    # the channel systems stay regular at E = V0, where the flux factor p2 is 0:
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
    # V0 / (E - V0 + m) = V0 / m overflows at the top: the shift c2 - c1,
    # of order 1 there, is formed with its factors paired the other way
    for v0, m in ((1e10, 1e-300), (1e300, 1e-10)):
        top = sc.solve_step(v0, v0, m, spin)
        assert top.t_qm == 0.0 and abs(top.r_qm - 1.0) <= 1e-10


def test_step_rejects_an_incident_momentum_that_underflows():
    # 2 m E underflows here, but p1 = sqrt(2 m) sqrt(E) is a normal float:
    # the step is the one at E = m = 1, V0 = 0.1
    scaled = sc.solve_step(1e-170, 1e-171, 1e-170)
    assert sc.coefficient_delta(scaled, sc.solve_step(1.0, 0.1, 1.0)) <= 1e-14
    # a subnormal p1 has lost its digits, and the flux ratio divides by it
    with pytest.raises(ValueError, match="normal float range"):
        sc.solve_step(5e-324, 2.5e-324, 5e-324)


@settings(max_examples=300, deadline=None)
@given(
    heights,
    masses,
    lengths,
    st.one_of(ratios_below, ratios_above),
    st.integers(-900, 999),
    st.sampled_from((sp.UP, sp.DOWN)),
)
def test_coefficients_hold_under_binary_rescaling(v0, m, length, ratio, k, spin):
    # E, V0 and m times 2^k with L times 2^-k leave p L / hbar_c and every
    # mode scalar as they were, and each product is exact; 2 m (E - V0)
    # scales by 2^2k, out of the float range or into its subnormal part,
    # while p scales by 2^k only
    kappa = math.sqrt(2.0 * m * max(v0 - ratio * v0, 0.0)) / CONSTANTS.hbar_c
    length = min(length, 220.0 / kappa) if kappa else length
    scale = math.ldexp(1.0, k)
    e_s, v0_s, m_s = ratio * v0 * scale, v0 * scale, m * scale
    step = sc.solve_step(ratio * v0, v0, m, spin)
    assert sc.coefficient_delta(sc.solve_step(e_s, v0_s, m_s, spin), step) <= 1e-13
    prob = sc.BarrierProblem(e_s, v0_s, length / scale, m_s, spin)
    _, numeric = sc.solve_barrier(prob)
    assert sc.coefficient_delta(numeric, sc.closed_form(prob)) <= 1e-10


def test_step_rejects_an_e_plus_m_beyond_the_float_range():
    # d1 = sqrt2 p1 / (E + m) is 0 or nan where E + m overflows: a flagged
    # row, not the ZeroDivisionError of s d1 + g = 0
    for args in ((1e308, 1.0, 1e308), (1.5e308, 1.0, 0.5e308)):
        with pytest.raises(ValueError):
            sc.solve_step(*args)


def test_step_rejects_unknown_spin():
    # as BarrierProblem does; an unknown spin used to give the spin-down result
    with pytest.raises(ValueError, match="incident_spin"):
        sc.solve_step(15.0, 10.0, 5e5, "left")


def test_sweep_bridges_critical_point():
    template = barrier(10.0, 10.0, 2.0)
    grid = np.array([5.0, 10.0, 15.0])
    table = sc.sweep(template, grid, method="both")
    assert len(table.rows) == 3 and all(row.flag is None for row in table.rows)
    mid = table.rows[1]
    assert mid.e_over_v0 == pytest.approx(1.0)
    # bridged point: numeric falls back to the closed form, delta collapses
    assert mid.delta == 0.0
    for row in table.rows:
        assert abs(row.coeffs.total - 1.0) <= 1e-10


@pytest.mark.parametrize("method, points", [("both", [5.0, 10.0, 15.0]), ("numeric", [10.0]),
                                            ("closed", [5.0, 10.0, 15.0])])
def test_sweep_evaluates_the_closed_form_once_per_point(method, points, monkeypatch):
    # the critical point's fallback is its closed row as well: method both
    # evaluates closed_form once there, not twice
    calls = []
    closed_form = sc.closed_form

    def counted(p):
        calls.append(p.e_energy)
        return closed_form(p)

    monkeypatch.setattr(sc, "closed_form", counted)
    table = sc.sweep(barrier(10.0, 10.0, 2.0), np.array([5.0, 10.0, 15.0]), method=method)
    assert calls == points
    assert all(row.flag is None for row in table.rows)


def test_sweep_flags_bad_points(capsys):
    template = barrier(10.0, 10.0, 2.0)
    table = sc.sweep(template, np.array([5.0, -1.0]), method="numeric")
    assert table.rows[0].flag is None
    assert "ValueError" in table.rows[1].flag
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


@pytest.mark.parametrize("grid", [
    [5.0, 10.0, 15.0, -1.0],
    tuple(np.float64(e) for e in (5.0, 10.0, 15.0, -1.0)),
    np.array([5.0, 10.0, 15.0, -1.0]),
], ids=["list", "tuple-of-float64", "ndarray"])
def test_sweep_rows_carry_python_floats(grid):
    # e_over_v0 is a float whatever the grid's element type, flagged rows too
    table = sc.sweep(barrier(10.0, 10.0, 2.0), grid, method="both")
    assert [row.e_over_v0 for row in table.rows] == [0.5, 1.0, 1.5, -0.1]
    assert [type(row.e_over_v0) for row in table.rows] == [float] * 4
    assert table.rows[-1].flag is not None


def test_sweep_ratio_beyond_the_float_range_is_inf_without_a_warning():
    # an ndarray grid's E / V0 was a numpy division, which warned on overflow
    (row,) = sc.sweep(barrier(1.0, 1e-3, 1.0, 1.0), np.array([1e308]), method="closed").rows
    assert row.e_over_v0 == math.inf and row.flag.startswith("ValueError")


def _row_by_point(template, e_energy, method):
    """The sweep row of one grid point from its own calls: a BarrierProblem,
    solve_barrier or closed_form (closed_form inside the critical band), and
    coefficient_delta; a refusal is the row's flag."""
    e_energy = float(e_energy)
    ratio = e_energy / template.v0
    try:
        p = sc.BarrierProblem(e_energy, template.v0, template.length, template.m,
                              template.incident_spin, template.constants)
        if method == "closed":
            return sc.SweepRow(ratio, sc.closed_form(p), None, None)
        try:
            numeric = sc.solve_barrier(p)[1]
        except sc.CriticalBandError:
            numeric = closed = sc.closed_form(p)
        else:
            closed = sc.closed_form(p) if method == "both" else None
        delta = sc.coefficient_delta(numeric, closed) if method == "both" else None
        return sc.SweepRow(ratio, numeric, delta, None)
    except (ValueError, sc.DegenerateConfigurationError) as exc:
        return sc.SweepRow(ratio, None, None, f"{type(exc).__name__}: {exc}")


@st.composite
def sweep_grids(draw):
    """(template, grid): random points plus a critical-band point, a phase
    p2 L / hbar_c of 2^21 and, where m < V0, a point at the component pole
    E - V0 + m = 0."""
    v0 = draw(heights)
    m = draw(st.one_of(masses, st.floats(0.01, 0.99).map(lambda f: f * v0)))
    length = draw(lengths)
    template = barrier(v0, v0, length, m, draw(spins))
    grid = draw(st.lists(st.floats(0.02, 4.0).map(lambda r: r * v0), min_size=1, max_size=4))
    grid.append(v0 * (1.0 + draw(st.floats(-5e-10, 5e-10))))
    grid.append(v0 + (2.0**21 * CONSTANTS.hbar_c / length) ** 2 / (2.0 * m))
    if m < v0:
        grid.append(v0 - m)
    return template, draw(st.permutations(grid))


@settings(max_examples=150, deadline=None)
@given(sweep_grids())
def test_sweep_equals_the_per_point_calls(case):
    template, grid = case
    for method in ("numeric", "closed", "both"):
        want = [repr(_row_by_point(template, e, method)) for e in grid]
        for g in (list(grid), np.array(grid)):
            assert [repr(row) for row in sc.sweep(template, g, method).rows] == want, method


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


def _channel_form(m, rhs, c1, spin, mix):
    """The matching system (m, rhs) of 4-component interface rows and
    (up, down) unknown pairs, rewritten in the channel basis: rows
    u = psi0 + s psi1 and v = psi2 - s psi3 - c1 u per interface, unknowns
    (x_up + s x_down) / 2, then combined by the k x k matrix mix in each
    channel, and the right-hand side of unit incidence in each channel.
    Returns the (2, k, k) diagonal blocks, the off-block part and the (2, k)
    right-hand sides, s = +1 first."""
    n = len(m)
    rows = np.zeros((n, n), dtype=complex)
    cols = np.zeros((n, n), dtype=complex)
    k = n // 2
    for half, s in enumerate((1.0, -1.0)):
        for i in range(n // 4):
            u, v = half * k + 2 * i, half * k + 2 * i + 1
            rows[u, 4 * i : 4 * i + 2] = [1.0, s]
            rows[v, 4 * i + 2 : 4 * i + 4] = [1.0, -s]
            rows[v] -= c1 * rows[u]
        for j in range(k):
            cols[2 * j : 2 * j + 2, half * k + j] = [1.0, s]
    # rows and cols carry a factor sqrt2 each: the channel matrix is half
    # their product; spin-up incidence is 1 / sqrt2 in each channel and
    # spin-down s / sqrt2, so the right-hand side of unit incidence is
    # rows @ rhs, times s for spin down
    full = rows @ m @ cols @ np.kron(np.eye(2), mix) / 2.0
    signs = np.array([1.0, 1.0]) if spin == sp.UP else np.array([1.0, -1.0])
    blocks = np.array([full[:k, :k], full[k:, k:]])
    off = np.concatenate([full[:k, k:], full[k:, :k]])
    return blocks, off, (rows @ rhs).reshape(2, k) * signs[:, None]


def _eliminated(blocks, rhs):
    """The (2, 2, 2) systems in the internal amplitudes left by solving each
    4x4 channel block's u rows (0 and 2) for r and t (unknowns 0 and 3) and
    substituting them into its v rows (1 and 3), with their right-hand
    sides."""
    u, v, e, k = [0, 2], [1, 3], [0, 3], [1, 2]
    systems, sides = [], []
    for block, side in zip(blocks, rhs):
        ue = np.linalg.solve(block[np.ix_(u, e)], np.column_stack([block[np.ix_(u, k)], side[u]]))
        systems.append(block[np.ix_(v, k)] - block[np.ix_(v, e)] @ ue[:, :2])
        sides.append(side[v] - block[np.ix_(v, e)] @ ue[:, 2])
    return np.array(systems), np.array(sides)


def _assert_channel_blocks(got, m, rhs, c1, spin, mix):
    # a combined unknown's column sums columns of m: its entries' scale too
    scale = np.abs(m).max() * np.abs(mix).sum(axis=0).max()
    blocks, off, channel_rhs = _channel_form(m, rhs, c1, spin, mix)
    assert np.abs(off).max() <= 1e-15 * scale
    for g, r in zip(got, _eliminated(blocks, channel_rhs)):
        assert g.shape == r.shape
        assert np.abs(g - r).max() <= 1e-15 * scale


def _clamp_kappa_l(ratio, v0, length, m, limit=220.0):
    if ratio < 1.0:
        kappa = np.sqrt(2.0 * m * (1.0 - ratio) * v0) / CONSTANTS.hbar_c
        length = min(length, limit / kappa)
    return length


@settings(max_examples=200, deadline=None)
@given(st.one_of(ratios_above, ratios_below), heights, lengths, masses, spins)
def test_barrier_system_equals_mode_column_assembly(ratio, v0, length, m, spin):
    p = barrier(ratio * v0, v0, _clamp_kappa_l(ratio, v0, length, m), m, spin)
    m8, rhs = _barrier_system_from_columns(p)
    c1 = sp._mode_scalars(p.e_energy, 0.0, m)[1]
    # within a phase |p2 L / hbar_c| of 1 of the top, the internal unknowns
    # are the sum and difference of the +p and -p (anchored at L) columns
    near_top = abs(complex_momentum(p.e_energy, v0, m) / CONSTANTS.hbar_c * p.length) <= 1.0
    mix = np.eye(4)
    if near_top:
        mix[1:3, 1:3] = [[1.0, 1.0], [1.0, -1.0]]
    got = [np.asarray(a) for a in sc._barrier_system(p)[4:]]
    _assert_channel_blocks(got, m8, rhs, c1, spin, mix)
    # the float system solved at 50 digits: LAPACK's own rounding of the 8x8
    # reached 1.2e-14 in T1 at E/V0 = 1.0001, V0 = 22, L = 11, m = 721352.5
    # (a phase of 3.1, condition 2e4), where solve_barrier is within 1.7e-15
    # of a 50-digit solve of the problem and 8e-16 of this one
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x = mpmath.lu_solve(mpmath.matrix(m8.tolist()), mpmath.matrix(rhs.tolist()))
        ref = [float(abs(x[k]) ** 2) for k in (6, 7, 0, 1)]
    _, coeffs = sc.solve_barrier(p)
    if near_top:
        # the 8x8's nearly equal +p and -p columns cost its solve up to
        # 1.6e-14 there (against 50-digit values); the closed form keeps 6e-16
        ref = _channels(sc.closed_form(p))
    for got, want in zip(_channels(coeffs), ref):
        assert type(got) is float
        assert abs(got - want) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, 3.0), heights, masses, spins)
def test_step_channel_formulas_equal_the_mode_column_solve(ratio, v0, m, spin):
    assume(abs(ratio - 1.0) > 1e-6)
    e_energy = ratio * v0
    m4, rhs = _step_system_from_columns(e_energy, v0, m, spin)
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


def _columns_at_50_digits(mpmath, e, pot, mm):
    """The +p up, +p down, -p up and -p down mode_column columns of a region
    at potential `pot`, with the region's p and d, from mpmath numbers."""
    p = mpmath.sqrt(2 * mm * (e - pot))  # +i kappa below the potential
    den = e - pot + mm
    c, d = 1j * (e - pot - mm) / den, mpmath.sqrt(2) * p / den
    return [(1, 0, c, -d), (0, 1, d, -c), (1, 0, c, d), (0, 1, -d, -c)], p, d


def _step_at_50_digits(mpmath, e_energy, v0, m, spin):
    """(t1, t2, r1, r2) of the step from the 4x4 matching solve of the
    mode_column columns, the scalars p, c and d taken at 50 digits."""
    mpmath.mp.dps = 50
    e, v, mm = mpmath.mpf(e_energy), mpmath.mpf(v0), mpmath.mpf(m)
    (u_fu, u_fd, u_bu, u_bd), _, d1 = _columns_at_50_digits(mpmath, e, 0, mm)
    (w_fu, w_fd, _, _), _, d2 = _columns_at_50_digits(mpmath, e, v, mm)
    a = mpmath.matrix([[u_bu[i], u_bd[i], -w_fu[i], -w_fd[i]] for i in range(4)])
    x = mpmath.lu_solve(a, mpmath.matrix([-z for z in (u_fu if spin == sp.UP else u_fd)]))
    flux = mpmath.re(d2) / mpmath.re(d1) if e > v else 0
    return tuple(float(abs(x[k]) ** 2 * f) for k, f in ((2, flux), (3, flux), (0, 1), (1, 1)))


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


def _heights(m_sides):
    """V0 / E within 1e-12 to 1e-1 of 1 on either side, or V0 / m across
    nine decades with a sign from `m_sides`, as (scale, side, size)."""
    return st.one_of(
        st.tuples(st.just("E"), st.sampled_from([-1.0, 1.0]), _log_uniform(1e-12, 1e-1)),
        st.tuples(st.just("m"), st.sampled_from(m_sides), _log_uniform(1e-6, 1e3)),
    )


def _height(e_energy, m, height):
    scale, side, size = height
    if scale == "pole":
        return e_energy + m * (1.0 + side * size)
    return e_energy * (1.0 + side * size) if scale == "E" else side * size * m


# V0 - E - m within 1e-12 m to 1e-1 m of the component pole, on either side
_pole_heights = st.tuples(st.just("pole"), st.sampled_from([-1.0, 1.0]), _log_uniform(1e-12, 1e-1))


@settings(max_examples=300, deadline=None)
@given(
    _log_uniform(1e-6, 1e3),
    st.one_of(_heights([-1.0, 1.0]), _pole_heights),
    _log_uniform(1e-3, 1e9),
    spins,
)
def test_step_against_a_50_digit_matching_solve(e_over_m, height, m, spin):
    # through the band beside V0 = E + m too, where dc and s d2 cancel in one
    # channel and the den-scaled columns do not
    mpmath = pytest.importorskip("mpmath")
    e_energy = e_over_m * m
    v0 = _height(e_energy, m, height)
    exact = _step_at_50_digits(mpmath, e_energy, v0, m, spin)
    for got, want in zip(_channels(sc.solve_step(e_energy, v0, m, spin)), exact):
        assert abs(got - want) <= 1e-10 * abs(want) + 1e-11


@pytest.mark.parametrize("spin", [sp.UP, sp.DOWN])
def test_step_near_the_component_pole_against_50_digits(spin):
    # V0 - E - m = 2e-6 m: dc and s d2 cancel in one channel, which the
    # den-scaled columns take without the cancellation (8.6 times the
    # criterion-04 bound when g was formed as dc + s d2)
    mpmath = pytest.importorskip("mpmath")
    exact = _step_at_50_digits(mpmath, 0.5, 1.500002, 1.0, spin)
    for got, want in zip(_channels(sc.solve_step(0.5, 1.500002, 1.0, spin)), exact):
        assert abs(got - want) <= 1e-10 * abs(want) + 1e-11


def _barrier_at_50_digits(mpmath, e_energy, v0, length, m, spin):
    """(t1, t2, r1, r2) of the barrier from the 8x8 matching solve of the
    mode_column columns, assembled as `_barrier_system_from_columns` does,
    the scalars and the phase taken at 50 digits."""
    mpmath.mp.dps = 50
    e, v, mm = mpmath.mpf(e_energy), mpmath.mpf(v0), mpmath.mpf(m)
    (u_fu, u_fd, u_bu, u_bd), _, _ = _columns_at_50_digits(mpmath, e, 0, mm)
    (w_fu, w_fd, w_bu, w_bd), p2, _ = _columns_at_50_digits(mpmath, e, v, mm)
    ph2 = mpmath.exp(1j * p2 * mpmath.mpf(length) / mpmath.mpf(CONSTANTS.hbar_c))
    # z = 0 rows, then z = L rows; the -p internal mode is anchored at z = L
    rows = [
        [u_bu[i], u_bd[i], -w_fu[i], -w_fd[i], -ph2 * w_bu[i], -ph2 * w_bd[i], 0, 0]
        for i in range(4)
    ] + [
        [0, 0, ph2 * w_fu[i], ph2 * w_fd[i], w_bu[i], w_bd[i], -u_fu[i], -u_fd[i]]
        for i in range(4)
    ]
    incident = u_fu if spin == sp.UP else u_fd
    x = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix([-z for z in incident] + [0] * 4))
    return tuple(float(abs(x[k]) ** 2) for k in (6, 7, 0, 1))


def _assert_barrier_within_criterion_04(p, exact, solvers):
    for solve in solvers:
        for got, want in zip(_channels(solve(p)), exact):
            assert abs(got - want) <= 1e-10 * abs(want) + 1e-11, solve


def _matching(p):
    return sc.solve_barrier(p)[1]


@settings(max_examples=300, deadline=None)
@given(
    _log_uniform(1e-6, 1e3),
    _heights([1.0]),
    _log_uniform(1e-3, 1e9),
    _log_uniform(1e-6, 220.0),
    spins,
)
def test_barrier_against_a_50_digit_matching_solve(e_over_m, height, m, phase, spin):
    # both solvers over the dimensionless space: E/m, V0/m and the phase
    # |p2| L / hbar_c that fixes L, from the thin-barrier limit to kappa L = 220
    mpmath = pytest.importorskip("mpmath")
    e_energy = e_over_m * m
    v0 = _height(e_energy, m, height)
    # near V0 = E + m the columns' dc and s d2 cancel unflagged (ROADMAP item
    # 9): 700 times the bound at 2e-6 m, and still up to 3.2 times at 1.01e-3 m
    # in the near-top basis, against 0.3 times at 1e-2 m; the band is shown by
    # the xfails below, not drawn here
    assume(abs(v0 - e_energy - m) > 1e-2 * m)
    # at E = V0 exactly no phase fixes L; the band around it is drawn
    assume(v0 != e_energy)
    length = phase * CONSTANTS.hbar_c / abs(complex_momentum(e_energy, v0, m))
    p = barrier(e_energy, v0, length, m, spin)
    exact = _barrier_at_50_digits(mpmath, e_energy, v0, p.length, m, spin)
    solvers = [sc.closed_form, _matching]
    if classify_regime(e_energy, v0) == CRITICAL:
        with pytest.raises(sc.CriticalBandError):
            sc.solve_barrier(p)
        solvers = [sc.closed_form]
    _assert_barrier_within_criterion_04(p, exact, solvers)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 9: dc and s d2 cancel near V0 = E + m"
)
@pytest.mark.parametrize("spin", [sp.UP, sp.DOWN])
def test_barrier_near_the_component_pole_against_50_digits(spin):
    # V0 - E - m = 2e-6 m, outside the refused band of 1e-6 m: the matching
    # solve errs by about 700 times the criterion-04 bound, closed_form by
    # 1e-6 of it
    mpmath = pytest.importorskip("mpmath")
    p = barrier(1e-6, 1.000003, 0.028, 1.0, spin)
    exact = _barrier_at_50_digits(mpmath, 1e-6, 1.000003, 0.028, 1.0, spin)
    _assert_barrier_within_criterion_04(p, exact, [sc.closed_form])
    _assert_barrier_within_criterion_04(p, exact, [_matching])


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 9's error beyond its 1e-3 m band"
)
def test_barrier_beside_the_item_9_band_against_50_digits():
    # V0 - E - m = +-1.01e-3 m and phases of 1.4e-4 to 4.3e-4 (the near-top
    # basis): the matching solve errs by up to 3.2 times the criterion-04
    # bound, and by more than the bound at 16 of these 34 points; spin down
    # gives the same channels
    mpmath = pytest.importorskip("mpmath")
    for v0 in (1.001011, 0.998991):
        for length in np.linspace(0.02, 0.06, 17):
            p = barrier(1e-6, v0, float(length), 1.0)
            exact = _barrier_at_50_digits(mpmath, 1e-6, v0, p.length, 1.0, sp.UP)
            _assert_barrier_within_criterion_04(p, exact, [_matching])


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


# from 1.1e-9 to 1e-5 of the top on either side, just outside the critical band
beside_top = st.builds(
    lambda offset, side: 1.0 + side * offset,
    st.floats(math.log10(1.1e-9), -5.0).map(lambda x: 10.0**x),
    st.sampled_from([-1.0, 1.0]),
)


@settings(max_examples=200, deadline=None)
@given(beside_top, heights, lengths, masses)
def test_matching_beside_the_top_against_50_digits(ratio, v0, length, m):
    # the +p and -p internal columns nearly coincide here, and a solve on
    # them loses up to a tenth of the criterion-04 bound; on their sum and
    # difference the matching solve stays within a thousandth of it
    mpmath = pytest.importorskip("mpmath")
    up = barrier(ratio * v0, v0, _clamp_kappa_l(ratio, v0, length, m), m)
    exact = _exact_closed_form(mpmath, up.e_energy, v0, up.length, m)
    _, numeric = sc.solve_barrier(up)
    for got, want in zip(_channels(numeric), (exact[0], 0, *exact[1:])):
        assert abs(got - want) <= 1e-3 * (1e-10 * abs(want) + 1e-11)


def test_no_spin_flip_transmission_where_d_is_tiny():
    # E / m = 6e22: d1 ~ 8e-12 next to c1 ~ -i, so c1 +- d1 would keep only a
    # few bits of d1.  At L = 1.5 the phase p2 L / hbar_c is 3.4e25, whose
    # sine has no digits left: the matching solve refuses it.  At L = 1.5e-20
    # the phase is 3.4e5, and the spin-flip T2 and R2 (0 and 3.4e-34 in
    # closed form) stay at rounding level while the coefficients sum to 1
    v0 = 1.298074214633707e33
    far, near = (
        sc.BarrierProblem(200000.0 * v0, v0, length, 4195815672910693.0,
                          constants=PhysicalConstants(65.0))
        for length in (1.5, 1.5e-20)
    )  # fmt: skip
    with pytest.raises(sc.DegenerateConfigurationError, match="phase"):
        sc.solve_barrier(far)
    phase = complex_momentum(near.e_energy, v0, near.m).real * near.length / 65.0
    assert 3e5 < phase < sc.MAX_PHASE
    _, numeric = sc.solve_barrier(near)
    assert numeric.t2 <= 1e-20 and numeric.r2 <= 1e-20
    assert abs(numeric.total - 1.0) <= 1e-14


def test_a_propagating_phase_beyond_2_20_is_refused():
    # E = 2 V0, m = 0.5e6: the phase p2 L / hbar_c is 2^20 (1 +- 1e-3)
    e_energy, v0, m = 20.0, 10.0, 0.5e6
    unit = complex_momentum(e_energy, v0, m).real / CONSTANTS.hbar_c
    below, above = (barrier(e_energy, v0, sc.MAX_PHASE * f / unit, m) for f in (1 - 1e-3, 1 + 1e-3))
    _, numeric = sc.solve_barrier(below)
    closed = sc.closed_form(below)
    for got, want in zip(_channels(numeric), _channels(closed)):
        assert abs(got - want) <= 1e-10 * abs(want) + 1e-11
    with pytest.raises(sc.DegenerateConfigurationError, match="phase"):
        sc.solve_barrier(above)
    (row,) = sc.sweep(above, [e_energy], "both").rows
    assert row.coeffs is None and "phase" in row.flag


@pytest.mark.parametrize("spin", [sp.UP, sp.DOWN])
def test_closed_form_refuses_a_phase_beyond_2_20(spin):
    # as the matching solve: E = 2 V0, m = 0.5e6 and k L = 2^20 (1 +- 1e-3),
    # and the phase 3.6e100 of V0 = 1e200, E = 1.5 V0, L = 1, whose sine has
    # no digits at all; a sweep flags the row
    e_energy, v0, m = 20.0, 10.0, 0.5e6
    unit = complex_momentum(e_energy, v0, m).real / CONSTANTS.hbar_c
    below, above = (
        barrier(e_energy, v0, sc.MAX_PHASE * f / unit, m, spin) for f in (1 - 1e-3, 1 + 1e-3)
    )
    assert abs(sc.closed_form(below).total - 1.0) <= 1e-14
    for prob in (above, barrier(1.5e200, 1e200, 1.0, m, spin)):
        with pytest.raises(ValueError, match="beyond 2\\^20"):
            sc.closed_form(prob)
        (row,) = sc.sweep(prob, [prob.e_energy], "closed").rows
        assert row.coeffs is None and row.flag.startswith("ValueError") and "phase" in row.flag


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
    # is V0^2 sin^2(kL) / (4 E (E - V0)), at most 1 / 0.3 here.  L = 1e-95
    # puts the phase k L at 3.6e5, below MAX_PHASE
    e_energy, v0, m = 1.5e200, 1e200, 0.5e6
    c = sc.closed_form(barrier(e_energy, v0, 1e-95, m, spin))
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


def test_barrier_coefficients_are_the_committed_values():
    # (E, V0, L, m), then the same-spin transmission and the two reflections
    # (t1, r1, r2 for spin up) of solve_barrier and of closed_form, to 1e-14
    # relative: above the top at |p2 L / hbar_c| = 113.5 and below it at
    # 22.7 (the +p and -p basis), 2e-3 V0 above and below it at 0.36 (the
    # sum and difference basis), kappa L = 219.5, and m = 1.7e308 with
    # L = 1e-300.  Spin-down incidence exchanges the spins.  The spin-flip
    # transmission is 0 in the closed form and rounding in the matching
    # solve: a quarter of the squared difference of two channel amplitudes
    # that agree to 16 eps
    expected = [
        (
            (15.0, 10.0, 10.0, 500000.0),
            (0.9499966385885512, 0.04999736136808732, 6.0000433613722636e-06),
            (0.9499966385885574, 0.04999736136808111, 6.000043361371377e-06),
        ),
        (
            (5.0, 10.0, 2.0, 500000.0),
            (7.656850511096131e-20, 0.9999600007999883, 3.999920001200076e-05),
            (7.656850511096241e-20, 0.999960000799988, 3.999920001199984e-05),
        ),
        (
            (10.02, 10.0, 0.5, 500000.0),
            (0.06099836557471604, 0.9389263670710143, 7.526735426974422e-05),
            (0.06099836557471605, 0.9389263670710141, 7.526735426974412e-05),
        ),
        (
            (9.98, 10.0, 0.5, 500000.0),
            (0.05604815598640614, 0.9438764819068534, 7.536210674072035e-05),
            (0.056048155986406174, 0.9438764819068532, 7.536210674071987e-05),
        ),
        (
            (5.0, 10.0, 19.338186689811433, 500000.0),
            (8.846723132877526e-191, 0.9999600007999883, 3.999920001200076e-05),
            (8.846723132878526e-191, 0.999960000799988, 3.999920001199984e-05),
        ),
        (
            (0.5, 1.0, 1e-300, 1.7e308),
            (1.0, 4.380427220490094e-297, 0.0),
            (1.0, 4.380427220490093e-297, 0.0),
        ),
    ]
    eps = np.finfo(float).eps
    for problem, numeric, closed in expected:
        for spin in (sp.UP, sp.DOWN):
            p = barrier(*problem, spin)
            for got, want in ((sc.solve_barrier(p)[1], numeric), (sc.closed_form(p), closed)):
                t_same, t_flip, r_same, r_flip = (
                    _channels(got) if spin == sp.UP else _swapped(got)
                )
                assert (t_same, r_same, r_flip) == pytest.approx(want, rel=1e-14, abs=0)
                assert 0.0 <= t_flip <= (16 * eps) ** 2 * t_same
