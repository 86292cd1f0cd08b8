import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etawave import boundstates as bs
from etawave import spinors as sp
from etawave.waveop import PhysicalConstants

lengths = st.floats(0.5, 50.0)
masses = st.floats(1e4, 1e6)

# m = 0.5 MeV, L = 10 nm, hbar_c = 197 eV nm
E1_REFERENCE = 3.8302947720187685e-3


def default_well(n_max=20, length=10.0):
    return bs.WellProblem(length=length, m=0.5e6, n_max=n_max)


def test_first_level_reference_value():
    e1 = bs.level_energy(1, 10.0, 0.5e6, PhysicalConstants())
    assert e1 == pytest.approx(E1_REFERENCE, rel=1e-12)


def test_level_quadratic_scaling():
    levels = [e_n for _, e_n in bs.energy_levels(default_well(n_max=6))]
    for n in range(1, 7):
        assert levels[n - 1] / levels[0] == pytest.approx(n**2, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), lengths, masses)
def test_length_doubling_quarters_levels(n, length, m):
    c = PhysicalConstants()
    e_single = bs.level_energy(n, length, m, c)
    e_double = bs.level_energy(n, 2.0 * length, m, c)
    assert e_double == pytest.approx(e_single / 4.0, rel=1e-13)


def test_residual_vanishes_on_levels():
    w = default_well()
    for _, e_n in bs.energy_levels(w):
        assert bs.periodic_residual(e_n, w) <= 1e-10


def test_residual_midpoint_reference():
    # E_1/2 puts the phase at pi/sqrt(2): residual = 2|sin(pi/sqrt(2))|
    w = default_well()
    res = bs.periodic_residual(E1_REFERENCE / 2.0, w)
    assert res == pytest.approx(1.5913864031349623, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-6, 50.0), lengths, masses)
def test_residual_never_exceeds_two(e_energy, length, m):
    w = bs.WellProblem(length=length, m=m, n_max=1)
    assert bs.periodic_residual(e_energy, w) <= 2.0 + 1e-15


def test_residual_rejects_nonpositive_energy():
    with pytest.raises(ValueError):
        bs.periodic_residual(0.0, default_well())
    with pytest.raises(ValueError):
        bs.periodic_residual(-1.0, default_well())


def test_numeric_levels_match_analytic():
    w = default_well(n_max=20)
    analytic = bs.energy_levels(w)
    numeric = bs.find_levels_numerically(w)
    assert len(numeric) == 20
    for (n_a, e_a), (n_n, e_n) in zip(analytic, numeric):
        assert n_n == n_a
        assert e_n == pytest.approx(e_a, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), lengths, masses)
def test_numeric_level_count(n_max, length, m):
    found = bs.find_levels_numerically(bs.WellProblem(length=length, m=m, n_max=n_max))
    assert [n for n, _ in found] == list(range(1, n_max + 1))


def test_numeric_search_is_linear_in_nmax(monkeypatch):
    # the levels are evenly spaced in sqrt(E): a grid even in E that separates
    # them all needs about 4 n_max^2 points
    calls = []
    phase_sin = bs._phase_sin

    def counted(e_energy, w):
        calls.append(e_energy)
        return phase_sin(e_energy, w)

    monkeypatch.setattr(bs, "_phase_sin", counted)
    w = default_well(n_max=500)
    assert len(bs.find_levels_numerically(w)) == 500
    assert len(calls) <= 50 * w.n_max


def test_normalization_single_mode():
    length = 10.0
    ok, deviation = bs.normalization_constraint(
        [1.0 / (2.0 * np.sqrt(length)), 0.0, 0.0, 0.0], length
    )
    assert ok
    assert deviation <= 1e-14


def test_normalization_symmetric_split():
    length = 3.0
    amp = 1.0 / (4.0 * np.sqrt(length))
    ok, deviation = bs.normalization_constraint([amp, amp, amp, amp], length)
    assert ok
    assert deviation <= 1e-14


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=5.0, min_magnitude=1e-3), min_size=4, max_size=4),
    lengths,
)
def test_normalization_random_rescaled(raw, length):
    amps = np.asarray(raw, dtype=complex)
    scale = np.sqrt(1.0 / (4.0 * length) / np.sum(np.abs(amps) ** 2))
    ok, deviation = bs.normalization_constraint(scale * amps, length)
    assert ok
    assert deviation <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=4, max_size=4), lengths)
def test_normalization_phase_invariant(phases, length):
    base = np.full(4, 1.0 / (4.0 * np.sqrt(length)), dtype=complex)
    rotated = base * np.exp(1j * np.asarray(phases))
    ok_base, dev_base = bs.normalization_constraint(base, length)
    ok_rot, dev_rot = bs.normalization_constraint(rotated, length)
    assert ok_base and ok_rot
    assert dev_rot == pytest.approx(dev_base, abs=1e-12)


def test_normalization_rejects_wrong_sum():
    length = 10.0
    ok, deviation = bs.normalization_constraint(
        [1.0 / np.sqrt(length), 0.0, 0.0, 0.0], length
    )
    assert not ok
    assert deviation == pytest.approx(3.0, rel=1e-12)


def test_normalization_rejects_wrong_shape():
    with pytest.raises(ValueError):
        bs.normalization_constraint([1.0, 0.0, 0.0], 10.0)


def test_problem_validation():
    with pytest.raises(ValueError):
        bs.WellProblem(length=0.0, m=0.5e6, n_max=1)
    with pytest.raises(ValueError):
        bs.WellProblem(length=10.0, m=-1.0, n_max=1)
    with pytest.raises(ValueError):
        bs.WellProblem(length=10.0, m=0.5e6, n_max=0)
    # levels that are nan (2m overflows, L^2 underflows), underflow to 0, or
    # divide by an underflowed 2 m L^2
    for length, m in ((1e-300, 1.7e308), (1e200, 0.5e6), (1e-200, 0.5e6)):
        with pytest.raises(ValueError):
            bs.WellProblem(length=length, m=m, n_max=3)


def test_levelset_degeneracy():
    # forward/backward x up/down: that many independent modes share each E_n
    w = default_well(n_max=3)
    for _, e_n in bs.energy_levels(w):
        columns = [
            sp.mode_column(e_n, 0.0, w.m, spin, branch)
            for spin in (sp.UP, sp.DOWN)
            for branch in (True, False)
        ]
        assert np.linalg.matrix_rank(np.column_stack(columns)) == bs.DEGENERACY == 4
