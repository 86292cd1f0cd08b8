"""The component columns, their eigenmode property, and the reconstruction
check that validates the normalization convention instead of assuming it."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from etawave import spinors as sp
from etawave.clifford import max_abs
from etawave.waveop import complex_momentum


def four_modes(e_energy, v, m):
    """(column, positive_branch) of the four modes of one region."""
    return [
        (sp.mode_column(e_energy, v, m, spin, branch), branch)
        for spin in (sp.UP, sp.DOWN)
        for branch in (True, False)
    ]


def test_zero_potential_components():
    e_energy, m = 3.0, 1.5
    p = np.sqrt(2 * m * e_energy)
    alpha = 1.0 / (e_energy + m)
    col = sp.mode_column(e_energy, 0.0, m, sp.UP, True)
    np.testing.assert_allclose(
        col,
        [1.0, 0.0, 1j * alpha * (e_energy - m), -np.sqrt(2) * alpha * p],
        atol=1e-15,
    )


def test_evanescent_component_pattern():
    # build the columns from the rho = 1/(V0 - E - m) form and compare
    e_energy, v0, m = 2.0, 5.0, 1.3
    rho = 1.0 / (v0 - e_energy - m)
    p_prime = np.sqrt(2 * m * (v0 - e_energy))
    decaying_up = sp.mode_column(e_energy, v0, m, sp.UP, True)
    np.testing.assert_allclose(
        decaying_up,
        [1.0, 0.0, 1j * rho * (v0 - e_energy + m), np.sqrt(2) * 1j * rho * p_prime],
        atol=1e-14,
    )
    growing_down = sp.mode_column(e_energy, v0, m, sp.DOWN, False)
    np.testing.assert_allclose(
        growing_down,
        [0.0, 1.0, np.sqrt(2) * 1j * rho * p_prime, -1j * rho * (v0 - e_energy + m)],
        atol=1e-14,
    )


def test_convention_singularity_guard():
    with pytest.raises(sp.ConventionSingularityError):
        # E - V + m on top of its pole
        sp.mode_column(1.0, 2.0 + 1e-9, 1.0, sp.UP, True)


def test_mode_eigenvalue_signs():
    e_energy, v, m = 3.0, 0.0, 1.5
    p = complex_momentum(e_energy, v, m)
    assert sp.mode_eigenvalue(e_energy, v, m, True) == p
    assert sp.mode_eigenvalue(e_energy, v, m, False) == -p
    # below the potential the +p branch decays: p = +i kappa
    assert sp.mode_eigenvalue(2.0, 5.0, m, True).imag > 0


def test_reference_matrix_algebra():
    eta = sp.eta_1d_reference()
    assert max_abs(eta @ eta) == 0.0
    assert max_abs(eta @ eta.conj().T + eta.conj().T @ eta - 2 * np.eye(4)) <= 1e-14


@settings(max_examples=150, deadline=None)
@given(st.floats(0.3, 50.0), st.floats(0.0, 80.0), st.floats(0.4, 20.0))
def test_modes_are_eigenvectors(e_energy, v, m):
    assume(abs(e_energy - v) > 1e-3)
    assume(abs(abs(e_energy - v) - m) > 1e-3 * m)
    eta1d = sp.eta_1d_reference()
    for u, branch in four_modes(e_energy, v, m):
        dev = sp.eigen_consistency(e_energy, v, m, u, branch, eta1d)
        assert dev <= 1e-10 * max(e_energy, m)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.3, 50.0), st.floats(0.0, 80.0), st.floats(0.4, 20.0))
def test_four_modes_independent(e_energy, v, m):
    assume(abs(e_energy - v) > 1e-2 * max(e_energy, v, 1.0))
    assume(abs(abs(e_energy - v) - m) > 1e-3 * m)
    columns = np.column_stack([u for u, _ in four_modes(e_energy, v, m)])
    assert abs(np.linalg.det(columns)) > 1e-10


def test_currents():
    fwd = sp.mode_column(3.0, 0.0, 1.3, sp.UP, True)
    bwd = sp.mode_column(3.0, 0.0, 1.3, sp.UP, False)
    assert sp.mode_current(fwd) > 0
    assert sp.mode_current(bwd) == pytest.approx(-sp.mode_current(fwd), rel=1e-13)
    for branch in (True, False):
        ev = sp.mode_column(2.0, 5.0, 1.3, sp.UP, branch)
        assert sp.mode_current(ev) == pytest.approx(0.0, abs=1e-14)


def test_current_metric_intertwines():
    g = sp.current_metric()
    eta = sp.eta_1d_reference()
    assert max_abs(g @ eta - eta.conj().T @ g) <= 1e-15


def test_reconstruction_matches_reference():
    samples = sp.convention_samples((1.0, 2.5, 7.0), 1.0)
    eta, residual = sp.reconstruct_eta_1d(samples)
    assert residual <= 1e-12
    assert max_abs(eta - sp.eta_1d_reference()) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 100.0))
def test_reconstruction_scale_invariant(scale):
    # the convention is dimensionless: scaling E and m together changes nothing
    energies = tuple(scale * e for e in (1.0, 2.5, 7.0))
    eta, residual = sp.reconstruct_eta_1d(sp.convention_samples(energies, scale * 1.0))
    assert residual <= 1e-8
    assert max_abs(eta - sp.eta_1d_reference()) <= 1e-8


def test_single_sample_rejected():
    samples = sp.convention_samples((2.0,), 1.0)
    with pytest.raises(ValueError, match="single sample"):
        sp.reconstruct_eta_1d(samples)


def test_inconsistent_convention_reported():
    samples = sp.convention_samples((1.3, 2.6, 7.0), 1.0, variant="alpha_em")
    with pytest.raises(sp.ConventionInconsistencyError, match="residual"):
        sp.reconstruct_eta_1d(samples)


def test_try_conventions_separates_hypotheses():
    out = sp.try_conventions(1.0)
    assert out["adopted"] <= 1e-12
    assert out["alpha_em"] > 1e-2
    # the adopted columns with the sign of d flipped in both spin-down modes
    samples = sp.convention_samples((1.3, 2.6, 7.0), 1.0)
    for _, _, modes in samples:
        for u, _ in modes:
            if u[1] == 1.0:  # spin down: (0, 1, +-d, -c)
                u[2] = -u[2]
    with pytest.raises(sp.ConventionInconsistencyError, match="residual"):
        sp.reconstruct_eta_1d(samples)


def test_try_conventions_singularity_is_inf():
    # m = 1.3 = E of the first sample puts the alpha_em denominator at zero
    # for V = 0; the adopted columns have no such point
    out = sp.try_conventions(1.3)
    assert out["alpha_em"] == np.inf
    assert math.isfinite(out["adopted"])
