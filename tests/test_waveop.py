import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from etawave.clifford import build_eta, build_standard_gammas, max_abs
from etawave.numerics import norm_inf
from etawave.waveop import (
    CRITICAL,
    EVANESCENT,
    PROPAGATING,
    PhysicalConstants,
    classify_regime,
    complex_momentum,
    critical_band_width,
    general_a_check,
    momentum_operator,
    nonrel_limit_residual,
)

ETA = build_eta(build_standard_gammas())

energies = st.floats(0.1, 1e6)
potentials = st.floats(0.0, 1e6)
masses = st.floats(1.0, 1e6)


def test_constants_defaults_and_validation():
    assert PhysicalConstants().hbar_c == 197.0
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            PhysicalConstants(hbar_c=bad)


def test_regime_classification_band_edges():
    e_energy, v = 10.0, 10.0 + 2e-8
    assert classify_regime(e_energy, v) == EVANESCENT
    width = critical_band_width(e_energy, v)
    assert width == pytest.approx(1e-9 * v)
    assert classify_regime(v - 0.5 * width, v) == CRITICAL
    assert classify_regime(v - 2.0 * width, v) == EVANESCENT
    assert classify_regime(v + 2.0 * width, v) == PROPAGATING
    assert classify_regime(10.0, 10.0) == CRITICAL


@settings(max_examples=200, deadline=None)
@given(energies, potentials, masses)
def test_squared_operator_is_scalar(e_energy, v, m):
    op = momentum_operator(e_energy, v, m, ETA)
    target = 2.0 * m * (e_energy - v) * np.eye(4)
    dev = max_abs(op @ op - target)
    # rounding scale is the largest term entering the square, not the result
    scale = max(abs(2.0 * m * (e_energy - v)), (e_energy - v) ** 2, m * m)
    assert dev <= 1e-12 * scale


def test_operator_matrix_composition():
    op = momentum_operator(3.0, 1.0, 1.5, ETA)
    expected = (3.0 - 1.0) * ETA + 1.5 * ETA.conj().T
    assert max_abs(op - expected) == 0.0


def test_degenerate_point_nilpotent():
    # E = V leaves only the m eta^+ term; all eigenvalues collapse to zero
    op = momentum_operator(5.0, 5.0, 2.0, ETA)
    assert max_abs(op @ op) == 0.0


@pytest.mark.parametrize("e_energy,v,m", [(3.0, 0.0, 1.5), (2.0, 5.0, 1.3), (40.0, 11.0, 7.0)])
def test_eigenvalue_degeneracy_is_double(e_energy, v, m):
    op = momentum_operator(e_energy, v, m, ETA)
    lam = complex_momentum(e_energy, v, m)
    for eigenvalue in (lam, -lam):
        a = op - eigenvalue * np.eye(4)
        assert np.linalg.matrix_rank(a, tol=1e-10 * norm_inf(a)) == 2


def test_complex_momentum_branches():
    p = complex_momentum(3.0, 1.0, 2.0)
    assert p.imag == 0.0 and p.real == pytest.approx(np.sqrt(2 * 2.0 * 2.0))
    p = complex_momentum(1.0, 3.0, 2.0)
    assert p.real == 0.0 and p.imag == pytest.approx(np.sqrt(2 * 2.0 * 2.0))
    assert complex_momentum(1.0, 1.0, 2.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(-3, 3), st.booleans(), energies, masses)
def test_a_independence(log_a, negate, e_energy, m):
    a = 10.0**log_a * (-1.0 if negate else 1.0)
    dev = general_a_check(a, e_energy, m)
    scale = max((e_energy / a) ** 2, (a * m) ** 2, 2.0 * m * e_energy)
    assert dev <= 1e-12 * scale


def test_a_independence_reference_point():
    e_energy, m = 3.0, 1.5
    for a in np.concatenate([np.logspace(-3, 3, 13), -np.logspace(-3, 3, 13)]):
        dev = general_a_check(float(a), e_energy, m)
        scale = max((e_energy / a) ** 2, (a * m) ** 2, 2.0 * m * e_energy)
        assert dev <= 1e-12 * scale, a


def test_a_zero_rejected():
    with pytest.raises(ValueError):
        general_a_check(0.0, 1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-8, 1.0), st.floats(0.5, 1e6))
def test_nonrel_residual_envelope(ratio, m):
    # relative momentum deviation stays below E'/2m all the way to E' = m
    e_kinetic = ratio * m
    res = nonrel_limit_residual(e_kinetic, m)
    assert 0.0 <= res <= e_kinetic / (2.0 * m)


def test_nonrel_residual_smallness():
    assert nonrel_limit_residual(1.0, 0.5e6) == pytest.approx(1.0 / (4 * 0.5e6), rel=1e-3)
