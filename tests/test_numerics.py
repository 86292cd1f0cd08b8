import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etawave.numerics import (
    RankDeficiencyWarning,
    SingularSystemError,
    adjoint,
    least_squares,
    norm_inf,
    solve_linear,
)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def seeded_square(draw, nmax=8):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(2, nmax))
    rng = np.random.default_rng(seed)
    return _random_complex(rng, (n, n))


def test_solve_known_system():
    m = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    x = solve_linear(m, np.array([5.0, 10.0], dtype=complex))
    np.testing.assert_allclose(x, [1.0, 3.0], atol=1e-14)


@settings(max_examples=150, deadline=None)
@given(seeded_square())
def test_solve_residual_scaled(m):
    if np.linalg.cond(m) > 1e6:
        return
    rng = np.random.default_rng(int(abs(m[0, 0].real * 1e6)) % 2**31)
    b = _random_complex(rng, m.shape[0])
    x = solve_linear(m, b)
    residual = norm_inf(m @ x - b)
    assert residual <= 1e-12 * (norm_inf(m) * norm_inf(x) + norm_inf(b))


def test_solve_singular_raises():
    m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularSystemError):
        solve_linear(m, np.array([1.0, 1.0], dtype=complex))


def test_solve_near_singular_raises():
    # LAPACK factorizes this without a zero pivot; the system is still
    # within PIVOT_RTOL * ||M||_inf of a singular one
    m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
    with pytest.raises(SingularSystemError):
        solve_linear(m, np.array([1.0, 2.0], dtype=complex))


def test_solve_shape_errors():
    with pytest.raises(ValueError):
        solve_linear(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        solve_linear(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        solve_linear(np.array([[np.inf, 0], [0, 1]]), np.zeros(2))


@settings(max_examples=75, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_adjoint_involution_and_product(seed):
    rng = np.random.default_rng(seed)
    a = _random_complex(rng, (4, 4))
    b = _random_complex(rng, (4, 4))
    np.testing.assert_array_equal(adjoint(adjoint(a)), a)
    dev = np.max(np.abs(adjoint(a @ b) - adjoint(b) @ adjoint(a)))
    assert dev <= 1e-13 * norm_inf(a) * norm_inf(b)


def test_least_squares_consistent():
    m = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x_true = np.array([2.0, -1.0])
    x = least_squares(m, m @ x_true)
    np.testing.assert_allclose(x, x_true, atol=1e-12)


def test_least_squares_rank_deficient_warns():
    m = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.warns(RankDeficiencyWarning):
        x = least_squares(m, np.array([2.0, 4.0, 6.0]))
    # minimal-norm solution splits the weight evenly
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-10)


def test_least_squares_underdetermined_rejected():
    with pytest.raises(ValueError):
        least_squares(np.ones((2, 3)), np.ones(2))
