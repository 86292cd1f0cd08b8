import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etawave.numerics import (
    PIVOT_RTOL,
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


# ------------------------------------ solve_linear against its slow path


def reference_solve_linear(m, b):
    """solve_linear as it was before it read finiteness from the norm: an
    np.isfinite pass over each input and a fresh [b | I]."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    b = np.asarray(b, dtype=complex)
    if b.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={b.ndim}")
    if not np.isfinite(b).all():
        raise ValueError("vector entries must be finite")
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if b.shape[0] != n:
        raise ValueError("right-hand side dimension mismatch")
    threshold = PIVOT_RTOL * norm_inf(m)
    rhs = np.eye(n, n + 1, 1, dtype=complex)
    rhs[:, 0] = b
    try:
        sol = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"exactly singular: {exc}") from exc
    distance = 1.0 / norm_inf(sol[:, 1:])
    if not distance > threshold:
        raise SingularSystemError(
            f"distance to singularity {distance:.3e} below threshold {threshold:.3e}"
        )
    return sol[:, 0]


def _outcome(solve, m, b):
    """The solution's bytes, or the type and message of what was raised."""
    try:
        return solve(m, b).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(m, b):
    expected = _outcome(reference_solve_linear, m, b)
    assert _outcome(solve_linear, m, b) == expected
    return expected


@st.composite
def systems(draw):
    """(M, b): random complex systems of n <= 8 at scales 1e-150 ... 1e150,
    some with a repeated row (exactly singular), a row perturbed from a
    repeat by 1e-15 (near-singular), or an inf or nan in M or b."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 8))
    m = _random_complex(rng, (n, n)) * 10.0 ** draw(st.integers(-150, 150))
    b = _random_complex(rng, n) * 10.0 ** draw(st.integers(-150, 150))
    kind = draw(st.sampled_from(["plain", "singular", "near", "bad m", "bad b"]))
    i, j = rng.integers(n, size=2)
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf)]))
    if kind in ("singular", "near") and n > 1:
        m[-1] = m[0] * (1.0 + (1e-15 if kind == "near" else 0.0))
    elif kind == "bad m":
        m[i, j] = bad
    elif kind == "bad b":
        b[i] = bad
    return m, b


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_matches_reference_implementation(system):
    _assert_same_outcome(*system)


def test_solve_rejects_non_finite_input_like_the_reference():
    m = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    b = np.array([5.0, 10.0], dtype=complex)
    for bad in (np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, np.inf)):
        for where in ("m", "b"):
            mm, bb = m.copy(), b.copy()
            if where == "m":
                mm[1, 0] = bad
            else:
                bb[1] = bad
            kind, message = _assert_same_outcome(mm, bb)
            assert kind is ValueError
            assert message == ("matrix" if where == "m" else "vector") + " entries must be finite"


def test_solve_finite_matrix_whose_norm_overflows_is_singular():
    # every entry is finite, but the row sums overflow: the norm is inf and
    # the threshold with it, so the system is singular, not a ValueError
    m = np.array([[1e308, 1e308], [1e308, -1e308]], dtype=complex)
    b = np.array([1.0, 2.0], dtype=complex)
    with np.errstate(over="ignore"):
        assert norm_inf(m) == np.inf
        kind, message = _assert_same_outcome(m, b)
    assert kind is SingularSystemError
    assert message.endswith("below threshold inf")


def test_solve_singular_systems_like_the_reference():
    exactly = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
    for m in (exactly, near, np.zeros((3, 3), dtype=complex)):
        kind, _ = _assert_same_outcome(m, np.ones(len(m), dtype=complex))
        assert kind is SingularSystemError


# ------------------------------------------------ stacks of systems


@st.composite
def stacks(draw):
    """(M, b): a stack of 1 to 3 random complex n x n systems, n <= 8, at a
    common scale within 1e-100 ... 1e100 and each within 1e5 of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    scales = 10.0 ** (draw(st.integers(-100, 100)) + rng.integers(-5, 6, size=k))
    m = _random_complex(rng, (k, n, n)) * scales[:, None, None]
    b = _random_complex(rng, (k, n)) * 10.0 ** rng.integers(-50, 51, size=(k, 1))
    return m, b


@settings(max_examples=200, deadline=None)
@given(stacks())
def test_a_stack_solves_bitwise_like_each_block_alone(system):
    m, b = system
    try:
        x = solve_linear(m, b)
    except SingularSystemError:
        # the stack's threshold is its largest block's: some block is that
        # close to singular, or the blocks' scales are PIVOT_RTOL apart
        return
    assert x.shape == b.shape
    for block, rhs, got in zip(m, b, x):
        assert got.tobytes() == solve_linear(block, rhs).tobytes()


def test_a_near_singular_block_makes_the_stack_singular():
    good = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
    for blocks in ((good, near), (near, good)):
        with pytest.raises(SingularSystemError):
            solve_linear(np.array(blocks), np.ones((2, 2), dtype=complex))


def test_a_non_finite_entry_in_any_block_is_rejected():
    m = np.array([[[2.0, 1.0], [1.0, 3.0]]] * 3, dtype=complex)
    b = np.ones((3, 2), dtype=complex)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        for k in range(3):
            mm, bb = m.copy(), b.copy()
            mm[k, 1, 0] = bad
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                solve_linear(mm, b)
            bb[k, 1] = bad
            with pytest.raises(ValueError, match="vector entries must be finite"):
                solve_linear(m, bb)


def test_a_right_hand_side_of_the_wrong_shape_is_rejected():
    m = np.array([np.eye(2)] * 3, dtype=complex)
    for b in (np.ones(2), np.ones((2, 2)), np.ones((3, 3)), np.ones((3, 2, 1))):
        with pytest.raises(ValueError):
            solve_linear(m, b)
    with pytest.raises(ValueError, match="square"):
        solve_linear(np.ones((3, 2, 3)), np.ones((3, 2)))
