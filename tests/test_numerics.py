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
def seeded_square(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return _random_complex(rng, (2, 2))


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
    # the determinant is 1e-15, not 0; the system is still within
    # PIVOT_RTOL * ||M||_inf of a singular one
    m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
    with pytest.raises(SingularSystemError):
        solve_linear(m, np.array([1.0, 2.0], dtype=complex))


def test_the_threshold_reads_the_inverse_norm():
    # M = [[e, 1], [0, 1]]: ||M^-1||_inf = max(|a22| + |a12|, |a21| + |a11|)
    # / |det| = 2 / e, so the distance e / 2 falls below the threshold
    # 1e-14 (1 + e) for e < 2e-14; the row sums of M would put it at e
    for e, singular in ((1.5e-14, True), (2.5e-14, False)):
        m = np.array([[e, 1.0], [0.0, 1.0]], dtype=complex)
        b = np.array([1.0, 1.0], dtype=complex)
        for solve in (solve_linear, reference_solve_linear):
            if singular:
                with pytest.raises(SingularSystemError, match=f"distance to singularity {e / 2:.3e} "):
                    solve(m, b)
            else:
                np.testing.assert_allclose(solve(m, b), [0.0, 1.0], atol=1e-15)


def test_solve_shape_errors():
    with pytest.raises(ValueError):
        solve_linear(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        solve_linear(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        solve_linear(np.array([[np.inf, 0], [0, 1]]), np.zeros(2))
    with pytest.raises(ValueError, match="expected 2x2 systems, got 3x3"):
        solve_linear(np.eye(3), np.zeros(3))


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
    """The LAPACK solve that the 2x2 Cramer solve replaced, as its slow
    path: an np.isfinite pass over each input, then one factorization of
    each block for x and M^-1 together, and the distance test on M^-1."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of them, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    b = np.asarray(b, dtype=complex)
    if b.ndim != m.ndim - 1:
        raise ValueError(f"expected b of ndim {m.ndim - 1}, got ndim={b.ndim}")
    if not np.isfinite(b).all():
        raise ValueError("vector entries must be finite")
    if m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    if b.shape != m.shape[:-1]:
        raise ValueError("right-hand side dimension mismatch")
    with np.errstate(over="ignore"):
        threshold = PIVOT_RTOL * norm_inf(m)
    n = m.shape[-1]
    rhs = np.broadcast_to(np.eye(n, n + 1, 1, dtype=complex), b.shape + (n + 1,)).copy()
    rhs[..., 0] = b
    try:
        sol = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"exactly singular: {exc}") from exc
    with np.errstate(over="ignore"):
        distance = 1.0 / norm_inf(sol[..., 1:])
    if not distance > threshold:
        raise SingularSystemError(
            f"distance to singularity {distance:.3e} below threshold {threshold:.3e}"
        )
    return sol[..., 0]


def _outcome(solve, m, b):
    """The solution, or the type and message of what was raised."""
    try:
        return solve(m, b)
    except ValueError as exc:
        return type(exc), str(exc)


def _inverse_norms(m):
    """||B^-1||_inf of each 2x2 block B of m from LAPACK, inf where LAPACK
    finds B singular or its inverse overflows."""
    out = []
    for block in np.asarray(m, dtype=complex).reshape(-1, 2, 2):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                inv = norm_inf(np.linalg.inv(block))
        except np.linalg.LinAlgError:
            inv = np.inf
        out.append(inv if np.isfinite(inv) else np.inf)
    return np.array(out)


def _assert_agrees_with_reference(m, b):
    """solve_linear against the LAPACK slow path: the same ValueError and
    message for bad input; the same verdict wherever the distance to
    singularity lies outside a factor 2 of the threshold; and, where both
    solve, solutions within 16 eps cond_inf of each other, block by block,
    as two backward-stable solves must be."""
    expected = _outcome(reference_solve_linear, m, b)
    got = _outcome(solve_linear, m, b)
    if isinstance(expected, tuple) and expected[0] is ValueError:
        assert got == expected
        return expected
    with np.errstate(over="ignore"):
        norm = norm_inf(m)
    inverse = _inverse_norms(m)
    distance = 1.0 / inverse.max()
    threshold = PIVOT_RTOL * norm
    if distance < 0.5 * threshold:
        assert got[0] is SingularSystemError, got
        assert expected[0] is SingularSystemError, expected
    elif distance > 2.0 * threshold:
        assert not isinstance(got, tuple), got
        assert not isinstance(expected, tuple), expected
    if isinstance(got, tuple) or isinstance(expected, tuple):
        return got
    assert got.shape == expected.shape == np.shape(b)
    blocks = np.asarray(m, dtype=complex).reshape(-1, 2, 2)
    for block, inv, x, ref in zip(blocks, inverse, got.reshape(-1, 2), expected.reshape(-1, 2)):
        if not np.isfinite(ref).all():
            continue
        cond = norm_inf(block) * inv
        assert norm_inf(x - ref) <= 16 * np.finfo(float).eps * cond * norm_inf(ref)
    return got


@st.composite
def systems(draw):
    """(M, b): a random complex 2x2 system or a stack of 2 or 3, at scales
    1e-150 ... 1e150 (each block of a stack within 1e5 of a common one),
    some with a repeated row (exactly singular), a row perturbed from a
    repeat by 1e-15 (near-singular), or an inf or nan in M or b."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    stack = draw(st.sampled_from([(), (2,), (3,)]))
    k = int(np.prod(stack, dtype=int))
    scales = 10.0 ** (draw(st.integers(-150, 150)) + rng.integers(-5, 6, size=k))
    m = (_random_complex(rng, (k, 2, 2)) * scales[:, None, None]).reshape(stack + (2, 2))
    b = _random_complex(rng, stack + (2,)) * 10.0 ** draw(st.integers(-150, 150))
    kind = draw(st.sampled_from(["plain", "singular", "near", "bad m", "bad b"]))
    flat_m, flat_b = m.reshape(-1, 2, 2), b.reshape(-1, 2)
    i = rng.integers(k)
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf)]))
    if kind in ("singular", "near"):
        flat_m[i, 1] = flat_m[i, 0] * (1.0 + (1e-15 if kind == "near" else 0.0))
    elif kind == "bad m":
        flat_m[i, rng.integers(2), rng.integers(2)] = bad
    elif kind == "bad b":
        flat_b[i, rng.integers(2)] = bad
    return m, b


@settings(max_examples=400, deadline=None)
@given(systems())
def test_solve_matches_reference_implementation(system):
    _assert_agrees_with_reference(*system)


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
            kind, message = _assert_agrees_with_reference(mm, bb)
            assert kind is ValueError
            assert message == ("matrix" if where == "m" else "vector") + " entries must be finite"


def test_solve_rejects_ill_shaped_input_like_the_reference():
    m = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    for mm, bb in (
        (np.ones(2), np.ones(2)),
        (m, np.ones((2, 2))),
        (m, np.ones(3)),
        (np.ones((2, 3)), np.ones(2)),
        (np.array([m] * 3), np.ones((2, 2))),
    ):
        kind, _ = _assert_agrees_with_reference(mm, bb)
        assert kind is ValueError


def test_solve_finite_matrix_whose_norm_overflows_is_singular():
    # every entry is finite, but the row sums overflow: the norm is inf and
    # the threshold with it, so the system is singular, not a ValueError
    m = np.array([[1e308, 1e308], [1e308, -1e308]], dtype=complex)
    b = np.array([1.0, 2.0], dtype=complex)
    with np.errstate(over="ignore"):
        assert norm_inf(m) == np.inf
        for solve in (solve_linear, reference_solve_linear):
            kind, message = _outcome(solve, m, b)
            assert kind is SingularSystemError
            assert message.endswith("below threshold inf")


def test_solve_singular_systems_like_the_reference():
    exactly = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
    for m in (exactly, near, np.zeros((2, 2), dtype=complex)):
        kind, _ = _assert_agrees_with_reference(m, np.ones(len(m), dtype=complex))
        assert kind is SingularSystemError


# ------------------------------------------------ stacks of systems


@st.composite
def stacks(draw):
    """(M, b): a stack of 1 to 3 random complex 2x2 systems at a common
    scale within 1e-100 ... 1e100 and each within 1e5 of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    k, n = draw(st.integers(1, 3)), 2
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
