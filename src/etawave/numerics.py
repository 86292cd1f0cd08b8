"""Small dense linear algebra for the barrier matching and the representation fit.

Everything here operates on plain numpy arrays (complex128 for matrices and
vectors, float64 for the real least-squares path).  Systems are tiny (a stack
of two 4x4 channel systems for the barrier's interface matching, 64x32 for
the representation fit); numpy's LAPACK routines do the factorizations, and
this module adds the finite-input checks and the singularity threshold the
matching solve relies on.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings

import numpy as np

# singularity threshold relative to the matrix inf-norm
PIVOT_RTOL = 1e-14


class SingularSystemError(ValueError):
    """The system is singular to within PIVOT_RTOL of its inf-norm."""


class RankDeficiencyWarning(UserWarning):
    pass


def _as_matrix(m):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def norm_inf(m):
    """Max absolute row sum for matrices (over a whole stack of them: the
    norm of their block-diagonal matrix), max modulus for vectors."""
    a = np.asarray(m)
    if not a.size:
        return 0.0
    if a.ndim == 1:
        return float(np.abs(a).max())
    return float(np.abs(a).sum(axis=-1).max())


def adjoint(a):
    """Conjugate transpose."""
    return _as_matrix(a).conj().T


@functools.lru_cache(maxsize=None)
def _zero_and_identity(shape: tuple) -> np.ndarray:
    """The read-only [0 | I] of shape (..., n, n + 1) for shape = (..., n);
    copy it to write."""
    n = shape[-1]
    rhs = np.broadcast_to(np.eye(n, n + 1, 1, dtype=complex), shape + (n + 1,)).copy()
    rhs.flags.writeable = False
    return rhs


def solve_linear(m, b):
    """Solve M x = b, or a stack of systems: M (..., n, n), b (..., n).

    Raises SingularSystemError when M (a stack: its block-diagonal matrix)
    lies within PIVOT_RTOL * ||M||_inf of a singular matrix, i.e. when
    1 / ||M^-1||_inf <= PIVOT_RTOL * ||M||_inf, and ValueError for a
    non-finite M or b.  A finite M whose inf-norm overflows is singular to
    within that threshold.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of them, got ndim={m.ndim}")
    # a nan or inf entry makes the norm nan or inf: only then look entry by
    # entry, to tell it from a finite matrix whose row sum overflows
    norm = norm_inf(m)
    if not norm < math.inf and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    b = np.asarray(b, dtype=complex)
    if b.ndim != m.ndim - 1:
        raise ValueError(f"expected b of ndim {m.ndim - 1}, got ndim={b.ndim}")
    if not all(map(cmath.isfinite, b.ravel().tolist())):
        raise ValueError("vector entries must be finite")
    if m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    if b.shape != m.shape[:-1]:
        raise ValueError("right-hand side dimension mismatch")
    threshold = PIVOT_RTOL * norm
    # [b | I]: one factorization gives both x and M^-1 for the distance test
    rhs = _zero_and_identity(b.shape).copy()
    rhs[..., 0] = b
    try:
        sol = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"exactly singular: {exc}") from exc
    distance = 1.0 / norm_inf(sol[..., 1:])
    if not distance > threshold:
        raise SingularSystemError(
            f"distance to singularity {distance:.3e} below threshold {threshold:.3e}"
        )
    return sol[..., 0]


def least_squares(m, b):
    """Minimize ||M x - b||_2 for real M (rows >= cols).

    Rank deficiency is reported through RankDeficiencyWarning and the
    minimal-norm solution is returned.
    """
    m = np.asarray(m, dtype=float)
    b = np.asarray(b, dtype=float)
    if m.ndim != 2 or b.ndim != 1:
        raise ValueError("expected a matrix and a vector")
    if m.shape[0] < m.shape[1]:
        raise ValueError(f"underdetermined system: {m.shape[0]} rows < {m.shape[1]} cols")
    x, _, rank, _ = np.linalg.lstsq(m, b, rcond=None)
    if rank < m.shape[1]:
        warnings.warn(
            f"rank-deficient least-squares system (rank {rank} < {m.shape[1]}); "
            "minimal-norm solution returned",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return x
