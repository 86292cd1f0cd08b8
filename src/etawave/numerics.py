"""Small dense complex linear algebra used by the matching solvers.

Everything here operates on plain numpy arrays (complex128 for matrices and
vectors, float64 for the real least-squares path).  Systems are tiny (4x4 and
8x8 for the interface matching, 64x32 for the representation fit); numpy's
LAPACK routines do the factorizations, and this module adds the finite-input
checks and the singularity threshold the matching solvers rely on.
"""

from __future__ import annotations

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


def _as_vector(b):
    v = np.asarray(b, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={v.ndim}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def norm_inf(m):
    """Max absolute row sum for matrices, max modulus for vectors."""
    a = np.asarray(m)
    if not a.size:
        return 0.0
    if a.ndim == 1:
        return float(np.abs(a).max())
    return float(np.abs(a).sum(axis=1).max())


def adjoint(a):
    """Conjugate transpose."""
    return _as_matrix(a).conj().T


def solve_linear(m, b):
    """Solve M x = b.

    Raises SingularSystemError when M lies within PIVOT_RTOL * ||M||_inf of
    a singular matrix, i.e. when 1 / ||M^-1||_inf <= PIVOT_RTOL * ||M||_inf.
    """
    m = _as_matrix(m)
    b = _as_vector(b)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if b.shape[0] != n:
        raise ValueError("right-hand side dimension mismatch")
    threshold = PIVOT_RTOL * norm_inf(m)
    # [b | I]: one factorization gives both x and M^-1 for the distance test
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
