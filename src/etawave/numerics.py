"""Small dense complex linear algebra used by the matching solvers.

Everything here operates on plain numpy arrays (complex128 for matrices and
vectors, float64 for the real least-squares path).  Systems are tiny (4x4 and
8x8 for the interface matching, 64x32 for the representation fit); numpy's
LAPACK routines do the factorizations, and this module adds the finite-input
checks and the singularity threshold the matching solvers rely on.
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


@functools.lru_cache(maxsize=None)
def _zero_and_identity(n: int) -> np.ndarray:
    """The read-only n x (n + 1) right-hand side [0 | I]; copy it to write."""
    rhs = np.eye(n, n + 1, 1, dtype=complex)
    rhs.flags.writeable = False
    return rhs


def solve_linear(m, b):
    """Solve M x = b.

    Raises SingularSystemError when M lies within PIVOT_RTOL * ||M||_inf of
    a singular matrix, i.e. when 1 / ||M^-1||_inf <= PIVOT_RTOL * ||M||_inf,
    and ValueError for a non-finite M or b.  A finite M whose inf-norm
    overflows is singular to within that threshold.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    # a nan or inf entry makes the norm nan or inf: only then look entry by
    # entry, to tell it from a finite matrix whose row sum overflows
    norm = norm_inf(m)
    if not norm < math.inf and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    b = np.asarray(b, dtype=complex)
    if b.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={b.ndim}")
    if not all(map(cmath.isfinite, b.tolist())):
        raise ValueError("vector entries must be finite")
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("matrix must be square")
    if b.shape[0] != n:
        raise ValueError("right-hand side dimension mismatch")
    threshold = PIVOT_RTOL * norm
    # [b | I]: one factorization gives both x and M^-1 for the distance test
    rhs = _zero_and_identity(n).copy()
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
