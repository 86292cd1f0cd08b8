"""Small dense linear algebra for the barrier matching and the representation fit.

Everything here operates on plain numpy arrays (complex128 for matrices and
vectors, float64 for the real least-squares path).  Systems are tiny: a stack
of two 2x2 channel systems for the barrier's interface matching, which
solve_linear solves by Cramer's rule in Python complex arithmetic, and 64x32
for the representation fit, which numpy's LAPACK least squares solves.  This
module adds the finite-input checks and the singularity threshold the
matching solve relies on.
"""

from __future__ import annotations

import cmath
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


def _solve_2x2(a11, a12, a21, a22, y1, y2, norm):
    """(x1, x2) of one 2x2 block by Cramer's rule, or its distance to
    singularity 1/||M^-1||_inf where that is within PIVOT_RTOL * norm.

    The rows and y are scaled by 2^-k, k the exponent of the larger row sum
    (at least -1023, so that 2^-k is a float): no product of two entries
    overflows.  cond_inf(M) is at least the ratio of the row sums, so a
    block that passes the test has them within 1 / PIVOT_RTOL of each other,
    and a product underflows only where it is negligible against the
    determinant.  A product with y leaves the float range only where
    |y| / ||M||_inf leaves [2^-1020, 2^1020], and x with it.  The caller
    checks that the stack's inf-norm is finite, so no abs() overflows.
    """
    u11, u12, u21, u22 = abs(a11), abs(a12), abs(a21), abs(a22)
    k = max(math.frexp(max(u11 + u12, u21 + u22))[1], -1023)
    f = 2.0**-k
    a11, a12, a21, a22, y1, y2 = a11 * f, a12 * f, a21 * f, a22 * f, y1 * f, y2 * f
    det = a11 * a22 - a12 * a21
    # ||M^-1||_inf = max(|a22| + |a12|, |a21| + |a11|) / |det M|, compared
    # scaled by 2^-k: the threshold never underflows, and it overflows to
    # inf only for a block 2^1000 below the stack's norm
    s = max(u22 + u12, u21 + u11) * f
    if not abs(det) > PIVOT_RTOL * (norm * f) * s:
        # ldexp: 2^k may be beyond the float range
        return math.ldexp(abs(det) / s, k) if det else 0.0
    return (a22 * y1 - a12 * y2) / det, (a11 * y2 - a21 * y1) / det


def solve_linear(m, b):
    """Solve the 2x2 system M x = b, or a stack of them: M (..., 2, 2),
    b (..., 2), by Cramer's rule on rows scaled by powers of two.

    Raises SingularSystemError when M (a stack: its block-diagonal matrix)
    lies within PIVOT_RTOL * ||M||_inf of a singular matrix, i.e. when
    1 / ||M^-1||_inf <= PIVOT_RTOL * ||M||_inf, with
    ||A^-1||_inf = max(|a22| + |a12|, |a21| + |a11|) / |det A| for each
    block, and ValueError for a non-finite or ill-shaped M or b.  A finite
    M whose inf-norm overflows is singular to within that threshold.  Each
    block is solved alone, so a stack's solution equals its blocks'
    solutions bit for bit.
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
    ys = b.ravel().tolist()
    if not all(map(cmath.isfinite, ys)):
        raise ValueError("vector entries must be finite")
    *stack, rows, cols = m.shape
    if rows != cols:
        raise ValueError("matrix must be square")
    if rows != 2:
        raise ValueError(f"expected 2x2 systems, got {rows}x{cols}")
    if b.shape != (*stack, rows):
        raise ValueError("right-hand side dimension mismatch")
    if not norm < math.inf:
        # finite entries whose row sum overflows, as abs() of one may
        raise SingularSystemError("the inf-norm overflows: singular below threshold inf")
    x = []
    pairs = iter(ys)
    for block in m.reshape(-1, 4).tolist():
        sol = _solve_2x2(*block, next(pairs), next(pairs), norm)
        if not isinstance(sol, tuple):
            raise SingularSystemError(
                f"distance to singularity {sol:.3e} below threshold {PIVOT_RTOL * norm:.3e}"
            )
        x += sol
    return np.array(x, dtype=complex).reshape(b.shape)


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
