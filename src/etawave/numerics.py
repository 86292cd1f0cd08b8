"""Small dense linear algebra for the barrier matching and the representation fit.

Systems are tiny: a stack of two 2x2 channel systems for the barrier's
interface matching, which solve_linear takes and returns as lists of Python
numbers and solves by Cramer's rule in Python complex arithmetic, and 64x32
for the representation fit, which numpy's LAPACK least squares solves on
float64 arrays.  This module adds the finite-input checks and the
singularity threshold the matching solve relies on, and the inf-norm that
threshold reads, on Python sequences or on arrays.
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
    norm of their block-diagonal matrix), max modulus for vectors.

    m is given as Python sequences: a vector, rows, or a stack of blocks of
    rows; an array is read through tolist().  A nan anywhere gives nan, as
    numpy's reduction does (Python's max passes over one that is not first),
    and a finite entry whose modulus overflows counts as inf, where abs()
    raises OverflowError.  A modulus may differ from numpy's complex abs in
    its last two bits: abs() takes the C library's hypot, which rounds more
    closely.
    """
    rows = m.tolist() if hasattr(m, "tolist") else m
    if not rows:
        return 0.0
    if not isinstance(rows[0], (list, tuple)):
        # a vector: each entry is a row of its own
        rows = [[x] for x in rows]
    while rows[0] and isinstance(rows[0][0], (list, tuple)):
        rows = [row for block in rows for row in block]
    try:
        # rows of two, as the channel solve's are
        sums = [abs(a) + abs(b) for a, b in rows]
    except (ValueError, OverflowError):
        sums = [sum(map(_modulus, row)) for row in rows]
    # the sums are of moduli: only a nan makes their total nan
    total = sum(sums)
    return float(max(sums)) if total == total else math.nan


def _modulus(x):
    """abs(x), or inf where it is beyond the float range."""
    try:
        return abs(x)
    except OverflowError:
        # CPython raises it for a nan part too where an earlier abs() left
        # errno at ERANGE
        return math.nan if cmath.isnan(x) else math.inf


def adjoint(a):
    """Conjugate transpose."""
    return _as_matrix(a).conj().T


def _solve_2x2(a11, a12, a21, a22, y1, y2, norm):
    """[x1, x2] of one 2x2 block by Cramer's rule, or its distance to
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
    return [(a22 * y1 - a12 * y2) / det, (a11 * y2 - a21 * y1) / det]


def solve_linear(m, b):
    """Solve a stack of 2x2 systems M x = b by Cramer's rule on rows scaled
    by powers of two: m a list of blocks [[a11, a12], [a21, a22]] and b a
    list of [y1, y2], Python numbers; returns the list of [x1, x2].

    Raises SingularSystemError when the stack's block-diagonal matrix M
    lies within PIVOT_RTOL * ||M||_inf of a singular matrix, i.e. when
    1 / ||M^-1||_inf <= PIVOT_RTOL * ||M||_inf, with
    ||A^-1||_inf = max(|a22| + |a12|, |a21| + |a11|) / |det A| for each
    block, and ValueError for a non-finite entry, a block that is not 2x2 or
    a right-hand side that is not a pair.  A finite M whose inf-norm
    overflows is singular to within that threshold.  Each block is solved
    alone, so a stack's solution equals its blocks' solutions bit for bit.
    """
    try:
        systems = [
            (a11, a12, a21, a22, y1, y2)
            for ((a11, a12), (a21, a22)), (y1, y2) in zip(m, b, strict=True)
        ]
        # a right-hand side entry that is no number is a fault of the form too
        finite_b = all([cmath.isfinite(s[4]) and cmath.isfinite(s[5]) for s in systems])
    except (TypeError, ValueError):
        raise ValueError(_stack_fault(m, b)) from None
    # a nan or inf entry makes the norm nan or inf: only then look entry by
    # entry, to tell it from a finite matrix whose row sum overflows
    norm = norm_inf(m)
    if not norm < math.inf and not all(cmath.isfinite(a) for s in systems for a in s[:4]):
        raise ValueError("matrix entries must be finite")
    if not finite_b:
        raise ValueError("vector entries must be finite")
    if not norm < math.inf:
        # finite entries whose row sum overflows, as abs() of one may
        raise SingularSystemError("the inf-norm overflows: singular below threshold inf")
    x = []
    for system in systems:
        sol = _solve_2x2(*system, norm)
        if not isinstance(sol, list):
            raise SingularSystemError(
                f"distance to singularity {sol:.3e} below threshold {PIVOT_RTOL * norm:.3e}"
            )
        x.append(sol)
    return x


def _stack_fault(m, b):
    """What keeps m and b from being a list of 2x2 blocks and a list of as
    many pairs: the message of solve_linear's ValueError."""
    mismatch = "right-hand side dimension mismatch"
    try:
        if len(m) != len(b):
            return f"{mismatch}: {len(b)} right-hand sides for {len(m)} blocks"
        for block, y in zip(m, b):
            rows = [len(row) for row in block]
            if rows != [2, 2]:
                got = f"{len(rows)}x{rows[0]}" if len(set(rows)) == 1 else f"rows of {rows} entries"
                return f"expected 2x2 systems, got {got}"
            if len(y) != 2:
                return f"{mismatch}: {len(y)} entries where a pair is expected"
    except TypeError:
        pass
    return "expected a list of 2x2 blocks and a list of pairs of numbers"


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
