"""Host speed index: a fixed kernel timed right after every request.

Other tenants of the measuring host slow the same code by up to 2x, in
stretches of 10 to 70 seconds and in sub-second jitter, so two runs of one
commit can differ by that much however long they are.  A kernel that does
the same kind of work as a request, timed right after it, slows by nearly
the same factor; the request's latency divided by the kernel's time per
repetition does not.  Multiplied by the kernel's time on an idle host, that
gives the request's latency in seconds at idle-host speed.

The kernel is Gaussian elimination with partial pivoting on one fixed 8x8
complex system in small numpy operations, the kind of work the library's
matching solves and CLI commands do.  It is fixed here, so no change to the
library can change it.  It does not track the memory-bound N = 128 lattice
stencils, so `lattice_convergence` is not normalized (see README.md).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the kernel's time per repetition on the idle measuring host (2-vCPU Intel
# Xeon, Python 3.11, numpy 2.4), rounded: normalized times are seconds at it
IDLE_S = 1.0e-4
# share of each request's latency spent on the kernel after it
SHARE = 0.05

_rng = np.random.default_rng(20261017)
SYSTEM = (_rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8)), _rng.normal(size=8) + 0j)


def kernel():
    a, b = (x.copy() for x in SYSTEM)
    n = len(b)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        f = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= np.outer(f, a[k, k:])
        b[k + 1 :] -= f * b[k]
    x = np.zeros(n, dtype=complex)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


def probe(latency_s: float) -> float:
    """Run the kernel for about SHARE of `latency_s`, at least once, and
    return its mean seconds per repetition."""
    reps = max(1, round(SHARE * latency_s / IDLE_S))
    t0 = perf_counter()
    for _ in range(reps):
        kernel()
    return (perf_counter() - t0) / reps
