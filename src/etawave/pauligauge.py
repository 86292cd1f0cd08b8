"""Grid checks of minimal coupling: Pauli identity and gauge invariance.

Matrix-free stencils on a periodic N^3 lattice.  The covariant momentum is
the centered difference minus e*A; squaring sigma.Pi must reproduce
Pi^2 - e sigma.B up to the O(h^2) truncation error, and the quadratic form
of the first-order wave operator must be invariant under
psi -> exp(-ie theta) psi, A -> A + grad theta to the same order.

B always comes from the analytic curl of the chosen A profile, never from a
discrete curl, so the comparison term carries no extra truncation error.
The symmetric gauge for a uniform field is linear in the coordinates and
therefore not periodic across the seam; all checks weight the fields with
states that decay to ~1e-8 at the boundary, which keeps the seam
contribution far below the bulk truncation error being measured.

The checks run over slabs of x-planes (the first spatial axis, contiguous
in the C-ordered (component, x, y, z) arrays), each gathered with a periodic
halo, so every work array is slab-sized.  The slab width depends on N alone
(see `_over_slabs`): eight planes below N = 128, where the slabs run one
after another on the calling thread, and three from N = 128 on, where the
calling thread runs the first half of the slabs and one worker thread the
second half when the process may use two CPUs.  Either way every slab's
partial sums are computed alike and added in slab order, so a check gives
the same bits on one thread and on two.  Each thread allocates its
slab-sized work arrays at its first (widest) slab and every later slab
writes into them, so the slab loop allocates nothing larger than one value
per (x, y) row; stages reuse the arrays an earlier stage has finished with.
Slabs stream from memory, so their time goes with the number of passes over
slab-sized arrays: the Pauli and gamma matrices act through their nonzero
entries only, factors of +-i as swaps of real and imaginary parts.

The identity and commutator checks apply their stencils in the unscaled
form P_a = D_a - 2ih e A_a, with Pi_a = -i/(2h) P_a, and divide each
finished norm ratio once by 4h^2 (see `_stencil_scale`): no stencil pays a
pass for its scale, and the ratio is the same at every scale of the box,
where the squares of Pi would underflow or overflow.  The weights 2ih e A_a
and 4h^2 e B_a are taken on the (x, y) rows where the field is constant
along z (`_z_rows`), and a weight that is zero on a slab (A_z and B_x, B_y
of the uniform field along z; a test by value) costs no product.  P is
spin-diagonal, so sigma_x P_x psi is P_x of psi with its components
swapped, written straight to the sigma.P buffer.

The quadratic forms of the gauge check write no operator image at all.
Each product of two components, or of one with its neighbour along an axis
(the difference stencil), is summed along z once per slab, to rows over
(x, y).  The weights of the terms (E - eA0 of eta, m of eta^+, A, and
the links and potential shift of the gauge change) are applied to those
rows wherever they are constant along z, as every field of
`convergence_table` is, and enter the row sums as a third factor
elsewhere.  Each form's terms are combined row by row before one pairwise
sum, and the change of the form under the gauge transformation is taken
from the link phases directly (see `gauge_invariance_check`).

The fields and the test state are stored at their true dimension:
`uniform_b_field` and `commensurate_theta` return read-only broadcast views
of a plane, a vector or a profile, and the checks read them slab by slab, a
field constant along z as its (x, y) rows (see `_planes`), without ever
making them dense.  `convergence_table` checks the separable Gaussian as
its factors (`_Separable`), an x column per component times one (y, z)
plane: each slab forms its planes into the check's work arrays, the column's
rows gathered periodically where the slab wraps.  Dense fields and states
take the same code to the same bits.

The public surface is the three checks with `convergence_table` and
`convergence_orders`, and the fields and states they take.  The whole-box
kernels `covariant_momentum_apply`, `sigma_pi_apply` and `wave_form_value`
serve no check; they are kept for the benchmark, which traces them by name.

The checks take C-ordered copies of oddly laid-out inputs and reject what
they cannot measure with ValueError: a state of the wrong shape or number of
components, a non-finite parameter, a zero state (for the gauge check, a
zero quadratic form), a non-finite sum (a non-finite input, or one whose
squares overflow), or, for the identity and commutator checks, a grid
spacing whose 4h^2 is not a normal float.  Non-finite arrays are found from
the finished sums, with no extra pass over the inputs.  Every check is
homogeneous in psi and exact under psi -> 2^k psi, so a state so small that
its squares underflow, or so large that they overflow, is checked again
scaled to unit size (see `_rescaled`).
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .clifford import PAULI, build_eta, build_standard_gammas
from .numerics import adjoint

# x-planes per slab below _THREADED_N: at N = 64 a slab has 2^15 sites.
# 16-plane slabs ran as fast and raised the peak RSS of
# convergence_table((32, 64, 128)) from 121 to 143 MB; 4-plane ones made its
# N = 32 row 35-60 % slower (2-vCPU Xeon).  Cache-sized slabs doubled the
# run-to-run spread on a host shared with other tenants; a box checked whole
# faulted its work arrays in again on every call.
_SLAB_PLANES = 8
# From N = _THREADED_N on, slabs of _THREADED_SLAB_PLANES planes (3 x 2^14 sites
# at N = 128) run on up to _THREADS threads, each with its own work arrays:
# two 3-plane pools take less memory than one 8-plane pool, and numpy
# releases the GIL in passes this large.  convergence_table((32, 64, 128))
# fell from 0.62 to 0.46 s (medians of 10 runs) against 8-plane slabs on one
# thread, and 3-plane slabs cost a one-CPU host 10-20 % (2-vCPU Xeon).  The
# partition depends on N alone, never on the CPU count.
_THREADED_N = 128
_THREADED_SLAB_PLANES = 3
if hasattr(os, "sched_getaffinity"):
    _THREADS = min(2, len(os.sched_getaffinity(0)))
else:  # not every platform has it
    _THREADS = min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class GaugeField:
    """Potentials and the analytic magnetic field on a uniform periodic grid.

    The arrays need only broadcast to their stated shapes' values: a field
    that varies along fewer axes may be a read-only `np.broadcast_to` view of
    an array of its true dimension (as `uniform_b_field` builds them), which
    the checks read slab by slab without making it dense.  Dense arrays take
    the same path."""

    a0: np.ndarray  # (N, N, N)
    a: np.ndarray  # (3, N, N, N)
    b: np.ndarray  # (3, N, N, N), analytic curl of a
    h: float  # grid spacing, nm
    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("grid must have at least 8 points per axis")
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")


def _axis(n: int, extent: float):
    """(coordinates, h): the N cell-centered coordinates of one axis,
    spanning [-extent/2, extent/2), and the grid spacing h."""
    h = extent / n
    return (np.arange(n) - n / 2) * h, h


def grid_coordinates(n: int, extent: float):
    """Cell-centered coordinates spanning [-extent/2, extent/2), as arrays of
    shape (N, 1, 1), (1, N, 1) and (1, 1, N) that broadcast to the grid."""
    axis, h = _axis(n, extent)
    return np.meshgrid(axis, axis, axis, indexing="ij", sparse=True), h


def uniform_b_field(n: int, extent: float, bz: float) -> GaugeField:
    """Symmetric gauge A = (-Bz*y/2, Bz*x/2, 0) for a uniform field along z.

    The fields are read-only broadcast views at their true dimension: A of a
    (3, N, N, 1) plane (it does not vary along z), B of one (3, 1, 1, 1)
    vector and A0 of a single zero."""
    (x, y, _), h = grid_coordinates(n, extent)
    grid = (n, n, n)
    a = np.zeros((3, n, n, 1))
    a[0] = -0.5 * bz * y
    a[1] = 0.5 * bz * x
    b = np.zeros((3, 1, 1, 1))
    b[2] = bz
    return GaugeField(
        a0=np.broadcast_to(0.0, grid),
        a=np.broadcast_to(a, (3,) + grid),
        b=np.broadcast_to(b, (3,) + grid),
        h=h,
        n=n,
    )


@dataclass(frozen=True)
class _Separable:
    """A state psi[c, x, y, z] = column[c, x] * plane[y, z] that is never
    made dense: `column` is complex (c, N, 1, 1), `plane` real (N, N) values
    stored complex.  The checks form its x-planes slab by slab, into their
    work arrays, as the product np.multiply(column rows, plane) (see
    `_gather`), which gives the bits of the same planes of the dense
    product."""

    column: np.ndarray
    plane: np.ndarray
    dtype = np.dtype(complex)

    @property
    def shape(self) -> tuple:
        return self.column.shape[:2] + self.plane.shape

    def __len__(self) -> int:
        return len(self.column)


def _bump(n: int, extent: float) -> _Separable:
    """The factors of `gaussian_bump_state`: its x columns, the Gaussian
    with the coefficient (and the cos) of each component, and the one (y, z)
    plane of the Gaussian they share."""
    axis, _ = _axis(n, extent)
    sigma = extent / 12.0
    # sigma * sigma: a float ** 2 raises OverflowError where a product is inf
    g = np.exp(-(axis**2) / (2.0 * (sigma * sigma)))
    x, gx = axis[:, None, None], g[:, None, None]
    column = np.stack([gx * (1.0 + 0.3j), gx * np.cos(2.0 * np.pi * x / extent) * (0.5 - 0.2j)])
    # stored complex, the plane needs no cast in each product: a 12-plane slab
    # at N = 64 takes 72 us, against 182 us from a float plane (2-vCPU Xeon)
    return _Separable(column, (g[:, None] * g).astype(complex))


def gaussian_bump_state(n: int, extent: float) -> np.ndarray:
    """Two-component localized test state; decays to ~1e-8 at the seam.
    Each component is an x column times one (y, z) plane of the Gaussian,
    multiplied out into the dense (2, N, N, N) state with no dense
    temporary; `convergence_table` checks the factors themselves."""
    bump = _bump(n, extent)
    return np.multiply(bump.column, bump.plane)


def _trim(field: np.ndarray, halo: int) -> np.ndarray:
    """`field` without `halo` planes at each end of its first spatial axis."""
    return field[..., halo : field.shape[-3] - halo, :, :]


def _gather(field: np.ndarray, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """out = planes lo..hi-1 of the first spatial axis of `field`, indices
    taken periodically, copied one run of consecutive planes at a time.
    np.take(mode="wrap") would first copy a non-contiguous field (such as a
    broadcast one) whole.  A `_Separable` state is formed as the product of
    its column's rows, gathered so, and its plane."""
    if isinstance(field, _Separable):
        return np.multiply(_planes(field.column, lo, hi), field.plane, out=out)
    n = field.shape[-3]
    pos = lo
    while pos < hi:
        start = pos % n
        count = min(hi - pos, n - start)
        out[..., pos - lo : pos - lo + count, :, :] = field[..., start : start + count, :, :]
        pos += count
    return out


def _planes(field: np.ndarray, lo: int, hi: int, get=None, name=None) -> np.ndarray:
    """Planes lo..hi-1 of the first spatial axis of `field`, indices taken
    periodically: a view when they do not wrap, else a copy, written to the
    work array `name` of `get` (see `_buffers`) when one is given.  A field
    whose z stride is 0 (a broadcast view) is taken as its (x, y) rows, a
    last axis of length 1, so a wrapping slab copies rows, not planes.  The
    planes of a `_Separable` state are always formed in the work array."""
    if isinstance(field, np.ndarray):
        if field.strides[-1] == 0:
            field = field[..., :1]
        if 0 <= lo and hi <= field.shape[-3]:
            return field[..., lo:hi, :, :]
    shape = field.shape[:-3] + (hi - lo,) + field.shape[-2:]
    out = np.empty(shape, field.dtype) if get is None else get(name, shape, field.dtype)
    return _gather(field, lo, hi, out)


def _buffers():
    """get(name, shape, dtype=complex): a work array that is allocated at the
    first request for `name` and reused by every later one, so slabs after
    the first allocate nothing.  A smaller request (the narrower last slab,
    or a stage on fewer planes) gets the leading part of it.  Each thread
    has its own arrays, so the slabs of one check may run on two threads."""
    local = threading.local()

    def get(name, shape, dtype=complex):
        flat = local.__dict__
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if name not in flat or flat[name].nbytes < nbytes:
            flat[name] = np.empty(nbytes, np.uint8)
        return flat[name][:nbytes].view(dtype).reshape(shape)

    return get


def _difference(
    field: np.ndarray, axis: int, halo: int = 0, out=None, centered: bool = True
) -> np.ndarray:
    """f[i+1] - f[i-1] along array `axis` (f[i+1] - f[i] when not
    `centered`), on `_trim(field, halo)`, written to `out` (a new array when
    it is None).

    Along the first spatial axis a halo supplies the neighbours.  Along any
    other axis, or without a halo, the difference is periodic: each
    component's block, C-contiguous in `field` and `out`, is differenced
    flat with a shift of one plane of `axis` (1 site along z, N along y,
    N^2 along x), then the wrap planes, where that shift reached into the
    neighbouring row or plane, are written over."""
    back = int(centered)
    x = field.ndim - 3
    if halo and axis == x:
        k = field.shape[x]
        return np.subtract(
            field[..., halo + 1 : k - halo + 1, :, :],
            field[..., halo - back : k - halo - back, :, :],
            out=out,
        )
    core = _trim(field, halo)
    if out is None:
        out = np.empty(core.shape, field.dtype)
    step = math.prod(core.shape[axis + 1 :])
    src = core.reshape(core.shape[:x] + (-1,))
    dst = out.reshape(src.shape)
    lag = (1 + back) * step
    np.subtract(src[..., lag:], src[..., :-lag], out=dst[..., back * step : -step])
    src = np.moveaxis(core, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    if back:
        np.subtract(src[1], src[-1], out=dst[0])
    np.subtract(src[0], src[-1 - back], out=dst[-1])
    return out


def _momentum(psi: np.ndarray, w: np.ndarray, axis: int, out=None, scratch=None) -> np.ndarray:
    """The unscaled momentum P_axis psi = D_axis psi - w psi on the x-planes
    that the weight `w` (2ih e A_axis there, see `_weights`) covers, written
    to `out` (a new array when it is None); Pi_axis = -i/(2h) P_axis.
    `psi` holds those planes and an equal halo at each end of its first
    spatial axis; without a halo it is periodic in x.  w psi is formed one
    component at a time in `scratch`, a complex array of one component's
    sites, and skipped when w is zero (a test by value)."""
    halo = (psi.shape[-3] - w.shape[-3]) // 2
    out = _difference(psi, psi.ndim - 3 + axis, halo, out)
    if w.any():
        core = _trim(psi, halo)
        if scratch is None:
            scratch = np.empty(core.shape[-3:], dtype=complex)
        for comp in np.ndindex(out.shape[:-3]):
            out[comp] -= np.multiply(w, core[comp], out=scratch)
    return out


def _weights(fields, lo: int, hi: int, scale, get=None, name: str = "w") -> list:
    """[scale * field on planes lo..hi-1 (periodic) of its first spatial axis]
    for each field of `fields`: on its (x, y) rows where it is constant
    along z there (`_z_rows`), else site by site; in the work arrays of `get`
    (a new pool when it is None), named `name` and the field's index."""
    get = get or _buffers()
    out = []
    for k, field in enumerate(fields):
        rows = _z_rows(_planes(field, lo, hi, get, "planes"))
        dtype = np.result_type(rows, scale)
        out.append(np.multiply(rows, scale, out=get(f"{name}{k}", rows.shape, dtype)))
    return out


def covariant_momentum_apply(
    f: GaugeField, psi: np.ndarray, axis: int, e_charge: float = 1.0
) -> np.ndarray:
    """Pi_axis psi = (-i D_axis - e A_axis) psi with periodic centered differences."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    (w,) = _weights(f.a[axis : axis + 1], 0, f.n, 2j * f.h * e_charge)
    out = _momentum(np.ascontiguousarray(psi, dtype=complex), w, axis)
    out *= -0.5j / f.h
    return out


def _add_term(out: np.ndarray, coeff: complex, term: np.ndarray) -> None:
    """out += coeff * term: an add or a subtract for coeff = +-1, the real and
    imaginary parts swapped for +-i, else a product and an add."""
    if coeff == 1:
        out += term
    elif coeff == -1:
        out -= term
    elif coeff == 1j:
        np.subtract(out.real, term.imag, out=out.real)
        np.add(out.imag, term.real, out=out.imag)
    elif coeff == -1j:
        np.add(out.real, term.imag, out=out.real)
        np.subtract(out.imag, term.real, out=out.imag)
    else:
        out += term * coeff


def _spin_apply(matrix: np.ndarray, psi: np.ndarray, out: np.ndarray) -> None:
    """out[a] += matrix[a, b] * psi[b] over the nonzero entries of the spin
    matrix only, each through `_add_term`.

    Pauli matrices have 2 nonzero entries of 4 and the spatial gammas 4 of
    16, all of them +-1 or +-i; a conjugated (dense) set takes every entry.
    """
    for a, b in zip(*np.nonzero(matrix)):
        _add_term(out[a], matrix[a, b], psi[b])


def _sigma_pi(psi: np.ndarray, w, out, momentum, scratch=None) -> np.ndarray:
    """out = sigma.P psi (unscaled, as `_momentum`) on the x-planes that the
    weights `w` (one per axis) cover, halo as in `_momentum`.  P is
    spin-diagonal, so sigma_x P_x psi is P_x of psi with its components
    swapped, written straight to `out`, and sigma_a P_a psi is column b of
    sigma_a times P_a psi_b for each b: `momentum`, one component's sites,
    holds P_y psi_b and P_z psi_b in turn."""
    _momentum(psi[::-1], w[0], 0, out, scratch)
    for axis in (1, 2):
        for b in range(len(psi)):
            term = _momentum(psi[b], w[axis], axis, momentum, scratch)
            _spin_apply(PAULI[axis][:, [b]], term[None], out)
    return out


def sigma_pi_apply(f: GaugeField, psi: np.ndarray, e_charge: float = 1.0) -> np.ndarray:
    """sigma.Pi psi for a two-component psi, each Pi_a with periodic
    centered differences."""
    psi = _checked_state(f, psi, (2,))
    w = _weights(f.a, 0, f.n, 2j * f.h * e_charge)
    out = _sigma_pi(psi, w, np.empty_like(psi), np.empty_like(psi[0]))
    out *= -0.5j / f.h
    return out


def _sq_norm(psi: np.ndarray, work: np.ndarray) -> float:
    """sum |psi|^2: the real and imaginary parts squared into `work` (an
    array like psi, which may be psi itself) and added by numpy's pairwise
    sum.  The last axis of psi is contiguous."""
    return float(np.sum(np.square(psi.view(np.float64), out=work.view(np.float64))))


def _over_slabs(slab, n: int, halo: int) -> list:
    """[slab(lo, hi, halo) for each slab of x-planes lo..hi-1], in slab
    order: `_SLAB_PLANES` planes each below N = `_THREADED_N`, run on the
    calling thread, and `_THREADED_SLAB_PLANES` from there on, the second
    half of them run on a worker thread when `_THREADS` is 2, under the
    caller's numpy error state (numpy keeps it per thread).  The last slab
    may be narrower; a box of at most that many planes is one slab, whose
    halo wraps around it.  `slab` must call no public function: the
    benchmark's span tracer keeps one call stack for all threads."""
    threaded = n >= _THREADED_N
    width = _THREADED_SLAB_PLANES if threaded else _SLAB_PLANES
    bounds = [(lo, min(lo + width, n)) for lo in range(0, n, width)]

    def run(part):
        return [slab(lo, hi, halo) for lo, hi in part]

    def run_under(errstate, part):
        with np.errstate(**errstate):
            return run(part)

    if not threaded or _THREADS < 2:
        return run(bounds)
    half = (len(bounds) + 1) // 2
    errstate = dict(np.geterr(), call=np.geterrcall())
    tail = _worker().submit(run_under, errstate, bounds[half:])
    try:
        head = run(bounds[:half])
    except BaseException:
        tail.exception()  # the worker's slabs end before the error propagates
        raise
    return head + tail.result()


# the executor of this process's one worker thread, made at its first
# threaded check; the thread then stays for the life of the process
_WORKER = None
_WORKER_LOCK = threading.Lock()


def _forget_worker():
    """In a forked child: the parent's executor has no thread there and
    would never run its tasks, and the lock may have been held at the fork."""
    global _WORKER, _WORKER_LOCK
    _WORKER, _WORKER_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _worker():
    """The executor of this process's worker thread.  A thread kept across
    checks keeps its malloc arena; a thread per check raised the peak RSS of
    some runs by 10-12 MB."""
    global _WORKER
    with _WORKER_LOCK:
        if _WORKER is None:
            # imported here: concurrent.futures adds 5-7 ms to every import of etawave
            from concurrent.futures import ThreadPoolExecutor

            _WORKER = ThreadPoolExecutor(max_workers=1)
        return _WORKER


def _checked_state(f: GaugeField, psi, components=None):
    """psi as a C-ordered complex array (a copy only of other layouts or
    dtypes), or a `_Separable` state as it is, which must be (c, N, N, N)
    with N = f.n and c in `components` (any c >= 1 when it is None)."""
    if not isinstance(psi, _Separable):
        psi = np.ascontiguousarray(psi, dtype=complex)
    count = len(psi)
    if psi.shape[1:] != (f.n,) * 3 or not count or components and count not in components:
        counts = " or ".join(map(str, components)) if components else ">= 1"
        raise ValueError(
            f"psi must have shape (c, {f.n}, {f.n}, {f.n}) with c {counts}; got {psi.shape}"
        )
    return psi


def _check_finite(**params) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def _check_sums(*sums) -> None:
    """Non-finite inputs, and squares that overflow, end as a non-finite sum."""
    if not all(cmath.isfinite(s) for s in sums):
        raise ValueError(
            "the check's sums are not finite: psi or the fields hold inf or nan, "
            "or values too large to square"
        )


def _stencil_scale(h: float) -> float:
    """4h^2: the unscaled products P_a P_b psi of `_momentum` are
    -4h^2 Pi_a Pi_b psi, whatever the scale of the box, and a check divides
    its finished ratio by this factor once.  ValueError unless it is a
    normal float: a subnormal one has lost its digits, an infinite one would
    give a residual of 0."""
    scale = 4.0 * h * h
    if not np.finfo(float).tiny <= scale < math.inf:
        raise ValueError(f"grid spacing {h!r} is out of range: 4h^2 = {scale!r}")
    return scale


# squares lose digits near the subnormal range: a gaussian_bump_state scaled
# by 1e-154 (sum |psi|^2 about 1e-306) moves the checks by 5e-13 relative.
# Below this floor, 2^510 above that range, a state is checked again rescaled.
_SUM_FLOOR = 2.0**-512


def _rescaled(psi, total):
    """psi 2^k, with its largest real or imaginary part in [1/2, 1), where a
    check's finished sum `total` (sum |psi|^2, or the gauge form q0) is below
    `_SUM_FLOOR` or not finite and k is not 0; else None.  A state of normal
    size pays the one compare.  An inf or nan in psi, or a zero psi, gives
    None, and the check raises as before.  A `_Separable` state has its
    column scaled, which is exact."""
    if _SUM_FLOOR <= abs(total) < math.inf:
        return None
    separable = isinstance(psi, _Separable)
    re_im = (psi.column if separable else psi).view(np.float64)
    peak = float(np.max(np.abs(re_im)))
    if separable:
        peak *= float(np.max(np.abs(psi.plane)))
    if not 0 < peak < math.inf:
        return None
    k = -math.frexp(peak)[1]
    if not k:
        return None
    scaled = np.ldexp(re_im, k).view(complex)
    return _Separable(scaled, psi.plane) if separable else scaled


def _norm_ratio(parts, scale: float) -> float:
    """sqrt(sum of residual^2 / sum of |psi|^2) / scale from (residual^2,
    |psi|^2) slab parts, added in slab order."""
    residual = sum(p[0] for p in parts)
    norm = sum(p[1] for p in parts)
    _check_sums(residual, norm)
    if norm == 0:
        raise ValueError("psi is zero, or too small to square")
    ratio = math.sqrt(residual) / math.sqrt(norm) / scale
    # a subnormal ratio has lost digits, as a subnormal 4h^2 would have
    if ratio == math.inf or 0 < ratio < np.finfo(float).tiny:
        raise ValueError(f"the residual {ratio!r} is outside the normal float range")
    return ratio


def pauli_identity_check(f: GaugeField, psi: np.ndarray, e_charge: float = 1.0) -> float:
    """|| (sigma.Pi)^2 psi - (Pi^2 - e sigma.B) psi ||_2 / ||psi||_2.

    It is formed in the unscaled momenta P_a = 2ih Pi_a of `_momentum` as
    || (sigma.P)^2 psi - sum_a P_a^2 psi - 4h^2 e sigma.B psi ||
    / (4h^2 ||psi||), so the factor -i/(2h) is applied once, to the finished ratio, not to
    every stencil, and the ratio is the same at every scale of the box.
    P_a psi is formed once per axis, one component at a time, and feeds
    both sigma.P psi and P_a P_a psi: nine stencil applications in all, each
    with its weight 2ih e A_a on the (x, y) rows where A_a is constant along
    z and none where A_a is zero (A_z of a field along z), as the e sigma.B
    term skips B_x and B_y when they are zero.  sigma_x P_x psi is P_x of psi with its
    components swapped, written straight to sigma.P psi, and P_x of it,
    swapped back, is P_x P_x psi.  P_x is applied twice, so slabs carry a
    halo of two planes."""
    psi = _checked_state(f, psi, (2,))
    _check_finite(e_charge=e_charge)
    scale = _stencil_scale(f.h)
    get = _buffers()

    def slab(lo, hi, halo):
        # sigma.P psi is needed one plane beyond the slab, for the outer P_x
        inner = halo - 1
        psi_s = _planes(psi, lo - halo, hi + halo, get, "psi")
        w_in = _weights(f.a, lo - inner, hi + inner, 2j * f.h * e_charge, get)
        w = [_trim(x, inner) for x in w_in]
        wide = (hi - lo + 2 * inner,) + psi.shape[-2:]
        sites = (hi - lo,) + psi.shape[-2:]
        # "pi" holds P_a psi_b, one component on the wide planes, and later
        # sigma.P (sigma.P psi): requested at the larger size first, it is
        # allocated once
        lhs = get("pi", (len(psi),) + sites)
        pi = get("pi", wide)
        sigma_pi = get("sigma_pi", (len(psi),) + wide)
        rhs = get("rhs", lhs.shape)
        pi_pi = get("pi_pi", sites)
        # P_x P_x psi goes straight to rhs, the others are added to it
        _momentum(psi_s[::-1], w_in[0], 0, sigma_pi, get("scratch", wide))
        _momentum(sigma_pi[::-1], w[0], 0, rhs, get("scratch", sites))
        for axis in (1, 2):
            for b in range(len(psi)):
                _momentum(psi_s[b], w_in[axis], axis, pi, get("scratch", wide))
                # column b of sigma_axis times P_axis psi_b
                _spin_apply(PAULI[axis][:, [b]], pi[None], sigma_pi)
                rhs[b] += _momentum(pi, w[axis], axis, pi_pi, get("scratch", sites))
        # rhs += 4h^2 e sigma.B psi, as coefficient rows: 4h^2 e B_z on the
        # diagonal, 4h^2 e (B_x - i B_y) above it and its conjugate below
        core = _trim(psi_s, halo)
        bx, by, bz = _weights(f.b, lo, hi, scale * e_charge, get, "b")
        term = get("scratch", sites)
        if bz.any():
            rhs[0] += np.multiply(core[0], bz, out=term)
            rhs[1] -= np.multiply(core[1], bz, out=term)
        if bx.any() or by.any():
            bxy = np.multiply(by, -1j, out=get("bxy", np.broadcast_shapes(bx.shape, by.shape)))
            bxy += bx
            rhs[0] += np.multiply(core[1], bxy, out=term)
            rhs[1] += np.multiply(core[0], np.conjugate(bxy, out=bxy), out=term)
        # lhs = sigma.P (sigma.P psi)
        _sigma_pi(sigma_pi, w, lhs, pi_pi, term)
        lhs -= rhs
        return _sq_norm(lhs, lhs), _sq_norm(core, rhs)

    parts = _over_slabs(slab, f.n, 2)
    scaled = _rescaled(psi, sum(p[1] for p in parts))
    if scaled is not None:
        return pauli_identity_check(f, scaled, e_charge)
    return _norm_ratio(parts, scale)


def commutator_check(f: GaugeField, psi: np.ndarray, e_charge: float = 1.0) -> float:
    """|| [Pi_x, Pi_y] psi - i e B_z psi || / ||psi||; the source of the
    sigma.B term.  Formed, as `pauli_identity_check`, in the unscaled
    momenta: || [P_x, P_y] psi + 4i h^2 e B_z psi || / (4h^2 ||psi||), the
    B_z term skipped where B_z is zero.  P_x is applied once, so slabs carry
    a one-plane halo."""
    psi = _checked_state(f, psi)
    _check_finite(e_charge=e_charge)
    scale = _stencil_scale(f.h)
    get = _buffers()

    def slab(lo, hi, halo):
        psi_s = _planes(psi, lo - halo, hi + halo, get, "psi")
        w_s = _weights(f.a[:2], lo - halo, hi + halo, 2j * f.h * e_charge, get)
        w = [_trim(x, halo) for x in w_s]
        core_shape = (len(psi), hi - lo) + psi.shape[-2:]
        inner = get("inner", psi_s.shape)
        _momentum(psi_s, w_s[1], 1, inner, get("scratch", psi_s.shape[1:]))
        scratch = get("scratch", core_shape[1:])
        residual = _momentum(inner, w[0], 0, get("residual", core_shape), scratch)
        # the second inner P goes into the first one's buffer
        inner = _momentum(psi_s, w[0], 0, get("inner", core_shape), scratch)
        outer = _momentum(inner, w[1], 1, get("outer", core_shape), scratch)
        residual -= outer
        # residual += 4i h^2 e B_z psi, with the factor i as a swap of real
        # and imaginary parts
        core = _trim(psi_s, halo)
        (bz,) = _weights(f.b[2:], lo, hi, scale * e_charge, get, "b")
        if bz.any():
            for comp in range(len(psi)):
                _add_term(residual[comp], 1j, np.multiply(core[comp], bz, out=scratch))
        return _sq_norm(residual, residual), _sq_norm(core, outer)

    parts = _over_slabs(slab, f.n, 1)
    scaled = _rescaled(psi, sum(p[1] for p in parts))
    if scaled is not None:
        return commutator_check(f, scaled, e_charge)
    return _norm_ratio(parts, scale)


def _four_component_planes(psi: np.ndarray, lo: int, hi: int, get) -> np.ndarray:
    """Planes lo..hi-1 (periodic) of the 4-component state, in the work array
    "psi4" of `get` unless they are a view: those of `psi` when it has four
    components, else `psi` over a lower pair 0.7 psi shifted by N/8 along x,
    so every block of the wave operator enters the form."""
    if len(psi) == 4:
        return _planes(psi, lo, hi, get, "psi4")
    shift = psi.shape[-3] // 8
    out = get("psi4", (4, hi - lo) + psi.shape[-2:])
    _gather(psi, lo, hi, out[:2])
    _gather(psi, lo - shift, hi - shift, out[2:])
    out[2:] *= 0.7
    return out


def _z_rows(field: np.ndarray) -> np.ndarray:
    """`field` as its (x, y) rows, a view whose last axis has length 1, when
    it is constant along z (the last axis); else `field` itself.

    The test is by value, so a dense copy of a broadcast field takes the
    same path to the same bits as the rows `_planes` takes of the broadcast
    field.  A nan is unequal to itself: a dense field holding one is used
    site by site."""
    if (field == field[..., :1]).all():
        return field[..., :1]
    return field


def _rows(*factors: np.ndarray) -> np.ndarray:
    """The (x, y) rows of the product of `factors` summed along z, by one
    einsum.  Rows are combined before one pairwise np.sum: a flat einsum
    adds sequentially and loses digits; np.vdot goes through BLAS, which is
    slower here and wakes its threads."""
    subscripts = ",".join(["...k"] * len(factors)) + "->..."
    return np.einsum(subscripts, *factors)


def _hop_rows(here, there: np.ndarray, axis, halo: int) -> np.ndarray:
    """Rows of sum_z prod(here)(x) * there(x + e_axis) (there(x) when axis is
    None) over the sites of the arrays in `here`; `there` holds those sites
    and `halo` (at least one) planes at each end of its first axis, and is
    periodic along y and z: the y hop writes its wrap row, the z hop adds its
    seam column."""
    if axis is None:
        return _rows(*here, _trim(there, halo))
    if axis == 0:
        return _rows(*here, there[halo + 1 : halo + 1 + len(here[0])])
    there = _trim(there, halo)
    if axis == 1:
        out = np.empty(there.shape[:-1], there.dtype)
        out[:, :-1] = _rows(*(v[:, :-1] for v in here), there[:, 1:])
        out[:, -1] = _rows(*(v[:, -1] for v in here), there[:, 0])
        return out
    out = _rows(*(v[..., :-1] for v in here), there[..., 1:])
    out += math.prod(v[..., -1] for v in here) * there[..., 0]
    return out


def _weighted_rows(weight, rows, here, there, axis, halo: int) -> np.ndarray:
    """Rows of sum_z weight(x) here(x) there(x + e_axis), as `_hop_rows`,
    for a weight from `_z_rows`: the weight's rows times `rows()`, the z-row
    sums of here * there, when it is constant along z; else the weight
    enters the row reduction as a third factor."""
    if weight.shape[-1] == 1:
        return weight[..., 0] * rows()
    return _hop_rows((here, weight), there, axis, halo)


def _hop_difference(gamma: np.ndarray, hops) -> np.ndarray:
    """Rows of sum_ab gamma_ab (K_ab - conj K_ba) from the hop rows `hops`
    (K_ab of `_hop_rows`, for every pair that gamma or its transpose needs):
    the forward hop less the backward one, whose sum over the box is the
    conjugate of the transposed forward hop."""
    return sum(
        gamma[a, b] * (hops[a, b] - np.conjugate(hops[b, a])) for a, b in zip(*np.nonzero(gamma))
    )


def _link_and_shift(theta_s: np.ndarray, axis: int, halo: int, e_charge: float, get):
    """(u, s) on the sites of the C-ordered `theta_s` (a slab with `halo`
    planes at each end of its first axis, or the (x, y) rows of one) in the
    work arrays of `get`: the link u = exp(-ie delta) - 1
    = -2 sin^2(e delta / 2) - i sin(e delta) with
    delta = theta(x + e_axis) - theta(x), both parts without the cancellation
    of cos(e delta) - 1, and the potential shift times 2h,
    s = theta(x + e_axis) - theta(x - e_axis)."""
    sites = _trim(theta_s, halo).shape
    angle = _difference(theta_s, axis, halo, get("angle", sites, float), centered=False)
    angle *= -e_charge
    link = get("link", sites)
    np.sin(angle, out=link.imag)
    angle *= 0.5
    np.sin(angle, out=angle)
    np.square(angle, out=angle)
    np.multiply(angle, -2.0, out=link.real)
    return link, _difference(theta_s, axis, halo, get("angle", sites, float))


def _forms(f: GaugeField, psi: np.ndarray, e_energy, m, e_charge, theta=None):
    """(q0, q1 - q0) / h^3 of `gauge_invariance_check`, each added over the
    slabs in slab order; q1 - q0 is 0 when `theta` is None.  `psi` is a
    C-ordered state of 2 or 4 components."""
    g = build_standard_gammas()
    eta = build_eta(g)
    eta_dagger = adjoint(eta)
    mass = np.full((1, 1, 1), m, dtype=float)  # a weight constant along z
    get = _buffers()

    def slab(lo, hi, halo):
        psi4 = _four_component_planes(psi, lo - halo, hi + halo, get)
        core = _trim(psi4, halo)
        conj = np.conjugate(core, out=get("conj", core.shape))
        products = {}

        def product(a, b):
            """The rows G_ab = sum_z conj psi_a psi_b, each formed once per
            slab."""
            if (a, b) not in products:
                products[a, b] = _hop_rows((conj[a],), psi4[b], None, halo)
            return products[a, b]

        def weighted(weight, coeffs):
            """Rows of sum_z weight * sum_ab coeffs_ab conj psi_a psi_b for a
            real `weight` from `_z_rows`; the transposed product's rows are
            the conjugate."""
            sums = {}
            for a, b in zip(*np.nonzero(coeffs)):
                if (b, a) in sums:
                    sums[a, b] = np.conjugate(sums[b, a])
                else:
                    sums[a, b] = _weighted_rows(
                        weight, lambda: product(a, b), conj[a], psi4[b], None, halo
                    )
            return sum(coeffs[pair] * value for pair, value in sums.items())

        a0 = _z_rows(_planes(f.a0, lo, hi))
        kinetic = get("kinetic", a0.shape, float)
        np.multiply(a0, e_charge, out=kinetic)
        np.subtract(e_energy, kinetic, out=kinetic)
        form = weighted(kinetic, eta) + weighted(mass, eta_dagger)
        potential = _planes(f.a, lo, hi)
        if theta is not None:
            # C-ordered: `_difference` takes each block flat
            theta_s = _planes(theta, lo - halo, hi + halo, get, "theta")
            theta_s = np.ascontiguousarray(_z_rows(theta_s))
        change = 0
        for axis, gamma in enumerate((g.gamma1, g.gamma2, g.gamma3)):
            needed = zip(*np.nonzero((gamma != 0) | (gamma.T != 0)))
            hops = {(a, b): _hop_rows((conj[a],), psi4[b], axis, halo) for a, b in needed}
            form = form + (-0.5j / f.h) * _hop_difference(gamma, hops)
            form = form - e_charge * weighted(_z_rows(potential[axis]), gamma)
            # a theta constant along z has no z links: u_z = s_z = 0
            if theta is None or axis == 2 and theta_s.shape[-1] == 1:
                continue
            link, shift = _link_and_shift(theta_s, axis, halo, e_charge, get)
            hops = {
                (a, b): _weighted_rows(link, lambda: value, conj[a], psi4[b], axis, halo)
                for (a, b), value in hops.items()
            }
            change = change - 1j * _hop_difference(gamma, hops) + e_charge * weighted(shift, gamma)
        return complex(np.sum(form)), complex(np.sum(change)) / (2.0 * f.h)

    parts = _over_slabs(slab, f.n, 1)
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


def wave_form_value(
    f: GaugeField,
    psi: np.ndarray,
    e_energy: float,
    m: float,
    e_charge: float = 1.0,
) -> complex:
    """Quadratic form of the first-order operator,
    sum psi^+ [ (E - eA0) eta + gamma^i Pi_i + m eta^+ ] psi * h^3: the q0 of
    `gauge_invariance_check`, formed over the same slabs."""
    psi = _checked_state(f, psi, (2, 4))
    return _forms(f, psi, e_energy, m, e_charge)[0] * f.h**3


def gauge_invariance_check(
    f: GaugeField,
    theta: np.ndarray,
    psi: np.ndarray,
    e_energy: float,
    m: float,
    e_charge: float = 1.0,
) -> float:
    """Relative change |q1 - q0| / |q0| of the quadratic form q0 (that of
    `wave_form_value`) under psi -> exp(-ie theta) psi with the matching
    potential shift A -> A - grad theta (discrete gradient).

    With Pi = -i d - e A the compensating shift for the exp(-ie theta) phase
    carries a minus sign; the exp(+ie theta) / A + grad theta pairing is the
    same transformation with theta negated.  Exact for constant theta or
    e_charge = 0; O(h^2) otherwise.

    The phase is unimodular, so the site-local eta terms are unchanged and
    q1 - q0 comes from the difference stencil and the potential shift alone.
    It is taken from the link phases directly, never as the difference of
    two nearly equal forms: with delta = theta(x + e_i) - theta(x),
    u_i = exp(-ie delta) - 1 = -2 sin^2(e delta / 2) - i sin(e delta),
    F^i_ab = sum_x conj psi_a(x) u_i(x) psi_b(x + e_i) and
    P^i_ab = sum_x (theta(x + e_i) - theta(x - e_i)) conj psi_a psi_b,
    q1 - q0 = h^3 sum_i sum_ab gamma^i_ab [-i (F^i_ab - conj F^i_ba)
    + e P^i_ab] / (2h).

    Both forms come from z-row sums.  On each slab (one-plane halo) every
    product is reduced along z once, to rows over (x, y):
    G_ab = sum_z conj psi_a psi_b for the pairs the eta terms and the gammas
    need (G_ba = conj G_ab), and H^i_ab = sum_z conj psi_a(x) psi_b(x + e_i)
    for the pairs of each gamma^i, which q0 and q1 - q0 share.  Each weight
    is applied to the rows, as sum_xy w(x, y) R(x, y): E - eA0 (of eta),
    m (of eta^+), A_i, the shift s_i and the link u_i, the last two formed
    on the rows.  A weight is used on the rows when its slab is
    constant along z, a test by value (`_z_rows`); otherwise it enters the
    row reduction as a third factor.  A theta constant along z has no z
    links.  Each form's terms are combined row by row before one pairwise
    sum per slab: the terms of q1 - q0 cancel to O(h^2), and adding them row
    by row keeps their digits.  theta is read slab by slab and may be a
    broadcast view.
    """
    psi = _checked_state(f, psi, (2, 4))
    theta = np.asarray(theta)
    if theta.shape != (f.n,) * 3 or np.iscomplexobj(theta):
        raise ValueError(
            f"theta must be real with shape ({f.n}, {f.n}, {f.n}); got {theta.dtype} {theta.shape}"
        )
    _check_finite(e_energy=e_energy, m=m, e_charge=e_charge)
    # h^3 cancels in the ratio (and h**3 of a huge spacing raises OverflowError)
    q0, change = _forms(f, psi, e_energy, m, e_charge, theta)
    scaled = _rescaled(psi, q0)
    if scaled is not None:
        return gauge_invariance_check(f, theta, scaled, e_energy, m, e_charge)
    _check_sums(q0, change)
    if q0 == 0:
        raise ValueError("the quadratic form of psi is zero, or too small to represent")
    return abs(change) / abs(q0)


def commensurate_theta(n: int, extent: float) -> np.ndarray:
    """Gauge function 0.4 sin(2 pi x / extent), completing a whole period
    across the box (smooth seam), as a read-only broadcast view of its
    (N, 1, 1) profile along x."""
    (x, _, _), _ = grid_coordinates(n, extent)
    return np.broadcast_to(0.4 * np.sin(2.0 * np.pi * x / extent), (n, n, n))


def convergence_table(
    sizes=(32, 64, 128),
    extent: float = 8.0,
    bz: float = 0.3,
    e_charge: float = 1.0,
    e_energy: float = 2.0,
    m: float = 1.5,
):
    """Residual-vs-h rows (h, identity, gauge, commutator) over grid refinements.

    The domain is fixed while N doubles, so h halves each row and every
    residual should fall by about 4x.  The state is `gaussian_bump_state`,
    checked as its factors, so no (N, N, N) array is made: the rows are
    those of the dense state, bit for bit.
    """
    rows = []
    for n in sizes:
        f = uniform_b_field(n, extent, bz)
        psi = _bump(n, extent)
        theta = commensurate_theta(n, extent)
        rows.append(
            (
                f.h,
                pauli_identity_check(f, psi, e_charge),
                gauge_invariance_check(f, theta, psi, e_energy, m, e_charge),
                commutator_check(f, psi, e_charge),
            )
        )
    return rows


def convergence_orders(residuals):
    """Empirical orders log2(r_i / r_{i+1}) for successive h halvings."""
    return [float(np.log2(residuals[i] / residuals[i + 1])) for i in range(len(residuals) - 1)]
