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

The checks run over slabs of sixteen x-planes (the first spatial axis,
contiguous in the C-ordered (component, x, y, z) arrays) at every N, each
gathered with a periodic halo, so every work array is slab-sized.  The slabs
run one after another on the calling thread and their partial sums are added
in slab order.  A check allocates its work arrays at its first (widest) slab
and every later slab writes into them, so the slab loop allocates nothing;
stages reuse the arrays an earlier stage has finished with.  Slabs stream
from memory, so their time goes with the number of passes over slab-sized
arrays: the eta terms of the wave operator and the e sigma.B term are
applied as per-site coefficient rows, one product per term, and factors of
+-i as swaps of real and imaginary parts.  The quadratic forms of the gauge
check write no operator image at all: each term is reduced straight to a
scalar, the difference stencil as sums over neighbouring sites, and the
change of the form under the gauge transformation is taken from the link
phases directly (see `gauge_invariance_check`).

The fields are stored at their true dimension: `uniform_b_field` and
`commensurate_theta` return read-only broadcast views of a plane, a vector
or a profile, and the checks read them slab by slab (wrapping planes by
slice copies) without ever making them dense.  Dense fields take the same
code.

The checks take C-ordered copies of oddly laid-out inputs and reject what
they cannot measure with ValueError: a state of the wrong shape or number of
components, a non-finite parameter, a zero state (for the gauge check, a
zero quadratic form), or a non-finite sum (a non-finite input, or one whose
squares overflow).  Non-finite arrays are found from the finished sums,
with no extra pass over the inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .clifford import PAULI, build_eta, build_standard_gammas

# x-planes per slab, at every N: at N = 128 a slab has 2^18 sites, whose
# 4-component temporaries (16 MB each) stream from memory.  Slabs that fit in
# the last-level cache ran faster, but their speed rose and fell with the
# cache traffic of other tenants of a shared host: the run-to-run spread of
# convergence_table was about twice that of streaming slabs.  A box checked
# whole (as N <= 64 once was) allocated its 40-60 MB of work arrays and
# faulted them in again on every call: 11k minor page faults and 40-50 ms
# of system time per identity, gauge and commutator set at N = 64.  Its
# 16-plane slabs take about 8k faults in a fresh process, and none once an
# N = 128 call has run in it.
_SLAB_PLANES = 16


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


def grid_coordinates(n: int, extent: float):
    """Cell-centered coordinates spanning [-extent/2, extent/2), as arrays of
    shape (N, 1, 1), (1, N, 1) and (1, 1, N) that broadcast to the grid."""
    h = extent / n
    axis = (np.arange(n) - n / 2) * h
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


def gaussian_bump_state(n: int, extent: float, sigma: float | None = None) -> np.ndarray:
    """Two-component localized test state; decays to ~1e-8 at the seam."""
    (x, y, z), _ = grid_coordinates(n, extent)
    sigma = sigma if sigma is not None else extent / 12.0
    bump = np.exp(-(x**2 + y**2 + z**2) / (2.0 * sigma**2))
    state = np.empty((2, n, n, n), dtype=complex)
    np.multiply(bump, 1.0 + 0.3j, out=state[0])
    np.multiply(bump, 0.5 - 0.2j, out=state[1])
    state[1] *= np.cos(2.0 * np.pi * x / extent)
    return state


def _trim(field: np.ndarray, halo: int) -> np.ndarray:
    """`field` without `halo` planes at each end of its first spatial axis."""
    return field[..., halo : field.shape[-3] - halo, :, :]


def _gather(field: np.ndarray, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """out = planes lo..hi-1 of the first spatial axis of `field`, indices
    taken periodically, copied one run of consecutive planes at a time.
    np.take(mode="wrap") would first copy a non-contiguous field (such as a
    broadcast one) whole."""
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
    work array `name` of `get` (see `_buffers`) when one is given."""
    if 0 <= lo and hi <= field.shape[-3]:
        return field[..., lo:hi, :, :]
    shape = field.shape[:-3] + (hi - lo,) + field.shape[-2:]
    out = np.empty(shape, field.dtype) if get is None else get(name, shape, field.dtype)
    return _gather(field, lo, hi, out)


def _buffers():
    """get(name, shape, dtype=complex): a work array that is allocated at the
    first request for `name` and reused by every later one, so slabs after
    the first allocate nothing.  A smaller request (the narrower last slab,
    or a stage on fewer planes) gets the leading part of it."""
    flat = {}

    def get(name, shape, dtype=complex):
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


def _momentum(
    psi: np.ndarray, ea: np.ndarray, axis: int, h: float, out=None, scratch=None
) -> np.ndarray:
    """Pi_axis psi = (-i D_axis - e A_axis) psi on the x-planes that `ea`
    (e A_axis there) covers, written to `out` (a new array when it is None).
    `psi` holds those planes and an equal halo at each end of its first
    spatial axis; without a halo it is periodic in x.  e A psi is formed one
    component at a time in `scratch`, a complex array of `ea`'s shape."""
    halo = (psi.shape[-3] - ea.shape[-3]) // 2
    out = _difference(psi, psi.ndim - 3 + axis, halo, out)
    # one complex product by -i/(2h): the bits of scaling by 1/(2h) and
    # then by -i, up to the sign of zeros, in one pass instead of two
    out *= -0.5j / h
    core = _trim(psi, halo)
    if scratch is None:
        scratch = np.empty(ea.shape, dtype=complex)
    for comp in np.ndindex(out.shape[:-3]):
        np.multiply(ea, core[comp], out=scratch)
        out[comp] -= scratch
    return out


def covariant_momentum_apply(
    f: GaugeField, psi: np.ndarray, axis: int, e_charge: float = 1.0
) -> np.ndarray:
    """Pi_axis psi = (-i D_axis - e A_axis) psi with periodic centered differences."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    return _momentum(np.ascontiguousarray(psi, dtype=complex), e_charge * f.a[axis], axis, f.h)


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


def _sigma_pi(
    psi: np.ndarray, ea: np.ndarray, h: float, out, momentum, scratch=None
) -> np.ndarray:
    """out = sigma.Pi psi on the x-planes that `ea` (e A) covers, halo as in
    `_momentum`; `momentum` holds each Pi_axis psi in turn."""
    out.fill(0)
    for axis in range(3):
        _spin_apply(PAULI[axis], _momentum(psi, ea[axis], axis, h, momentum, scratch), out)
    return out


def sigma_pi_apply(f: GaugeField, psi: np.ndarray, e_charge: float = 1.0) -> np.ndarray:
    psi = np.ascontiguousarray(psi, dtype=complex)
    return _sigma_pi(psi, e_charge * f.a, f.h, np.empty_like(psi), np.empty_like(psi))


def _sq_norm(psi: np.ndarray, work=None) -> float:
    """sum |psi|^2: the real and imaginary parts squared into `work` (an
    array like psi, which may be psi itself; a new one when it is None) and
    added by numpy's pairwise sum.  The last axis of psi is contiguous."""
    squares = None if work is None else work.view(np.float64)
    return float(np.sum(np.square(psi.view(np.float64), out=squares)))


def _over_slabs(slab, n: int, halo: int) -> list:
    """[slab(lo, hi, halo) for each slab of `_SLAB_PLANES` x-planes lo..hi-1],
    in slab order.  The last slab may be narrower; a box of at most that many
    planes is one slab, whose halo wraps around it."""
    return [slab(lo, min(lo + _SLAB_PLANES, n), halo) for lo in range(0, n, _SLAB_PLANES)]


def _checked_state(f: GaugeField, psi, components=None) -> np.ndarray:
    """psi as a C-ordered complex array (a copy only of other layouts or
    dtypes), which must be (c, N, N, N) with N = f.n and c in `components`
    (any c >= 1 when it is None)."""
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


def _norm_ratio(parts) -> float:
    """sqrt(sum of residual^2 / sum of |psi|^2) from (residual^2, |psi|^2)
    slab parts, added in slab order."""
    residual = sum(p[0] for p in parts)
    norm = sum(p[1] for p in parts)
    _check_sums(residual, norm)
    if norm == 0:
        raise ValueError("psi is zero, or too small to square")
    return math.sqrt(residual) / math.sqrt(norm)


def pauli_identity_check(f: GaugeField, psi: np.ndarray, e_charge: float = 1.0) -> float:
    """|| (sigma.Pi)^2 psi - (Pi^2 - e sigma.B) psi ||_2 / ||psi||_2.

    Pi_a psi is formed once per axis and feeds both sigma.Pi psi and
    Pi_a Pi_a psi: nine stencil applications in all.  Pi_x is applied
    twice, so slabs carry a halo of two planes."""
    psi = _checked_state(f, psi, (2,))
    _check_finite(e_charge=e_charge)
    get = _buffers()

    def slab(lo, hi, halo):
        # sigma.Pi psi is needed one plane beyond the slab, for the outer Pi_x
        inner = halo - 1
        psi_s = _planes(psi, lo - halo, hi + halo, get, "psi")
        ea_in = get("ea", (3, hi - lo + 2 * inner) + psi.shape[-2:], float)
        np.multiply(_planes(f.a, lo - inner, hi + inner, get, "ea"), e_charge, out=ea_in)
        ea = _trim(ea_in, inner)
        sites = ea.shape[1:]
        pi = get("pi", (len(psi),) + ea_in.shape[1:])
        sigma_pi = get("sigma_pi", pi.shape)
        rhs = get("rhs", (len(psi),) + sites)
        pi_pi = get("pi_pi", rhs.shape)
        sigma_pi.fill(0)
        for axis in range(3):
            _momentum(psi_s, ea_in[axis], axis, f.h, pi, get("scratch", ea_in.shape[1:]))
            _spin_apply(PAULI[axis], pi, sigma_pi)
            # Pi_x Pi_x psi goes straight to rhs, the others are added to it
            scratch = get("scratch", sites)
            outer = _momentum(pi, ea[axis], axis, f.h, pi_pi if axis else rhs, scratch)
            if axis:
                rhs += outer
        # rhs -= e sigma.B psi, as two coefficient rows: -e B_z on the
        # diagonal, -e (B_x - i B_y) above it and its conjugate below
        core = _trim(psi_s, halo)
        b = _planes(f.b, lo, hi)
        bz = get("bz", sites, float)
        np.multiply(b[2], -e_charge, out=bz)
        bxy = get("bxy", sites)
        np.multiply(b[0], -e_charge, out=bxy.real)
        np.multiply(b[1], e_charge, out=bxy.imag)
        term = get("scratch", sites)
        rhs[0] += np.multiply(core[0], bz, out=term)
        rhs[0] += np.multiply(core[1], bxy, out=term)
        rhs[1] -= np.multiply(core[1], bz, out=term)
        rhs[1] += np.multiply(core[0], np.conjugate(bxy, out=bxy), out=term)
        # sigma.Pi (sigma.Pi psi) goes into the free Pi psi buffer
        lhs = _sigma_pi(sigma_pi, ea, f.h, get("pi", rhs.shape), pi_pi, term)
        lhs -= rhs
        return _sq_norm(lhs, lhs), _sq_norm(core, rhs)

    return _norm_ratio(_over_slabs(slab, f.n, 2))


def commutator_check(f: GaugeField, psi: np.ndarray, e_charge: float = 1.0) -> float:
    """|| [Pi_x, Pi_y] psi - i e B_z psi || / ||psi||; the source of the
    sigma.B term.  Pi_x is applied once, so slabs carry a one-plane halo."""
    psi = _checked_state(f, psi)
    _check_finite(e_charge=e_charge)
    get = _buffers()

    def slab(lo, hi, halo):
        psi_s = _planes(psi, lo - halo, hi + halo, get, "psi")
        ea_s = get("ea", (2,) + psi_s.shape[1:], float)
        np.multiply(_planes(f.a[:2], lo - halo, hi + halo, get, "ea"), e_charge, out=ea_s)
        ea = _trim(ea_s, halo)
        sites = ea.shape[1:]
        core_shape = (len(psi),) + sites
        inner = get("inner", psi_s.shape)
        _momentum(psi_s, ea_s[1], 1, f.h, inner, get("scratch", psi_s.shape[1:]))
        scratch = get("scratch", sites)
        residual = _momentum(inner, ea[0], 0, f.h, get("residual", core_shape), scratch)
        # the second inner Pi goes into the first one's buffer
        inner = _momentum(psi_s, ea[0], 0, f.h, get("inner", core_shape), scratch)
        outer = _momentum(inner, ea[1], 1, f.h, get("outer", core_shape), scratch)
        residual -= outer
        # residual -= i e B_z psi, with the factor i as a swap of real and
        # imaginary parts
        core = _trim(psi_s, halo)
        ebz = get("ebz", sites, float)
        np.multiply(_planes(f.b[2], lo, hi), e_charge, out=ebz)
        for comp in range(len(psi)):
            _add_term(residual[comp], -1j, np.multiply(core[comp], ebz, out=scratch))
        return _sq_norm(residual, residual), _sq_norm(core, outer)

    return _norm_ratio(_over_slabs(slab, f.n, 1))


def pauli_hamiltonian_apply(
    f: GaugeField, psi: np.ndarray, m: float, e_charge: float = 1.0
) -> np.ndarray:
    """H psi = (sigma.Pi)^2 psi / (2m) + e A0 psi."""
    if m <= 0:
        raise ValueError("mass must be positive")
    return sigma_pi_apply(f, sigma_pi_apply(f, psi, e_charge), e_charge) / (
        2.0 * m
    ) + e_charge * f.a0 * psi


def inner_product(phi: np.ndarray, psi: np.ndarray, h: float) -> complex:
    return complex(np.sum(np.conj(phi) * psi) * h**3)


def hermiticity_deviation(
    f: GaugeField, phi: np.ndarray, psi: np.ndarray, m: float, e_charge: float = 1.0
) -> float:
    phi = np.ascontiguousarray(phi, dtype=complex)
    psi = np.ascontiguousarray(psi, dtype=complex)
    lhs = inner_product(phi, pauli_hamiltonian_apply(f, psi, m, e_charge), f.h)
    rhs = inner_product(pauli_hamiltonian_apply(f, phi, m, e_charge), psi, f.h)
    norms = math.sqrt(_sq_norm(phi)) * math.sqrt(_sq_norm(psi))
    return abs(lhs - rhs) / (norms * f.h**3)


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


def _coefficient_rows(e_set):
    """(E - eA0) eta + m eta^+ as rows of terms phase * field * psi[b].

    Each nonzero entry is a phase, 1 or i, times a real per-site field
    alpha (E - eA0) + beta m.  Returns (rows, pairs): pairs lists the
    distinct (alpha, beta), and rows[a] the (b, phase, index into pairs) of
    row a, real phases first.  For the standard set the fields are
    +-(E - eA0 + m)/sqrt(2) and (E - eA0 - m)/sqrt(2)."""
    pairs, rows = [], []
    for eta_row, dagger_row in zip(e_set.eta, e_set.eta_dagger):
        row = []
        for b in np.flatnonzero((eta_row != 0) | (dagger_row != 0)):
            for phase in (1, 1j):
                alpha, beta = eta_row[b] * phase.conjugate(), dagger_row[b] * phase.conjugate()
                if alpha.imag == 0 and beta.imag == 0:
                    break
            else:
                raise ValueError("an eta entry is not a phase 1 or i times a real pair")
            pair = (float(alpha.real), float(beta.real))
            if pair not in pairs:
                pairs.append(pair)
            row.append((b, phase, pairs.index(pair)))
        rows.append(sorted(row, key=lambda term: term[1] != 1))
    return rows, pairs


def _row_fields(pairs, kinetic: np.ndarray, m: float, get) -> np.ndarray:
    """alpha_j * kinetic + beta_j * m for the (alpha, beta) pairs, in the
    work array "fields" of `get`."""
    out = get("fields", (len(pairs),) + kinetic.shape, float)
    for field, (alpha, beta) in zip(out, pairs):
        np.multiply(kinetic, alpha, out=field)
        field += beta * m
    return out


def _row_sum(*factors: np.ndarray) -> complex:
    """sum of the product of `factors`: each row along the last axis by one
    einsum, then the row sums added pairwise by np.sum.  A flat einsum adds
    sequentially and loses digits; np.vdot goes through BLAS, which is
    slower here and wakes its threads."""
    subscripts = ",".join(["...k"] * len(factors)) + "->..."
    return complex(np.sum(np.einsum(subscripts, *factors)))


def _neighbour_sum(here, there: np.ndarray, axis: int, halo: int) -> complex:
    """sum_x prod(here)(x) * there(x + e_axis) over the sites of the arrays in
    `here`; `there` holds those sites and `halo` planes at each end of its
    first axis, and is periodic along any axis without a halo."""
    if halo and axis == 0:
        return _row_sum(*here, there[halo + 1 : halo + 1 + len(here[0])])
    there = _trim(there, halo)
    lead = (slice(None),) * axis
    body = _row_sum(*(v[lead + (slice(None, -1),)] for v in here), there[lead + (slice(1, None),)])
    seam = _row_sum(*(v[lead + (-1,)] for v in here), there[lead + (0,)])
    return body + seam


def _hopping_form(psi4, conj, gamma, axis, h, weight, scale, get, link=None) -> complex:
    """sum_ab gamma_ab [-i (L_ab - conj L_ba) / (2h) + scale W_ab] over the
    x-planes that `conj` (conj psi there) covers, halo as in `_momentum`, with
    L_ab = sum_x conj psi_a(x) link(x) psi_b(x + e_axis) (link = 1 when None)
    and W_ab = sum_x weight(x) conj psi_a psi_b for a real `weight`.

    With link = 1, weight = A_axis and scale = -e it is
    sum psi^+ gamma^axis Pi_axis psi: the centered difference is the
    forward hop minus the backward one, and the backward hop summed over
    the box is the conjugate of the transposed forward one.  Every L_ab and
    W_ab is reduced straight to a scalar; W_ba = conj W_ab."""
    halo = (psi4.shape[-3] - conj.shape[-3]) // 2
    core = _trim(psi4, halo)
    needed = (gamma != 0) | (gamma.T != 0)
    hops = np.zeros(gamma.shape, dtype=complex)
    local = np.zeros(gamma.shape, dtype=complex)
    term = get("term", conj.shape[1:])
    for a in range(len(gamma)):
        here = (conj[a],) if link is None else (conj[a], link)
        for b in np.flatnonzero(needed[a]):
            hops[a, b] = _neighbour_sum(here, psi4[b], axis, halo)
        upper = np.flatnonzero(needed[a, a:]) + a
        if upper.size:
            np.multiply(conj[a], weight, out=term)
            for b in upper:
                value = _row_sum(term, core[b])
                local[b, a] = value.conjugate()
                local[a, b] = value
    return complex(np.sum(gamma * (-0.5j / h * (hops - hops.conj().T) + scale * local)))


def _form(psi4, conj, potential, e_charge, fields, rows, h, g, get) -> complex:
    """sum psi^+ [ (E - eA0) eta + gamma^i Pi_i + m eta^+ ] psi over the
    x-planes that `potential` (A there) covers, halo as in
    `_momentum`; `conj` holds conj(psi) on those planes.

    The eta terms come from the coefficient rows of `_coefficient_rows`
    over the per-site `fields`, each reduced with its conj(psi_a) straight
    to a scalar (or conjugated from its transpose when that has the same
    field); the gamma^i Pi_i terms come from `_hopping_form`.  The work
    arrays come from `get`."""
    core = _trim(psi4, (psi4.shape[-3] - conj.shape[-3]) // 2)
    scratch = get("term", core.shape[1:])
    total = 0j
    sums = {}
    for a, row in enumerate(rows):
        for b, phase, field in row:
            if (b, a, field) in sums:
                # a real field: the transposed term's sum is the conjugate
                value = sums[b, a, field].conjugate()
            else:
                value = _row_sum(conj[a], np.multiply(core[b], fields[field], out=scratch))
            sums[a, b, field] = value
            total += phase * value
    for axis, gamma in enumerate((g.gamma1, g.gamma2, g.gamma3)):
        total += _hopping_form(psi4, conj, gamma, axis, h, potential[axis], -e_charge, get)
    return total


def wave_form_value(
    f: GaugeField,
    psi: np.ndarray,
    e_energy: float,
    m: float,
    e_charge: float = 1.0,
) -> complex:
    """Quadratic form of the first-order operator,
    sum psi^+ [ (E - eA0) eta + gamma^i Pi_i + m eta^+ ] psi * h^3."""
    g = build_standard_gammas()
    rows, pairs = _coefficient_rows(build_eta(g))
    get = _buffers()
    psi4 = _four_component_planes(np.ascontiguousarray(psi, dtype=complex), 0, f.n, get)
    conj = np.conjugate(psi4, out=get("conj", psi4.shape))
    fields = _row_fields(pairs, e_energy - e_charge * f.a0, m, get)
    return _form(psi4, conj, f.a, e_charge, fields, rows, f.h, g, get) * f.h**3


def _gauge_change(psi4, conj, theta_s, gamma, axis, e_charge, h, get) -> complex:
    """The axis-`axis` part of q1 - q0 (see `gauge_invariance_check`) over the
    x-planes that `conj` covers; `psi4` and `theta_s` hold them and an equal
    halo at each end of the first spatial axis."""
    halo = (psi4.shape[-3] - conj.shape[-3]) // 2
    sites = conj.shape[1:]
    # u = exp(-ie delta) - 1 = -2 sin^2(e delta / 2) - i sin(e delta): both
    # parts without the cancellation of cos(e delta) - 1
    angle = _difference(theta_s, axis, halo, get("angle", sites, float), centered=False)
    angle *= -e_charge
    link = get("link", sites)
    np.sin(angle, out=link.imag)
    angle *= 0.5
    np.sin(angle, out=angle)
    np.square(angle, out=angle)
    np.multiply(angle, -2.0, out=link.real)
    # theta(x + e_i) - theta(x - e_i), the potential shift times 2h
    shift = _difference(theta_s, axis, halo, get("angle", sites, float))
    return _hopping_form(psi4, conj, gamma, axis, h, shift, e_charge / (2.0 * h), get, link)


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
    + e P^i_ab] / (2h).  q0 and q1 - q0 are taken in one pass over slabs
    with a one-plane halo; theta is read slab by slab and may be a
    broadcast view.
    """
    g = build_standard_gammas()
    rows, pairs = _coefficient_rows(build_eta(g))
    psi = _checked_state(f, psi, (2, 4))
    theta = np.asarray(theta)
    if theta.shape != (f.n,) * 3 or np.iscomplexobj(theta):
        raise ValueError(
            f"theta must be real with shape ({f.n}, {f.n}, {f.n}); got {theta.dtype} {theta.shape}"
        )
    _check_finite(e_energy=e_energy, m=m, e_charge=e_charge)
    get = _buffers()

    def slab(lo, hi, halo):
        sites = (hi - lo,) + psi.shape[-2:]
        psi4 = _four_component_planes(psi, lo - halo, hi + halo, get)
        core = _trim(psi4, halo)
        conj = np.conjugate(core, out=get("conj", core.shape))
        kinetic = get("kinetic", sites, float)
        np.multiply(_planes(f.a0, lo, hi), e_charge, out=kinetic)
        np.subtract(e_energy, kinetic, out=kinetic)
        fields = _row_fields(pairs, kinetic, m, get)
        q0 = _form(psi4, conj, _planes(f.a, lo, hi), e_charge, fields, rows, f.h, g, get)
        # a contiguous copy even where the planes do not wrap: `_difference`
        # takes each block flat
        wide = (hi - lo + 2 * halo,) + psi.shape[-2:]
        theta_s = _gather(theta, lo - halo, hi + halo, get("theta", wide, float))
        change = sum(
            _gauge_change(psi4, conj, theta_s, gamma, axis, e_charge, f.h, get)
            for axis, gamma in enumerate((g.gamma1, g.gamma2, g.gamma3))
        )
        return q0, change

    parts = _over_slabs(slab, f.n, 1)
    q0 = sum(p[0] for p in parts) * f.h**3
    change = sum(p[1] for p in parts) * f.h**3
    _check_sums(q0, change)
    if q0 == 0:
        raise ValueError("the quadratic form of psi is zero, or too small to represent")
    return abs(change) / abs(q0)


def commensurate_theta(n: int, extent: float, amplitude: float = 0.4) -> np.ndarray:
    """Gauge function completing a whole period across the box (smooth seam),
    as a read-only broadcast view of its (N, 1, 1) profile along x."""
    (x, _, _), _ = grid_coordinates(n, extent)
    return np.broadcast_to(amplitude * np.sin(2.0 * np.pi * x / extent), (n, n, n))


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
    residual should fall by about 4x.
    """
    rows = []
    for n in sizes:
        f = uniform_b_field(n, extent, bz)
        psi = gaussian_bump_state(n, extent)
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
