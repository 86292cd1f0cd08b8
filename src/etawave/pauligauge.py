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

The checks run over slabs of x-planes (the first spatial axis, contiguous in
the C-ordered (component, x, y, z) arrays), each gathered with a periodic
halo, so every work array is slab-sized.  The slabs run one after another
on the calling thread and their partial sums are added in slab order.  A
check allocates its work arrays at its first (widest) slab and every later
slab writes into them, so the slab loop allocates nothing; stages reuse
the arrays an earlier stage has finished with.  Slabs stream from memory,
so their time goes with the number of passes over slab-sized arrays: the
eta terms of the wave operator and the e sigma.B term are applied as
per-site coefficient rows, one product per term, and factors of +-i as
swaps of real and imaginary parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import PAULI, build_eta, build_standard_gammas

# sites per slab: at N = 128 that is sixteen x-planes, whose 4-component
# temporaries (16 MB each) stream from memory.  Slabs that fit in the
# last-level cache ran faster, but their speed rose and fell with the cache
# traffic of other tenants of a shared host: the run-to-run spread of
# convergence_table was about twice that of streaming slabs.  A box of at
# most this many sites is one slab.
_SLAB_SITES = 2**18


@dataclass(frozen=True)
class GaugeField:
    """Potentials and the analytic magnetic field on a uniform periodic grid."""

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
    """Symmetric gauge A = (-Bz*y/2, Bz*x/2, 0) for a uniform field along z."""
    (x, y, _), h = grid_coordinates(n, extent)
    a = np.zeros((3, n, n, n))
    a[0] = -0.5 * bz * y
    a[1] = 0.5 * bz * x
    b = np.zeros((3, n, n, n))
    b[2] = bz
    return GaugeField(a0=np.zeros((n, n, n)), a=a, b=b, h=h, n=n)


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


def _planes(field: np.ndarray, lo: int, hi: int, get=None, name=None) -> np.ndarray:
    """Planes lo..hi-1 of the first spatial axis of `field`, indices taken
    periodically: a view when they do not wrap, else a copy, written to the
    work array `name` of `get` (see `_buffers`) when one is given."""
    if 0 <= lo and hi <= field.shape[-3]:
        return field[..., lo:hi, :, :]
    out = None
    if get is not None:
        out = get(name, field.shape[:-3] + (hi - lo,) + field.shape[-2:], field.dtype)
    return np.take(field, np.arange(lo, hi), axis=-3, mode="wrap", out=out)


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


def _difference(field: np.ndarray, axis: int, halo: int = 0, out=None) -> np.ndarray:
    """f[i+1] - f[i-1] along array `axis`, on `_trim(field, halo)`, written to
    `out` (a new array when it is None).

    Along the first spatial axis a halo supplies the neighbours.  Along any
    other axis, or without a halo, the difference is periodic, written by
    slices: the interior and the two wrap planes."""
    x = field.ndim - 3
    if halo and axis == x:
        k = field.shape[x]
        return np.subtract(
            field[..., halo + 1 : k - halo + 1, :, :],
            field[..., halo - 1 : k - halo - 1, :, :],
            out=out,
        )
    core = _trim(field, halo)
    if out is None:
        out = np.empty_like(core)
    src = np.moveaxis(core, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    np.subtract(src[2:], src[:-2], out=dst[1:-1])
    np.subtract(src[1], src[-1], out=dst[0])
    np.subtract(src[0], src[-2], out=dst[-1])
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
    return _momentum(np.asarray(psi, dtype=complex), e_charge * f.a[axis], axis, f.h)


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
    psi = np.asarray(psi, dtype=complex)
    return _sigma_pi(psi, e_charge * f.a, f.h, np.empty_like(psi), np.empty_like(psi))


def _sq_norm(psi: np.ndarray, work=None) -> float:
    """sum |psi|^2: the real and imaginary parts squared into `work` (an
    array like psi, which may be psi itself; a new one when it is None) and
    added by numpy's pairwise sum.  The last axis of psi is contiguous."""
    squares = None if work is None else work.view(np.float64)
    return float(np.sum(np.square(psi.view(np.float64), out=squares)))


def _over_slabs(slab, n: int, halo: int) -> list:
    """[slab(lo, hi, halo) for each slab of x-planes lo..hi-1], in slab order.

    A box of at most `_SLAB_SITES` sites is one periodic slab without a
    halo.  The first slab is the widest."""
    width = max(1, _SLAB_SITES // (n * n))
    if width >= n:
        return [slab(0, n, 0)]
    return [slab(lo, min(lo + width, n), halo) for lo in range(0, n, width)]


def _norm_ratio(parts) -> float:
    """sqrt(sum of residual^2 / sum of |psi|^2) from (residual^2, |psi|^2)
    slab parts, added in slab order."""
    return math.sqrt(sum(p[0] for p in parts)) / math.sqrt(sum(p[1] for p in parts))


def pauli_identity_check(f: GaugeField, psi: np.ndarray, e_charge: float = 1.0) -> float:
    """|| (sigma.Pi)^2 psi - (Pi^2 - e sigma.B) psi ||_2 / ||psi||_2.

    Pi_a psi is formed once per axis and feeds both sigma.Pi psi and
    Pi_a Pi_a psi: nine stencil applications in all.  Pi_x is applied
    twice, so slabs carry a halo of two planes."""
    psi = np.ascontiguousarray(psi, dtype=complex)
    get = _buffers()

    def slab(lo, hi, halo):
        # sigma.Pi psi is needed one plane beyond the slab, for the outer Pi_x
        inner = max(halo - 1, 0)
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
    psi = np.ascontiguousarray(psi, dtype=complex)
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
    np.take(psi, np.arange(lo, hi), axis=-3, mode="wrap", out=out[:2])
    np.take(psi, np.arange(lo - shift, hi - shift), axis=-3, mode="wrap", out=out[2:])
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


def _form(psi4, ea, fields, rows, h, g, get) -> complex:
    """sum psi^+ [ (E - eA0) eta + gamma^i Pi_i + m eta^+ ] psi over the
    x-planes that `ea` (e A) covers, halo as in `_momentum`.

    The eta terms come from the coefficient rows of `_coefficient_rows`
    over the per-site `fields`: per row one product, then one product and
    add for each further term.  gamma^i Pi_i is added one component of
    Pi_i psi at a time.  The work arrays come from `get`."""
    core = _trim(psi4, (psi4.shape[-3] - ea.shape[-3]) // 2)
    applied = get("applied", core.shape)
    momentum = get("momentum", core.shape[1:])
    scratch = get("scratch", core.shape[1:])
    for a, ((b, phase, field), *more) in enumerate(rows):
        np.multiply(core[b], fields[field], out=applied[a])
        if phase != 1:
            applied[a] *= phase
        for b, phase, field in more:
            _add_term(applied[a], phase, np.multiply(core[b], fields[field], out=scratch))
    for axis, gamma in enumerate((g.gamma1, g.gamma2, g.gamma3)):
        for b in range(len(gamma)):
            targets = np.flatnonzero(gamma[:, b])
            if targets.size:
                _momentum(psi4[b], ea[axis], axis, h, momentum, scratch)
                for a in targets:
                    _add_term(applied[a], gamma[a, b], momentum)
    for comp in range(len(applied)):
        applied[comp] *= np.conjugate(core[comp], out=scratch)
    return complex(np.sum(applied))


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
    psi4 = _four_component_planes(np.asarray(psi, dtype=complex), 0, f.n, get)
    fields = _row_fields(pairs, e_energy - e_charge * f.a0, m, get)
    return _form(psi4, e_charge * f.a, fields, rows, f.h, g, get) * f.h**3


def gauge_invariance_check(
    f: GaugeField,
    theta: np.ndarray,
    psi: np.ndarray,
    e_energy: float,
    m: float,
    e_charge: float = 1.0,
) -> float:
    """Relative change of the quadratic form under psi -> exp(-ie theta) psi
    with the matching potential shift A -> A - grad theta (discrete gradient).

    With Pi = -i d - e A the compensating shift for the exp(-ie theta) phase
    carries a minus sign; the exp(+ie theta) / A + grad theta pairing is the
    same transformation with theta negated.  Exact for constant theta or
    e_charge = 0; O(h^2) otherwise.  Both forms are taken in one pass over
    slabs with a one-plane halo, and share the per-site coefficient fields.
    """
    g = build_standard_gammas()
    rows, pairs = _coefficient_rows(build_eta(g))
    psi = np.asarray(psi, dtype=complex)
    theta = np.asarray(theta)
    get = _buffers()

    def slab(lo, hi, halo):
        sites = (hi - lo,) + psi.shape[-2:]
        wide = (hi - lo + 2 * halo,) + psi.shape[-2:]
        psi4 = _four_component_planes(psi, lo - halo, hi + halo, get)
        a = _planes(f.a, lo, hi)
        ea = get("ea", (3,) + sites, float)
        np.multiply(a, e_charge, out=ea)
        kinetic = get("kinetic", sites, float)
        np.multiply(_planes(f.a0, lo, hi), e_charge, out=kinetic)
        np.subtract(e_energy, kinetic, out=kinetic)
        fields = _row_fields(pairs, kinetic, m, get)
        q0 = _form(psi4, ea, fields, rows, f.h, g, get)
        theta_s = _planes(theta, lo - halo, hi + halo, get, "theta")
        for axis in range(3):
            shift = _difference(theta_s, axis, halo, ea[axis])
            shift /= 2.0 * f.h
            np.subtract(a[axis], shift, out=shift)
            shift *= e_charge
        phase = get("phase", wide)
        np.multiply(theta_s, -1j * e_charge, out=phase)
        np.exp(phase, out=phase)
        # in place when psi4 is the slab's own buffer, never in the caller's psi
        psi4 = np.multiply(psi4, phase, out=get("psi4", (4,) + wide))
        q1 = _form(psi4, ea, fields, rows, f.h, g, get)
        return q0, q1

    parts = _over_slabs(slab, f.n, 1)
    q0 = sum(p[0] for p in parts) * f.h**3
    q1 = sum(p[1] for p in parts) * f.h**3
    return abs(q1 - q0) / max(abs(q0), 1e-300)


def commensurate_theta(n: int, extent: float, amplitude: float = 0.4) -> np.ndarray:
    """Gauge function completing a whole period across the box (smooth seam)."""
    (x, _, _), _ = grid_coordinates(n, extent)
    return np.broadcast_to(amplitude * np.sin(2.0 * np.pi * x / extent), (n, n, n)).copy()


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
