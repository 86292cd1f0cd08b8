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
halo, so every temporary is slab-sized.  The slabs run one after another
on the calling thread and their partial sums are added in slab order.
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


def _planes(field: np.ndarray, lo: int, hi: int, out=None) -> np.ndarray:
    """Planes lo..hi-1 of the first spatial axis of `field`, indices taken
    periodically; a view when they do not wrap and no `out` is given."""
    if out is None and 0 <= lo and hi <= field.shape[-3]:
        return field[..., lo:hi, :, :]
    return np.take(field, np.arange(lo, hi), axis=-3, mode="wrap", out=out)


def _difference(field: np.ndarray, axis: int, halo: int = 0) -> np.ndarray:
    """f[i+1] - f[i-1] along array `axis`, on `_trim(field, halo)`.

    Along the first spatial axis a halo supplies the neighbours.  Along any
    other axis, or without a halo, the difference is periodic, written by
    slices into one new array: the interior and the two wrap planes."""
    x = field.ndim - 3
    if halo and axis == x:
        k = field.shape[x]
        return np.subtract(
            field[..., halo + 1 : k - halo + 1, :, :], field[..., halo - 1 : k - halo - 1, :, :]
        )
    core = _trim(field, halo)
    out = np.empty_like(core)
    src = np.moveaxis(core, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    np.subtract(src[2:], src[:-2], out=dst[1:-1])
    np.subtract(src[1], src[-1], out=dst[0])
    np.subtract(src[0], src[-2], out=dst[-1])
    return out


def _momentum(psi: np.ndarray, ea: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Pi_axis psi = (-i D_axis - e A_axis) psi on the x-planes that `ea`
    (e A_axis there) covers.  `psi` holds those planes and an equal halo at
    each end of its first spatial axis; without a halo it is periodic in x."""
    halo = (psi.shape[-3] - ea.shape[-3]) // 2
    out = _difference(psi, psi.ndim - 3 + axis, halo)
    # one complex product by -i/(2h): the bits of scaling by 1/(2h) and
    # then by -i, up to the sign of zeros, in one pass instead of two
    out *= -0.5j / h
    out -= ea * _trim(psi, halo)
    return out


def covariant_momentum_apply(
    f: GaugeField, psi: np.ndarray, axis: int, e_charge: float = 1.0
) -> np.ndarray:
    """Pi_axis psi = (-i D_axis - e A_axis) psi with periodic centered differences."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    return _momentum(np.asarray(psi, dtype=complex), e_charge * f.a[axis], axis, f.h)


def _spin_apply(matrix: np.ndarray, psi: np.ndarray, out: np.ndarray, scale=1.0) -> None:
    """out[a] += scale * matrix[a, b] * psi[b] over the nonzero entries of the
    spin matrix only; `scale` is a number or a per-site array.

    Pauli matrices have 2 nonzero entries of 4, the spatial gammas 4 of 16 and
    eta, eta^+ 8 of 16; a conjugated (dense) set takes every entry.
    """
    per_site = np.ndim(scale) > 0
    term = np.empty_like(out[0])
    for a, b in zip(*np.nonzero(matrix)):
        coeff = matrix[a, b] if per_site else matrix[a, b] * scale
        if not per_site and coeff == 1:
            out[a] += psi[b]
        elif not per_site and coeff == -1:
            out[a] -= psi[b]
        else:
            np.multiply(psi[b], coeff, out=term)
            if per_site:
                term *= scale
            out[a] += term


def _sigma_pi(psi: np.ndarray, ea: np.ndarray, h: float) -> np.ndarray:
    """sigma.Pi psi on the x-planes that `ea` (e A) covers, halo as in
    `_momentum`."""
    out = np.zeros((len(psi),) + ea.shape[1:], dtype=complex)
    for axis in range(3):
        _spin_apply(PAULI[axis], _momentum(psi, ea[axis], axis, h), out)
    return out


def sigma_pi_apply(f: GaugeField, psi: np.ndarray, e_charge: float = 1.0) -> np.ndarray:
    return _sigma_pi(np.asarray(psi, dtype=complex), e_charge * f.a, f.h)


def _sq_norm(psi: np.ndarray) -> float:
    return float(np.sum(np.abs(psi) ** 2))


def _over_slabs(slab, n: int, halo: int) -> list:
    """[slab(lo, hi, halo) for each slab of x-planes lo..hi-1], in slab order.

    A box of at most `_SLAB_SITES` sites is one periodic slab without a
    halo."""
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
    psi = np.asarray(psi, dtype=complex)

    def slab(lo, hi, halo):
        # sigma.Pi psi is needed one plane beyond the slab, for the outer Pi_x
        inner = max(halo - 1, 0)
        psi_s = _planes(psi, lo - halo, hi + halo)
        ea_in = e_charge * _planes(f.a, lo - inner, hi + inner)
        ea = _trim(ea_in, inner)
        sigma_pi = np.zeros((len(psi),) + ea_in.shape[1:], dtype=complex)
        rhs = np.zeros((len(psi),) + ea.shape[1:], dtype=complex)
        for axis in range(3):
            pi_psi = _momentum(psi_s, ea_in[axis], axis, f.h)
            _spin_apply(PAULI[axis], pi_psi, sigma_pi)
            rhs += _momentum(pi_psi, ea[axis], axis, f.h)
        core = _trim(psi_s, halo)
        b = _planes(f.b, lo, hi)
        for axis in range(3):
            _spin_apply(PAULI[axis], core, rhs, -e_charge * b[axis])
        lhs = _sigma_pi(sigma_pi, ea, f.h)
        lhs -= rhs
        return _sq_norm(lhs), _sq_norm(core)

    return _norm_ratio(_over_slabs(slab, f.n, 2))


def commutator_check(f: GaugeField, psi: np.ndarray, e_charge: float = 1.0) -> float:
    """|| [Pi_x, Pi_y] psi - i e B_z psi || / ||psi||; the source of the
    sigma.B term.  Pi_x is applied once, so slabs carry a one-plane halo."""
    psi = np.asarray(psi, dtype=complex)

    def slab(lo, hi, halo):
        psi_s = _planes(psi, lo - halo, hi + halo)
        ea_s = e_charge * _planes(f.a, lo - halo, hi + halo)
        ea = _trim(ea_s, halo)
        residual = _momentum(_momentum(psi_s, ea_s[1], 1, f.h), ea[0], 0, f.h)
        residual -= _momentum(_momentum(psi_s, ea[0], 0, f.h), ea[1], 1, f.h)
        core = _trim(psi_s, halo)
        residual -= 1j * e_charge * _planes(f.b, lo, hi)[2] * core
        return _sq_norm(residual), _sq_norm(core)

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
    lhs = inner_product(phi, pauli_hamiltonian_apply(f, psi, m, e_charge), f.h)
    rhs = inner_product(pauli_hamiltonian_apply(f, phi, m, e_charge), psi, f.h)
    norms = math.sqrt(_sq_norm(phi)) * math.sqrt(_sq_norm(psi))
    return abs(lhs - rhs) / (norms * f.h**3)


def _four_component_planes(psi: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Planes lo..hi-1 (periodic) of the 4-component state: `psi` itself when
    it has four components, else `psi` over a lower pair 0.7 psi shifted by
    N/8 along x, so every block of the wave operator enters the form."""
    if len(psi) == 4:
        return _planes(psi, lo, hi)
    shift = psi.shape[-3] // 8
    out = np.empty((4, hi - lo) + psi.shape[-2:], dtype=complex)
    _planes(psi, lo, hi, out=out[:2])
    _planes(psi, lo - shift, hi - shift, out=out[2:])
    out[2:] *= 0.7
    return out


def _form(psi4, ea, kinetic, m, h, g, e_set) -> complex:
    """sum psi^+ [ (E - eA0) eta + gamma^i Pi_i + m eta^+ ] psi over the
    x-planes that `kinetic` (E - eA0 there) and `ea` (e A) cover, halo as in
    `_momentum`."""
    core = _trim(psi4, (psi4.shape[-3] - kinetic.shape[-3]) // 2)
    applied = np.zeros(core.shape, dtype=complex)
    _spin_apply(e_set.eta, core, applied, kinetic)
    for axis, gamma in enumerate((g.gamma1, g.gamma2, g.gamma3)):
        _spin_apply(gamma, _momentum(psi4, ea[axis], axis, h), applied)
    _spin_apply(e_set.eta_dagger, core, applied, m)
    # one component at a time, so no state-sized temporary is made
    for comp in range(len(applied)):
        applied[comp] *= np.conj(core[comp])
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
    e_set = build_eta(g)
    psi4 = _four_component_planes(np.asarray(psi, dtype=complex), 0, f.n)
    kinetic = e_energy - e_charge * f.a0
    return _form(psi4, e_charge * f.a, kinetic, m, f.h, g, e_set) * f.h**3


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
    slabs with a one-plane halo.
    """
    g = build_standard_gammas()
    e_set = build_eta(g)
    psi = np.asarray(psi, dtype=complex)
    theta = np.asarray(theta)

    def slab(lo, hi, halo):
        psi4 = _four_component_planes(psi, lo - halo, hi + halo)
        a = _planes(f.a, lo, hi)
        kinetic = e_energy - e_charge * _planes(f.a0, lo, hi)
        q0 = _form(psi4, e_charge * a, kinetic, m, f.h, g, e_set)
        theta_s = _planes(theta, lo - halo, hi + halo)
        ea_t = [
            e_charge * (a[axis] - _difference(theta_s, axis, halo) / (2.0 * f.h))
            for axis in range(3)
        ]
        psi4 = np.exp(-1j * e_charge * theta_s) * psi4
        q1 = _form(psi4, ea_t, kinetic, m, f.h, g, e_set)
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
