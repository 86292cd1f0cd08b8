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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import PAULI, build_eta, build_standard_gammas


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
    """Cell-centered coordinates spanning [-extent/2, extent/2)."""
    h = extent / n
    axis = (np.arange(n) - n / 2) * h
    return np.meshgrid(axis, axis, axis, indexing="ij"), h


def uniform_b_field(n: int, extent: float, bz: float) -> GaugeField:
    """Symmetric gauge A = (-Bz*y/2, Bz*x/2, 0) for a uniform field along z."""
    (x, y, _), h = grid_coordinates(n, extent)
    zero = np.zeros((n, n, n))
    a = np.stack([-0.5 * bz * y, 0.5 * bz * x, zero])
    b = np.stack([zero, zero, np.full((n, n, n), bz)])
    return GaugeField(a0=zero, a=a, b=b, h=h, n=n)


def gaussian_bump_state(n: int, extent: float, sigma: float | None = None) -> np.ndarray:
    """Two-component localized test state; decays to ~1e-8 at the seam."""
    (x, y, z), _ = grid_coordinates(n, extent)
    sigma = sigma if sigma is not None else extent / 12.0
    bump = np.exp(-(x**2 + y**2 + z**2) / (2.0 * sigma**2))
    upper = bump * (1.0 + 0.3j)
    lower = bump * (0.5 - 0.2j) * np.cos(2.0 * np.pi * x / extent)
    return np.stack([upper, lower])


def _centered_diff(field: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Periodic (f[i+1] - f[i-1]) / (2h) along `axis`, written by slices into
    one new array: the interior and the two wrap planes."""
    out = np.empty_like(field)
    src = np.moveaxis(field, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    np.subtract(src[2:], src[:-2], out=dst[1:-1])
    np.subtract(src[1], src[-1], out=dst[0])
    np.subtract(src[0], src[-2], out=dst[-1])
    if np.iscomplexobj(out):
        # numpy divides a complex number by a real one as a product with the
        # reciprocal, so this gives the bits of `/ (2h)` at half the cost
        out *= 1.0 / (2.0 * h)
    else:
        out /= 2.0 * h
    return out


def covariant_momentum_apply(
    f: GaugeField, psi: np.ndarray, axis: int, e_charge: float = 1.0
) -> np.ndarray:
    """Pi_axis psi = (-i D_axis - e A_axis) psi with periodic centered differences."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    psi = np.asarray(psi, dtype=complex)
    out = _centered_diff(psi, psi.ndim - 3 + axis, f.h)
    out *= -1j
    out -= (e_charge * f.a[axis]) * psi
    return out


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


def sigma_pi_apply(f: GaugeField, psi: np.ndarray, e_charge: float = 1.0) -> np.ndarray:
    out = np.zeros_like(psi, dtype=complex)
    for axis in range(3):
        _spin_apply(PAULI[axis], covariant_momentum_apply(f, psi, axis, e_charge), out)
    return out


def _norm(psi: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(psi) ** 2)))


def pauli_identity_check(f: GaugeField, psi: np.ndarray, e_charge: float = 1.0) -> float:
    """|| (sigma.Pi)^2 psi - (Pi^2 - e sigma.B) psi ||_2 / ||psi||_2.

    Pi_a psi is formed once per axis, feeds both sigma.Pi psi and
    Pi_a Pi_a psi, and is dropped before the next axis: nine stencil
    applications in all."""
    sigma_pi = np.zeros_like(psi, dtype=complex)
    rhs = np.zeros_like(psi, dtype=complex)
    for axis in range(3):
        pi_psi = covariant_momentum_apply(f, psi, axis, e_charge)
        _spin_apply(PAULI[axis], pi_psi, sigma_pi)
        rhs += covariant_momentum_apply(f, pi_psi, axis, e_charge)
        del pi_psi
    for axis in range(3):
        _spin_apply(PAULI[axis], psi, rhs, -e_charge * f.b[axis])
    lhs = sigma_pi_apply(f, sigma_pi, e_charge)
    del sigma_pi
    lhs -= rhs
    return _norm(lhs) / _norm(psi)


def commutator_check(f: GaugeField, psi: np.ndarray, e_charge: float = 1.0) -> float:
    """|| [Pi_x, Pi_y] psi - i e B_z psi || / ||psi||; the source of the
    sigma.B term."""
    residual = covariant_momentum_apply(
        f, covariant_momentum_apply(f, psi, 1, e_charge), 0, e_charge
    )
    residual -= covariant_momentum_apply(
        f, covariant_momentum_apply(f, psi, 0, e_charge), 1, e_charge
    )
    residual -= 1j * e_charge * f.b[2] * psi
    return _norm(residual) / _norm(psi)


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
    return abs(lhs - rhs) / (_norm(phi) * _norm(psi) * f.h**3)


def _four_component_state(psi: np.ndarray) -> np.ndarray:
    """Populate the lower pair from a shifted copy so every block of the wave
    operator contributes to the quadratic form."""
    if psi.shape[0] == 4:
        return psi
    n = psi.shape[1]
    lower = 0.7 * np.roll(psi, n // 8, axis=1)
    return np.concatenate([psi, lower], axis=0)


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
    psi4 = _four_component_state(psi)
    applied = np.zeros_like(psi4, dtype=complex)
    _spin_apply(e_set.eta, psi4, applied, e_energy - e_charge * f.a0)
    for axis, gamma in enumerate((g.gamma1, g.gamma2, g.gamma3)):
        _spin_apply(gamma, covariant_momentum_apply(f, psi4, axis, e_charge), applied)
    _spin_apply(e_set.eta_dagger, psi4, applied, m)
    # one component at a time, so no state-sized temporary is made
    for comp in range(applied.shape[0]):
        applied[comp] *= np.conj(psi4[comp])
    return complex(np.sum(applied) * f.h**3)


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
    e_charge = 0; O(h^2) otherwise.
    """
    psi4 = _four_component_state(psi)
    q0 = wave_form_value(f, psi4, e_energy, m, e_charge)
    psi4 = np.exp(-1j * e_charge * theta) * psi4
    a_t = f.a.copy()
    for axis in range(3):
        a_t[axis] -= _centered_diff(theta, axis, f.h)
    f_t = GaugeField(a0=f.a0, a=a_t, b=f.b, h=f.h, n=f.n)
    q1 = wave_form_value(f_t, psi4, e_energy, m, e_charge)
    return abs(q1 - q0) / max(abs(q0), 1e-300)


def commensurate_theta(n: int, extent: float, amplitude: float = 0.4) -> np.ndarray:
    """Gauge function completing a whole period across the box (smooth seam)."""
    (x, _, _), _ = grid_coordinates(n, extent)
    return amplitude * np.sin(2.0 * np.pi * x / extent)


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
