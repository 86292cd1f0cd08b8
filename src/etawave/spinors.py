"""Component columns of the 1D eigenmodes for piecewise-constant problems.

One continuation formula produces all eight modes.  With the principal branch
p = sqrt(2m(E-V)) (real above the potential, +i*kappa below it) and

    den = E - V + m,   c = i (E - V - m) / den,   d = sqrt(2) p / den

mode_column gives the columns

    spin up,   momentum +p: (1, 0, c, -d)        spin up,   -p: (1, 0, c, d)
    spin down, momentum +p: (0, 1, d, -c)        spin down, -p: (0, 1, -d, -c)

The +p branch (positive_branch=True) travels forward above the potential
and decays below it; the -p branch travels backward or grows, and
den = -(V0 - E - m) reproduces the evanescent component pattern exactly.
Each mode is an eigenvector of (E-V) eta + m eta^+ in the 1D representation
with eigenvalue +-p (mode_eigenvalue), which is what reconstruct_eta_1d
exploits to machine-check the normalization convention instead of trusting
it.  The conserved flux of a mode is u^+ G u (mode_current), which is
2 Re d for the spin-up +p column.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import least_squares
from .waveop import complex_momentum

SQRT2 = math.sqrt(2.0)

UP = "up"
DOWN = "down"

# |V0 - E - m| below this fraction of m puts the component denominator on top
# of its pole; outside the nonrelativistic regime anyway
DENOMINATOR_RTOL = 1e-6

# residual above this signals a normalization convention inconsistent with
# any single matrix representation
RECONSTRUCTION_TOL = 1e-8


class ConventionSingularityError(ValueError):
    pass


class ConventionInconsistencyError(ValueError):
    pass


def _mode_scalars(e_energy, v, m, variant="adopted"):
    """(p, c, d) of one region: the momentum and the two scalars that fill
    every mode column there (see the module docstring).  c and d divide by
    den, whose reciprocal overflows where den is subnormal; the alpha_em
    hypothesis puts E - V - m in den instead."""
    p = complex_momentum(e_energy, v, m)
    gap = e_energy - v
    den = gap - m if variant == "alpha_em" else gap + m
    if abs(den) <= DENOMINATOR_RTOL * m:
        raise ConventionSingularityError(
            f"component denominator {den!r} too close to zero; the columns diverge"
        )
    return p, complex(0.0, (gap - m) / den), SQRT2 * p / den


def _c_shift(e_energy, v, m):
    """c(V = v) - c(V = 0) of the adopted convention, as the product
    -2i (m / (E + m)) (v / (E - v + m)), in which nothing cancels."""
    shift = (m / (e_energy + m)) * (v / (e_energy - v + m))
    if not math.isfinite(shift):
        # v / (E - v + m) overflowed (times 0 if m / (E + m) underflowed):
        # E + m is then close to v, and the other pairing of the factors is
        # of order 1 / DENOMINATOR_RTOL at most
        shift = (v / (e_energy + m)) * (m / (e_energy - v + m))
    return complex(0.0, -2.0 * shift)


def mode_column(e_energy, v, m, spin, positive_branch, variant="adopted"):
    """Component column for the +p (positive_branch) or -p eigenmode.

    variant selects the normalization hypothesis under test; "adopted" is the
    one validated by reconstruct_eta_1d.
    """
    _, c, d = _mode_scalars(e_energy, v, m, variant)
    if spin == UP:
        comps = [1.0, 0.0, c, -d] if positive_branch else [1.0, 0.0, c, d]
    elif spin == DOWN:
        comps = [0.0, 1.0, d, -c] if positive_branch else [0.0, 1.0, -d, -c]
    else:
        raise ValueError(f"unknown spin {spin!r}")
    return np.array(comps, dtype=complex)


def mode_eigenvalue(e_energy, v, m, positive_branch) -> complex:
    """+p for the positive_branch modes (forward or decaying), -p otherwise."""
    p = complex_momentum(e_energy, v, m)
    return p if positive_branch else -p


def eta_1d_reference() -> np.ndarray:
    """The 1D representation the basis columns diagonalize.

    Uniquely determined (given the column convention) by requiring every mode
    to be an eigenvector with eigenvalue +-p; reconstruct_eta_1d recovers it
    from scratch.  Nilpotent, and eta eta^+ + eta^+ eta = 2I.
    """
    return np.array(
        [
            [0, -1j, 0, -1],
            [-1j, 0, 1, 0],
            [0, 1, 0, -1j],
            [-1, 0, -1j, 0],
        ],
        dtype=complex,
    ) / SQRT2


def current_metric() -> np.ndarray:
    """Hermitian form G with G eta = eta^+ G; u^+ G u is the conserved flux."""
    sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return np.kron(sigma_y, sigma_y)


def mode_current(components) -> float:
    u = np.asarray(components, dtype=complex)
    return float(np.real(u.conj() @ current_metric() @ u))


def convention_samples(energies, m, variant="adopted"):
    """Propagating zero-potential sample sets for the reconstruction fit:
    (E, m, [(column, eigenvalue), ...]) with all four modes per energy."""
    if m <= 0:
        raise ValueError("mass must be positive")
    samples = []
    for e_energy in energies:
        if e_energy <= 0:
            raise ValueError("reconstruction samples must be propagating (E > 0)")
        modes = [
            (
                mode_column(e_energy, 0.0, m, spin, branch, variant),
                mode_eigenvalue(e_energy, 0.0, m, branch),
            )
            for spin in (UP, DOWN)
            for branch in (True, False)
        ]
        samples.append((e_energy, m, modes))
    return samples


def _fit_eta(samples):
    """Least-squares eta from (E eta + m eta^+) u = lambda u, as a real
    system in [Re vec eta; Im vec eta]: with a = E kron(I4, u) acting on
    vec eta and b = m kron(u, I4) on its conjugate, each mode gives the rows
    [[Re a + Re b, Im b - Im a], [Im a + Im b, Re a - Re b]], scaled by
    1 / max(|E|, |m|)."""
    eye = np.eye(4)
    rows, rhs = [], []
    for e_energy, m, modes in samples:
        scale = 1.0 / max(abs(e_energy), abs(m))
        for u, lam in modes:
            a = e_energy * np.kron(eye, u)
            b = m * np.kron(u, eye)
            rows.append(np.block([[a.real + b.real, b.imag - a.imag],
                                  [a.imag + b.imag, a.real - b.real]]) * scale)
            target = lam * u
            rhs.append(np.concatenate([target.real, target.imag]) * scale)
    x = least_squares(np.concatenate(rows), np.concatenate(rhs))
    eta = (x[:16] + 1j * x[16:]).reshape(4, 4)
    residual = 0.0
    for e_energy, m, modes in samples:
        scale = 1.0 / max(abs(e_energy), abs(m))
        op = e_energy * eta + m * eta.conj().T
        for u, lam in modes:
            dev = np.max(np.abs(op @ u - lam * u))
            residual = max(residual, float(dev) * scale)
    return eta, residual


def reconstruct_eta_1d(samples):
    """Fit the 16 complex entries of eta from eigenmode constraints.

    samples: list of (E, m, [(column, eigenvalue), ...]) with every mode
    propagating at zero potential, as convention_samples gives them.  Solves
    the real-linear least-squares system for eta such that
    (E eta + m eta^+) u = lambda u for every supplied mode, then checks the
    result is nilpotent with eta eta^+ + eta^+ eta = 2I.

    Returns (eta, residual).  Raises ConventionInconsistencyError when the
    scaled residual exceeds RECONSTRUCTION_TOL: no single matrix is
    compatible with the supplied component columns.
    """
    if len({(e_energy, m) for e_energy, m, _ in samples}) < 2:
        raise ValueError(
            "need at least 2 distinct (E, m) samples; a single sample "
            "underdetermines the convention check"
        )
    eta, residual = _fit_eta(samples)
    if residual > RECONSTRUCTION_TOL:
        raise ConventionInconsistencyError(
            f"reconstruction residual {residual:.3e} exceeds {RECONSTRUCTION_TOL:.1e}; "
            "the component column convention is inconsistent with an eigenmode "
            "representation"
        )
    eye = np.eye(4)
    nil = np.max(np.abs(eta @ eta))
    comp = np.max(np.abs(eta @ eta.conj().T + eta.conj().T @ eta - 2 * eye))
    if nil > 1e-10 or comp > 1e-10:
        raise ConventionInconsistencyError(
            f"reconstructed matrix violates the algebra: nilpotency {nil:.3e}, "
            f"completeness {comp:.3e}"
        )
    return eta, residual


def try_conventions(m):
    """Residual per normalization hypothesis ("adopted" and "alpha_em") at
    E = 1.3, 2.6 and 7.0; inconsistent ones report large values, a singular
    one (alpha_em at E = m) inf."""
    out = {}
    for variant in ("adopted", "alpha_em"):
        try:
            _, out[variant] = _fit_eta(convention_samples((1.3, 2.6, 7.0), m, variant))
        except ConventionSingularityError:
            out[variant] = np.inf
    return out


def eigen_consistency(e_energy, v, m, u, positive_branch, eta1d: np.ndarray) -> float:
    """Inf-norm of ((E-V) eta + m eta^+) u - lambda u in the 1D representation,
    lambda = +p on the positive branch and -p on the other."""
    lam = mode_eigenvalue(e_energy, v, m, positive_branch)
    matrix = (e_energy - v) * eta1d + m * eta1d.conj().T
    return float(np.max(np.abs(matrix @ u - lam * u)))
