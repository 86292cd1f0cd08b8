"""Explicit 4-component basis spinors for piecewise-constant 1D problems.

One continuation formula produces all eight modes.  With the principal branch
p = sqrt(2m(E-V)) (real above the potential, +i*kappa below it) and

    b = 1/(E - V + m),   c = i b (E - V - m),   d = sqrt(2) b p

the columns are

    spin up,   momentum +p: (1, 0, c, -d)        spin up,   -p: (1, 0, c, d)
    spin down, momentum +p: (0, 1, d, -c)        spin down, -p: (0, 1, -d, -c)

Above the potential the +p/-p modes travel forward/backward; below it the
same two branches decay/grow, and b = -1/(V0 - E - m) reproduces the
evanescent component pattern exactly.  Each mode is an eigenvector of
(E-V) eta + m eta^+ in the 1D representation with eigenvalue +-p, which is
what reconstruct_eta_1d exploits to machine-check the normalization
convention instead of trusting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import least_squares
from .waveop import EVANESCENT, PROPAGATING, RegionOperator, complex_momentum

SQRT2 = math.sqrt(2.0)

UP = "up"
DOWN = "down"
FORWARD = "forward"
BACKWARD = "backward"
DECAYING = "decaying"
GROWING = "growing"

# |V0 - E - m| below this fraction of m puts the component denominator on top
# of its pole; outside the nonrelativistic regime anyway
DENOMINATOR_RTOL = 1e-6

# residual above this signals a normalization convention inconsistent with
# any single matrix representation
RECONSTRUCTION_TOL = 1e-8


class WrongRegimeError(ValueError):
    pass


class ConventionSingularityError(ValueError):
    pass


class ConventionInconsistencyError(ValueError):
    pass


@dataclass(frozen=True)
class Spinor:
    components: np.ndarray
    spin: str
    direction: str
    regime: str

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=complex)
        object.__setattr__(self, "components", comps)
        if comps.shape != (4,):
            raise ValueError("spinor needs exactly 4 components")
        if not np.all(np.isfinite(comps)):
            raise ValueError("spinor components must be finite")
        if np.all(comps == 0):
            raise ValueError("zero spinor")
        head = (1, 0) if self.spin == UP else (0, 1)
        if comps[0] != head[0] or comps[1] != head[1]:
            raise ValueError(
                f"normalization convention violated: first two components must be "
                f"{head} for spin {self.spin}"
            )


def _check_denominator(e_energy: float, v: float, m: float):
    if abs(e_energy - v + m) <= DENOMINATOR_RTOL * m:
        raise ConventionSingularityError(
            "E - V + m too close to zero; component denominators diverge"
        )


def _mode_scalars(e_energy, v, m, variant="adopted"):
    """(p, c, d) of one region: the momentum and the two scalars that fill
    every mode column there (see the module docstring)."""
    p = complex_momentum(e_energy, v, m)
    if variant == "alpha_em":
        den = e_energy - v - m
        if abs(den) <= DENOMINATOR_RTOL * m:
            raise ConventionSingularityError("E - V - m too close to zero")
        b = 1.0 / den
    else:
        _check_denominator(e_energy, v, m)
        b = 1.0 / (e_energy - v + m)
    return p, 1j * b * (e_energy - v - m), SQRT2 * b * p


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
        if variant == "down_sign_flip":
            comps = [0.0, 1.0, -d, -c] if positive_branch else [0.0, 1.0, d, -c]
        else:
            comps = [0.0, 1.0, d, -c] if positive_branch else [0.0, 1.0, -d, -c]
    else:
        raise ValueError(f"unknown spin {spin!r}")
    return np.array(comps, dtype=complex)


def basis_propagating(e_energy, v, m, spin, direction, variant="adopted") -> Spinor:
    if m <= 0:
        raise ValueError("mass must be positive")
    if e_energy <= v:
        raise WrongRegimeError(f"E={e_energy} <= V={v}: not a propagating region")
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    comps = mode_column(e_energy, v, m, spin, direction == FORWARD, variant)
    return Spinor(comps, spin, direction, PROPAGATING)


def basis_evanescent(e_energy, v0, m, spin, growth, variant="adopted") -> Spinor:
    if m <= 0:
        raise ValueError("mass must be positive")
    if e_energy >= v0:
        raise WrongRegimeError(f"E={e_energy} >= V0={v0}: not an evanescent region")
    if growth not in (DECAYING, GROWING):
        raise ValueError(f"growth must be decaying or growing, got {growth!r}")
    comps = mode_column(e_energy, v0, m, spin, growth == DECAYING, variant)
    return Spinor(comps, spin, growth, EVANESCENT)


def mode_eigenvalue(s: Spinor, e_energy: float, v: float, m: float) -> complex:
    """+p for forward/decaying modes, -p for backward/growing ones."""
    p = complex_momentum(e_energy, v, m)
    return p if s.direction in (FORWARD, DECAYING) else -p


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
    """Propagating zero-potential sample sets for the reconstruction fit."""
    samples = []
    for e_energy in energies:
        modes = [
            basis_propagating(e_energy, 0.0, m, spin, direction, variant)
            for spin in (UP, DOWN)
            for direction in (FORWARD, BACKWARD)
        ]
        samples.append((e_energy, m, modes))
    return samples


def _fit_eta(samples):
    rows = []
    rhs = []
    for e_energy, m, modes in samples:
        if e_energy <= 0:
            raise WrongRegimeError("reconstruction samples must be propagating (E > 0)")
        scale = 1.0 / max(abs(e_energy), abs(m))
        for s in modes:
            lam = mode_eigenvalue(s, e_energy, 0.0, m)
            u = s.components
            for j in range(4):
                arow = np.zeros(32)
                crow = np.zeros(32)
                for k in range(4):
                    z = e_energy * u[k]
                    t = 2 * (4 * j + k)
                    arow[t] += z.real
                    arow[t + 1] += -z.imag
                    crow[t] += z.imag
                    crow[t + 1] += z.real
                    w = m * u[k]
                    t2 = 2 * (4 * k + j)
                    arow[t2] += w.real
                    arow[t2 + 1] += w.imag
                    crow[t2] += w.imag
                    crow[t2 + 1] += -w.real
                target = lam * u[j]
                rows.append(arow * scale)
                rhs.append(target.real * scale)
                rows.append(crow * scale)
                rhs.append(target.imag * scale)
    x = least_squares(np.array(rows), np.array(rhs))
    eta = (x[0::2] + 1j * x[1::2]).reshape(4, 4)
    residual = 0.0
    for e_energy, m, modes in samples:
        scale = 1.0 / max(abs(e_energy), abs(m))
        op = e_energy * eta + m * eta.conj().T
        for s in modes:
            lam = mode_eigenvalue(s, e_energy, 0.0, m)
            dev = np.max(np.abs(op @ s.components - lam * s.components))
            residual = max(residual, float(dev) * scale)
    return eta, residual


def reconstruct_eta_1d(samples):
    """Fit the 16 complex entries of eta from eigenmode constraints.

    samples: list of (E, m, [Spinor, ...]) with every mode propagating at zero
    potential.  Solves the real-linear least-squares system for eta such that
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


def try_conventions(m, energies=(1.3, 2.6, 7.0), variants=("adopted", "alpha_em")):
    """Residual per normalization hypothesis; inconsistent ones report large values."""
    out = {}
    for variant in variants:
        try:
            _, out[variant] = _fit_eta(convention_samples(energies, m, variant))
        except ConventionSingularityError:
            out[variant] = np.inf
    return out


def eigen_consistency(op: RegionOperator, s: Spinor, eta1d: np.ndarray) -> float:
    """Inf-norm of ((E-V) eta + m eta^+) u - lambda u in the 1D representation."""
    lam = mode_eigenvalue(s, op.e_energy, op.v, op.m)
    matrix = (op.e_energy - op.v) * eta1d + op.m * eta1d.conj().T
    return float(np.max(np.abs(matrix @ s.components - lam * s.components)))
