"""Momentum-space wave operator per constant-potential region.

The operator (E - V) eta + m eta^+ squares to the scalar 2m(E - V), which is
the whole content of the nonrelativistic dispersion relation: real momentum
p = sqrt(2m(E-V)) above the potential, imaginary +-i*kappa below it.
Energies are the kinetic (nonrelativistic) energies in eV, momenta come out
in eV, and spatial phases downstream divide by hbar_c.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .clifford import build_eta, build_standard_gammas, max_abs
from .numerics import adjoint

# relative half-width of the band around E = V where the barrier's matching
# solve refuses: its internal +p and -p columns coincide at p = 0 (the step
# has no internal region and solves through E = V)
CRITICAL_BAND_RTOL = 1e-9

PROPAGATING = "propagating"
EVANESCENT = "evanescent"
CRITICAL = "critical"


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar*c in eV*nm.  The particle rest energy is carried by each problem."""

    hbar_c: float = 197.0

    def __post_init__(self):
        if not 0 < self.hbar_c < np.inf:
            raise ValueError("hbar_c must be finite and strictly positive")


def critical_band_width(e_energy: float, v: float) -> float:
    return CRITICAL_BAND_RTOL * max(abs(e_energy), abs(v))


def classify_regime(e_energy: float, v: float) -> str:
    if abs(e_energy - v) <= critical_band_width(e_energy, v):
        return CRITICAL
    return PROPAGATING if e_energy > v else EVANESCENT


def momentum_operator(e_energy: float, v: float, m: float, eta: np.ndarray) -> np.ndarray:
    """The 4x4 matrix (E - V) eta + m eta^+ of one constant-potential region,
    with eta^+ the adjoint of the given eta."""
    if m <= 0:
        raise ValueError("mass must be positive")
    return (e_energy - v) * eta + m * adjoint(eta)


def complex_momentum(e_energy: float, v: float, m: float) -> complex:
    """Principal branch sqrt(2m(E-V)): real and positive above the potential,
    +i*kappa below it.  Taken as sqrt2 sqrt(m) sqrt(E-V): the product 2m(E-V)
    overflows, or falls to the subnormal range and loses its digits, where
    the momentum itself is a normal float, and 2m overflows for m > 8.99e307."""
    return math.sqrt(2.0) * cmath.sqrt(m) * cmath.sqrt(e_energy - v)


def general_a_check(a: float, e_energy: float, m: float) -> float:
    """Deviation of ((1/a) eta E + a eta^+ m)^2 from 2mE * I.

    The free parameter drops out through the completeness sum, so the
    deviation must sit at rounding level for every nonzero a.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    eta = build_eta(build_standard_gammas())
    op = (e_energy / a) * eta + (a * m) * adjoint(eta)
    target = 2.0 * m * e_energy * np.eye(4, dtype=complex)
    return max_abs(op @ op - target)


def nonrel_limit_residual(e_kinetic: float, m: float) -> float:
    """|p_rel - p_nr| / p_rel for total energy E_kinetic + m.

    Quantifies how well sqrt(2mE') approximates the exact relativistic
    momentum; about E'/(4m) for small E'/m.
    """
    if e_kinetic <= 0:
        raise ValueError("kinetic energy must be positive")
    if m <= 0:
        raise ValueError("mass must be positive")
    # E'(E' + 2m) = (E'+m)^2 - m^2 without the cancellation
    p_rel = np.sqrt(e_kinetic * (e_kinetic + 2.0 * m))
    p_nr = np.sqrt(2.0 * m * e_kinetic)
    return float(abs(p_rel - p_nr) / p_rel)
