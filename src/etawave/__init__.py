"""Numerics for the first-order nonrelativistic spinor wave equation:
algebraic identity checks, spin-resolved 1D scattering, periodic-well bound
states and lattice gauge-covariance verification."""

from .clifford import build_eta, build_standard_gammas, footnote_equivalence_check, identity_suite
from .scattering import (
    BarrierProblem,
    closed_form,
    r2_envelope,
    solve_barrier,
    solve_step,
    sweep,
)
from .waveop import PhysicalConstants, momentum_operator

__version__ = "0.1.0"

__all__ = [
    "BarrierProblem",
    "PhysicalConstants",
    "build_eta",
    "build_standard_gammas",
    "closed_form",
    "footnote_equivalence_check",
    "identity_suite",
    "momentum_operator",
    "r2_envelope",
    "solve_barrier",
    "solve_step",
    "sweep",
    "__version__",
]
