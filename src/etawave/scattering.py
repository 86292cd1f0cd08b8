"""Spin-resolved transmission and reflection: rectangular barrier and step.

A spin-up mode comes in from the left; component continuity at the interfaces
fixes the reflected, internal and transmitted amplitudes through an 8x8 (or
4x4 for the step) linear system.  Two independent routes to the coefficients
are kept side by side: the interface-matching solve and the closed-form
expressions, which must agree to 1e-10 everywhere including deep tunneling.

Conventions: E is the nonrelativistic (kinetic) energy in eV, the barrier
occupies 0 <= z <= L with L in nm, and spatial phases are k z with
k = sqrt(2m(E-V))/hbar_c.  The internal backward/growing amplitude is
parameterized anchored at z = L so the matching matrix only ever contains
exp(i k2 L) with |exp(i k2 L)| <= 1; that keeps the system well conditioned
for kappa*L up to several hundred.  Reported amplitudes are converted back to
the plain z-anchored-at-0 convention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import SingularSystemError, solve_linear
from .spinors import DOWN, UP, _mode_scalars
from .waveop import (
    CRITICAL,
    PROPAGATING,
    PhysicalConstants,
    classify_regime,
)

SQRT2 = math.sqrt(2.0)

CONSERVATION_TOL = 1e-10


class CriticalBandError(ValueError):
    """E is inside the bridging band around V0; use closed_form there."""


class DegenerateConfigurationError(RuntimeError):
    """The interface-matching system is numerically singular."""


class ConservationError(ValueError):
    """Coefficients violate the unit-sum or unit-interval constraints."""


@dataclass(frozen=True)
class BarrierProblem:
    e_energy: float  # eV, kinetic
    v0: float  # eV
    length: float  # nm
    m: float  # eV
    incident_spin: str = UP
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.e_energy, self.v0, self.length, self.m)):
            raise ValueError("E, V0, L, m must all be finite and strictly positive")
        if self.incident_spin not in (UP, DOWN):
            raise ValueError(f"incident_spin must be up or down, got {self.incident_spin!r}")

    @property
    def regime(self) -> str:
        return classify_regime(self.e_energy, self.v0)


@dataclass(frozen=True)
class Amplitudes:
    """Matching amplitudes, z-anchored at 0 (incident normalized to 1).

    mid_* amplitudes multiply the internal +p / -p branch columns; below the
    barrier top those branches decay/grow and the backward (growing) entries
    underflow to 0 for deep barriers since the stored value carries exp(-kappa L).
    """

    incident: complex
    refl_up: complex
    refl_down: complex
    mid_fwd_up: complex
    mid_fwd_down: complex
    mid_bwd_up: complex
    mid_bwd_down: complex
    trans_up: complex
    trans_down: complex


@dataclass(frozen=True)
class Coefficients:
    t1: float  # transmission, spin-up channel
    t2: float  # transmission, spin-down channel
    r1: float  # reflection, spin-up channel
    r2: float  # reflection, spin-down channel
    t_qm: float
    r_qm: float

    def __post_init__(self):
        vals = (self.t1, self.t2, self.r1, self.r2)
        for name, v in zip(("t1", "t2", "r1", "r2"), vals):
            if not (-CONSERVATION_TOL <= v <= 1.0 + CONSERVATION_TOL):
                raise ConservationError(f"{name}={v!r} outside [0, 1]")
        total = sum(vals)
        if abs(total - 1.0) > CONSERVATION_TOL:
            raise ConservationError(f"coefficient sum {total!r} deviates from 1")
        if abs(self.t_qm - (self.t1 + self.t2)) > 1e-12 or abs(
            self.r_qm - (self.r1 + self.r2)
        ) > 1e-12:
            raise ConservationError("channel sums inconsistent with t_qm/r_qm")

    @property
    def total(self) -> float:
        return self.t1 + self.t2 + self.r1 + self.r2


def _coeffs(t1, t2, r1, r2) -> Coefficients:
    return Coefficients(t1, t2, r1, r2, t1 + t2, r1 + r2)


def _incident_rhs(c1, d1, incident_spin):
    """Minus the incident column, spin up (1, 0, c, -d) or down (0, 1, d, -c),
    of the zero-potential region."""
    return [-1, 0, -c1, d1] if incident_spin == UP else [0, -1, -d1, c1]


def _assemble_barrier(p: BarrierProblem):
    """(M, rhs, ph1, ph2) of the barrier matching system.

    The unknowns are the reflected up/down, internal +p up/down, internal -p
    up/down (anchored at z = L) and transmitted up/down amplitudes; rows 0-3
    are the four components of continuity at z = 0, rows 4-7 at z = L.  Each
    column is a spinors.mode_column column written with its region's (c, d).
    """
    e_energy, m, length, hbar_c = p.e_energy, p.m, p.length, p.constants.hbar_c
    p1, c1, d1 = _mode_scalars(e_energy, 0.0, m)
    p2, c2, d2 = _mode_scalars(e_energy, p.v0, m)
    ph1 = cmath.exp(1j * (p1 / hbar_c) * length)
    ph2 = cmath.exp(1j * (p2 / hbar_c) * length)  # |ph2| <= 1 in both regimes
    a, b = ph2 * c2, ph2 * d2
    m8 = np.array(
        [
            [1, 0, -1, 0, -ph2, 0, 0, 0],
            [0, 1, 0, -1, 0, -ph2, 0, 0],
            [c1, -d1, -c2, -d2, -a, b, 0, 0],
            [d1, -c1, d2, c2, -b, a, 0, 0],
            [0, 0, ph2, 0, 1, 0, -1, 0],
            [0, 0, 0, ph2, 0, 1, 0, -1],
            [0, 0, a, b, c2, -d2, -c1, -d1],
            [0, 0, -b, -a, d2, -c2, d1, c1],
        ],
        dtype=complex,
    )
    rhs = np.array(_incident_rhs(c1, d1, p.incident_spin) + [0, 0, 0, 0], dtype=complex)
    return m8, rhs, ph1, ph2


def _solve_matching(p: BarrierProblem):
    """(M, rhs, x, ph1, ph2) of the solved barrier system; refuses the
    critical band and turns a singular system into
    DegenerateConfigurationError."""
    if p.regime == CRITICAL:
        raise CriticalBandError(
            f"|E - V0| = {abs(p.e_energy - p.v0):.3e} eV is inside the bridging "
            "band; evaluate closed_form instead"
        )
    m8, rhs, ph1, ph2 = _assemble_barrier(p)
    try:
        x = solve_linear(m8, rhs)
    except SingularSystemError as exc:
        raise DegenerateConfigurationError(f"matching system singular: {exc}") from exc
    return m8, rhs, x, ph1, ph2


def solve_barrier(p: BarrierProblem):
    """Interface matching for the rectangular barrier.

    Returns (Amplitudes, Coefficients).  Inside the critical band around
    E = V0 the internal basis degenerates and this refuses; closed_form
    bridges that band analytically.
    """
    _, _, x, ph1, ph2 = _solve_matching(p)
    x = x.tolist()
    amps = Amplitudes(
        incident=1.0 + 0.0j,
        refl_up=x[0],
        refl_down=x[1],
        mid_fwd_up=x[2],
        mid_fwd_down=x[3],
        mid_bwd_up=x[4] * ph2,
        mid_bwd_down=x[5] * ph2,
        trans_up=x[6] / ph1,
        trans_down=x[7] / ph1,
    )
    coeffs = _coeffs(
        abs(x[6]) ** 2, abs(x[7]) ** 2, abs(x[0]) ** 2, abs(x[1]) ** 2
    )
    return amps, coeffs


def continuity_residual(p: BarrierProblem) -> float:
    """Scaled residual of the matching equations at the solved amplitudes.

    Raises what solve_barrier raises: CriticalBandError inside the band,
    DegenerateConfigurationError for a singular system."""
    m8, rhs, x, _, _ = _solve_matching(p)
    num = float(np.max(np.abs(m8 @ x - rhs)))
    scale = float(
        np.max(np.sum(np.abs(m8), axis=1)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    )
    return num / scale


def _series_limit(p: BarrierProblem):
    """Second-order bridging limit of the closed forms at E -> V0, as the
    spin-up incidence (t1, r1, r2)."""
    e_energy, v0, m = p.e_energy, p.v0, p.m
    g = m * p.length**2 / p.constants.hbar_c**2
    den = 2.0 * e_energy + g * v0**2
    t1 = 2.0 * e_energy / den
    r1 = g * v0**2 * (e_energy - m) ** 2 / ((e_energy + m) ** 2 * den)
    r2 = 4.0 * g * e_energy * m * v0**2 / ((e_energy + m) ** 2 * den)
    return t1, r1, r2


def closed_form(p: BarrierProblem) -> Coefficients:
    """Closed-form coefficients; total function over the problem invariants.

    Oscillatory expressions above the barrier, hyperbolic below it (written
    in terms of s = exp(-2 x') so nothing overflows for deep tunneling), and
    the series limit inside the critical band.  The expressions are those of
    spin-up incidence; spin-down incidence exchanges the channels.
    """
    e_energy, v0, m = p.e_energy, p.v0, p.m
    hbar_c = p.constants.hbar_c
    regime = p.regime
    spin_weight = (e_energy - m) ** 2 * 2.0, 8.0 * e_energy * m
    if regime == CRITICAL:
        t1, r1, r2 = _series_limit(p)
    elif regime == PROPAGATING:
        x = SQRT2 * p.length * math.sqrt(m * (e_energy - v0)) / hbar_c
        den = 8.0 * e_energy**2 - v0**2 * math.cos(2.0 * x) - 8.0 * e_energy * v0 + v0**2
        t1 = 8.0 * e_energy * (e_energy - v0) / den
        sin2 = math.sin(x) ** 2
        r1 = spin_weight[0] * v0**2 * sin2 / ((e_energy + m) ** 2 * den)
        r2 = spin_weight[1] * v0**2 * sin2 / ((e_energy + m) ** 2 * den)
    else:
        xp = SQRT2 * p.length * math.sqrt(m * (v0 - e_energy)) / hbar_c
        s = math.exp(-2.0 * xp)
        # den2s = 2s * (hyperbolic denominator), negative for E < V0
        den2s = 2.0 * s * (8.0 * e_energy**2 - 8.0 * e_energy * v0 + v0**2) - v0**2 * (
            1.0 + s**2
        )
        t1 = 16.0 * e_energy * (e_energy - v0) * s / den2s
        # (1 - s)^2 = 4 s sinh^2(x'), free of the cancellation of 1 - s near the top
        quarter = math.expm1(-2.0 * xp) ** 2
        r1 = -spin_weight[0] * v0**2 * quarter / (2.0 * (e_energy + m) ** 2 * den2s)
        r2 = -spin_weight[1] * v0**2 * quarter / (2.0 * (e_energy + m) ** 2 * den2s)
    if p.incident_spin == DOWN:
        # the barrier flips no spin in transmission and the problem is
        # symmetric under exchanging up and down
        return _coeffs(0.0, float(t1), float(r2), float(r1))
    return _coeffs(float(t1), 0.0, float(r1), float(r2))


def _assemble_step(e_energy, v0, m, incident_spin):
    """(M, rhs, p1, p2) of the step matching system: continuity of the four
    components at z = 0 for the reflected up/down and transmitted up/down
    amplitudes."""
    p1, c1, d1 = _mode_scalars(e_energy, 0.0, m)
    p2, c2, d2 = _mode_scalars(e_energy, v0, m)
    m4 = np.array(
        [
            [1, 0, -1, 0],
            [0, 1, 0, -1],
            [c1, -d1, -c2, -d2],
            [d1, -c1, d2, c2],
        ],
        dtype=complex,
    )
    rhs = np.array(_incident_rhs(c1, d1, incident_spin), dtype=complex)
    return m4, rhs, p1, p2


def solve_step(e_energy, v0, m, incident_spin=UP, constants: PhysicalConstants | None = None):
    """Single interface at z = 0: region I at zero potential, region II at V0.

    Transmission carries the exact mode-flux ratio p2 (E+m) / (p1 (E-V0+m)),
    which reduces to p2/p1 in the nonrelativistic regime and is what makes
    R + T = 1 hold to rounding at any energy.
    """
    if not 0 < e_energy < np.inf:
        raise ValueError("E must be finite and positive")
    if not 0 < m < np.inf:
        raise ValueError("mass must be finite and positive")
    if not math.isfinite(v0):
        raise ValueError("V0 must be finite")
    if incident_spin not in (UP, DOWN):
        raise ValueError(f"incident_spin must be up or down, got {incident_spin!r}")
    regime = classify_regime(e_energy, v0)
    if regime == CRITICAL:
        raise CriticalBandError("E = V0 at the step has no transmitted basis")
    m4, rhs, p1, p2 = _assemble_step(e_energy, v0, m, incident_spin)
    try:
        x = solve_linear(m4, rhs).tolist()
    except SingularSystemError as exc:
        raise DegenerateConfigurationError(f"step matching singular: {exc}") from exc
    r1 = abs(x[0]) ** 2
    r2 = abs(x[1]) ** 2
    if regime == PROPAGATING:
        # p1, p2 are real here
        flux = (p2.real * (e_energy + m)) / (p1.real * (e_energy - v0 + m))
        t1 = abs(x[2]) ** 2 * flux
        t2 = abs(x[3]) ** 2 * flux
    else:
        t1 = 0.0
        t2 = 0.0
    return _coeffs(t1, t2, r1, r2)


@dataclass(frozen=True)
class SweepRow:
    e_over_v0: float
    coeffs: Coefficients | None
    delta: float | None
    flag: str | None


@dataclass
class SweepTable:
    rows: list
    method: str
    incident_spin: str = UP

    @property
    def flagged(self) -> list:
        return [r for r in self.rows if r.flag is not None]

    def header(self):
        cols = ["e_over_v0", "T1", "T2", "R1", "R2", "T_qm", "R_qm", "sum"]
        if self.method == "both":
            cols.append("delta_numeric_closed")
        return cols


def coefficient_delta(a: Coefficients, b: Coefficients) -> float:
    return max(
        abs(a.t1 - b.t1),
        abs(a.t2 - b.t2),
        abs(a.r1 - b.r1),
        abs(a.r2 - b.r2),
        abs(a.t_qm - b.t_qm),
        abs(a.r_qm - b.r_qm),
    )


def sweep(template: BarrierProblem, e_grid, method: str = "numeric") -> SweepTable:
    """Coefficient table over an energy grid; per-point failures become
    flagged rows instead of aborting.  Critical-band points are bridged
    through closed_form for every method."""
    if method not in ("numeric", "closed", "both"):
        raise ValueError(f"method must be numeric, closed or both, got {method!r}")
    rows = []
    for e_energy in e_grid:
        ratio = e_energy / template.v0
        try:
            prob = BarrierProblem(
                float(e_energy),
                template.v0,
                template.length,
                template.m,
                template.incident_spin,
                template.constants,
            )
            numeric = closed = None
            if method in ("numeric", "both"):
                try:
                    _, numeric = solve_barrier(prob)
                except CriticalBandError:
                    numeric = closed_form(prob)
            if method in ("closed", "both"):
                closed = closed_form(prob)
            coeffs = numeric if numeric is not None else closed
            delta = (
                coefficient_delta(numeric, closed)
                if (numeric is not None and closed is not None)
                else None
            )
            rows.append(SweepRow(ratio, coeffs, delta, None))
        except (ValueError, DegenerateConfigurationError) as exc:
            rows.append(SweepRow(ratio, None, None, f"{type(exc).__name__}: {exc}"))
    return SweepTable(rows, method, template.incident_spin)


def r2_envelope(e_energy, v0, m) -> float:
    """Phase-free upper bound of the spin-flip reflection above the barrier
    (sin^2 -> 1, cos -> -1 in the closed form)."""
    if e_energy <= v0:
        raise ValueError("envelope defined for E > V0")
    return (
        8.0
        * e_energy
        * m
        * v0**2
        / ((e_energy + m) ** 2 * (8.0 * e_energy**2 - 8.0 * e_energy * v0 + 2.0 * v0**2))
    )


def l_sensitivity_scan(e_energy, v0, m, lengths, constants: PhysicalConstants | None = None):
    """closed_form coefficients as a function of the barrier width.

    The point values of R1/R2 depend on sin^2 of a phase of order 1e2..1e4,
    so per-mille changes of L sweep them across their full envelope; this
    scan documents that sensitivity.
    """
    constants = constants or PhysicalConstants()
    out = []
    for length in lengths:
        prob = BarrierProblem(e_energy, v0, float(length), m, constants=constants)
        out.append((float(length), closed_form(prob)))
    return out
