"""Spin-resolved transmission and reflection: rectangular barrier and step.

A spin-up mode comes in from the left; component continuity at the interfaces
fixes the reflected, internal and transmitted amplitudes through an 8x8 (or
4x4 for the step) linear system.  Two independent routes to the barrier
coefficients are kept side by side: the interface-matching solve and the
closed form, which must agree to 1e-10 everywhere including deep tunneling.
The closed form is one expression through the barrier top; the barrier's
matching solve refuses the critical band around E = V0, where its internal
+p and -p columns coincide and sweeps use the closed form alone.  The step
has no internal region and solves through E = V0.

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
from .waveop import CRITICAL, PhysicalConstants, classify_regime

CONSERVATION_TOL = 1e-10


class CriticalBandError(ValueError):
    """E is inside the critical band around V0, where the barrier's matching
    solve refuses; use closed_form there."""


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
        if not (
            0 < self.e_energy < math.inf
            and 0 < self.v0 < math.inf
            and 0 < self.length < math.inf
            and 0 < self.m < math.inf
        ):
            raise ValueError("E, V0, L, m must all be finite and strictly positive")
        if self.incident_spin not in (UP, DOWN):
            raise ValueError(f"incident_spin must be up or down, got {self.incident_spin!r}")


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
        t1, t2, r1, r2 = self.t1, self.t2, self.r1, self.r2
        lo, hi = -CONSERVATION_TOL, 1.0 + CONSERVATION_TOL
        if not (lo <= t1 <= hi and lo <= t2 <= hi and lo <= r1 <= hi and lo <= r2 <= hi):
            for name in ("t1", "t2", "r1", "r2"):
                v = getattr(self, name)
                if not lo <= v <= hi:
                    raise ConservationError(f"{name}={v!r} outside [0, 1]")
        total = t1 + t2 + r1 + r2
        if abs(total - 1.0) > CONSERVATION_TOL:
            raise ConservationError(f"coefficient sum {total!r} deviates from 1")
        if abs(self.t_qm - (t1 + t2)) > 1e-12 or abs(self.r_qm - (r1 + r2)) > 1e-12:
            raise ConservationError("channel sums inconsistent with t_qm/r_qm")

    @property
    def total(self) -> float:
        return self.t1 + self.t2 + self.r1 + self.r2


def _coeffs(t1, t2, r1, r2) -> Coefficients:
    return Coefficients(t1, t2, r1, r2, t1 + t2, r1 + r2)


def _incident_rhs(c1, d1, incident_spin):
    """Minus the incident column, spin up (1, 0, c, -d) or down (0, 1, d, -c),
    of the zero-potential region."""
    return [-1 + 0j, 0j, -c1, d1] if incident_spin == UP else [0j, -1 + 0j, -d1, c1]


def _system(flat, n):
    """(M, rhs) of an n x n system from one flat list of its n rows and then
    its right-hand side, converted by one np.array call.  Callers write the
    constant entries as complex numbers (0j, 1 + 0j), which numpy converts
    faster than ints."""
    a = np.array(flat, dtype=complex)
    return a[: n * n].reshape(n, n), a[n * n :]


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
    m8, rhs = _system(
        [
            1 + 0j, 0j, -1 + 0j, 0j, -ph2, 0j, 0j, 0j,
            0j, 1 + 0j, 0j, -1 + 0j, 0j, -ph2, 0j, 0j,
            c1, -d1, -c2, -d2, -a, b, 0j, 0j,
            d1, -c1, d2, c2, -b, a, 0j, 0j,
            0j, 0j, ph2, 0j, 1 + 0j, 0j, -1 + 0j, 0j,
            0j, 0j, 0j, ph2, 0j, 1 + 0j, 0j, -1 + 0j,
            0j, 0j, a, b, c2, -d2, -c1, -d1,
            0j, 0j, -b, -a, d2, -c2, d1, c1,
            *_incident_rhs(c1, d1, p.incident_spin), 0j, 0j, 0j, 0j,
        ],
        8,
    )  # fmt: skip
    return m8, rhs, ph1, ph2


def _solve_matching(p: BarrierProblem):
    """(M, rhs, x, ph1, ph2) of the solved barrier system; refuses the
    critical band and turns a singular system into
    DegenerateConfigurationError."""
    if classify_regime(p.e_energy, p.v0) == CRITICAL:
        raise CriticalBandError(
            f"|E - V0| = {abs(p.e_energy - p.v0):.3e} eV is inside the critical "
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
    holds there as everywhere.
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


def _ldexp(mantissa: float, exponent: int) -> float:
    """mantissa * 2**exponent; inf where that is beyond the float range."""
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def _scaled_half_sum(me, ee, mm, em):
    """(E', m', (E' + m') / 2) from the math.frexp pairs (me, ee) of E and
    (mm, em) of m, with E' and m' scaled by one power of two so that the
    half sum neither overflows nor underflows to 0: the spin split
    ((E - m) / (E + m))^2 and 4 E m / (E + m)^2 = (E' / half) (m' / half)
    is taken through it."""
    top = max(ee, em)
    e_s, m_s = math.ldexp(me, ee - top), math.ldexp(mm, em - top)
    return e_s, m_s, 0.5 * e_s + 0.5 * m_s


def closed_form(p: BarrierProblem) -> Coefficients:
    """Closed-form coefficients: one expression on both sides of the top.

    With g = 2 m L^2 / hbar_c^2 and z = g (E - V0) = (k L)^2, negative below
    the top, q = V0^2 g S(z) / (4 E) where S(z) = (sin sqrt(z) / sqrt(z))^2,
    continued as (sinh sqrt(-z) / sqrt(-z))^2 below the top, and S(0) = 1.
    Then T1 = 1 / (1 + q), R = q / (1 + q), and the spin split of R is
    R1 = R (E-m)^2/(E+m)^2, R2 = R 4Em/(E+m)^2.  Every term is positive, so
    nothing cancels near E = V0, where the formula equals the series limit.

    z and q are products of the inputs' mantissas (math.frexp) scaled by
    their binary exponents at the end, so no partial product overflows or
    underflows, and the rounding is that of the plain products: only a q
    beyond the float range is infinite, and it gives T1 = 0, R = 1.  Above
    the top a phase sqrt(z) beyond the float range has no sine: ValueError.
    The expressions are those of spin-up incidence; spin-down incidence
    exchanges the channels.
    """
    e_energy, v0, m = p.e_energy, p.v0, p.m
    gap = e_energy - v0
    (mv, ev), (me, ee), (mm, em), (ml, el), (mh, eh), (mg, eg) = map(
        math.frexp, (v0, e_energy, m, p.length, p.constants.hbar_c, abs(gap))
    )
    # g / 2 = m L^2 / hbar_c^2, then z and c = V0^2 g / (4E), each a mantissa
    # within [2^-8, 2^8] and a binary exponent
    half_g, half_g_exp = mm * ml * ml / (mh * mh), em + 2 * el - 2 * eh
    r = math.sqrt(_ldexp(2.0 * half_g * mg, half_g_exp + eg))
    c, c_exp = half_g * mv * mv / (2.0 * me), half_g_exp + 2 * ev - ee
    # T1 = a / (a + b) and R = b / (a + b) with b / a = q
    if gap >= 0:
        if r == math.inf:
            raise ValueError("the barrier phase k L is beyond the float range")
        # b = c (sin r / r)^2
        (ms, es), (mr, er) = map(math.frexp, (abs(math.sin(r)), r) if r else (1.0, 1.0))
        a, b = 1.0, _ldexp(c * ms * ms / (mr * mr), c_exp + 2 * es - 2 * er)
    else:
        # a = 1 / S = (r / sinh r)^2, through exp(-r): it underflows to 0
        # (T1 = 0, R = 1) where sinh^2 would overflow, at kappa L ~ 355,
        # and it is S(0) = 1 where r underflows to 0
        if r == math.inf:
            a = 0.0
        elif r:
            a = (2.0 * r * math.exp(-r) / -math.expm1(-2.0 * r)) ** 2
        else:
            a = 1.0
        b = _ldexp(c, c_exp)
    t1, refl = (0.0, 1.0) if b == math.inf else (a / (a + b), b / (a + b))
    # (E - m)^2 / (E + m)^2 and 4 E m / (E + m)^2
    e_s, m_s, half_sum = _scaled_half_sum(me, ee, mm, em)
    r1 = refl * ((0.5 * e_s - 0.5 * m_s) / half_sum) ** 2
    r2 = refl * (e_s / half_sum) * (m_s / half_sum)
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
    m4, rhs = _system(
        [
            1 + 0j, 0j, -1 + 0j, 0j,
            0j, 1 + 0j, 0j, -1 + 0j,
            c1, -d1, -c2, -d2,
            d1, -c1, d2, c2,
            *_incident_rhs(c1, d1, incident_spin),
        ],
        4,
    )  # fmt: skip
    return m4, rhs, p1, p2


def solve_step(e_energy, v0, m, incident_spin=UP, constants: PhysicalConstants | None = None):
    """Single interface at z = 0: region I at zero potential, region II at V0.

    Transmission carries the exact mode-flux ratio p2 (E+m) / (p1 (E-V0+m)),
    which reduces to p2/p1 in the nonrelativistic regime and is what makes
    R + T = 1 hold to rounding at any energy.  There is no critical band:
    at E = V0 the 4x4 system stays regular, and T = 0 with p2 = 0.
    """
    if not 0 < e_energy < np.inf:
        raise ValueError("E must be finite and positive")
    if not 0 < m < np.inf:
        raise ValueError("mass must be finite and positive")
    if not 2.0 * m * e_energy > 0:  # the flux ratio divides by p1 = sqrt(2 m E)
        raise ValueError("2 m E underflows to 0: the incident wave carries no flux")
    if not math.isfinite(v0):
        raise ValueError("V0 must be finite")
    if incident_spin not in (UP, DOWN):
        raise ValueError(f"incident_spin must be up or down, got {incident_spin!r}")
    m4, rhs, p1, p2 = _assemble_step(e_energy, v0, m, incident_spin)
    try:
        x = solve_linear(m4, rhs).tolist()
    except SingularSystemError as exc:
        raise DegenerateConfigurationError(f"step matching singular: {exc}") from exc
    r1 = abs(x[0]) ** 2
    r2 = abs(x[1]) ** 2
    if e_energy > v0:
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

    @property
    def flagged(self) -> list:
        return [r for r in self.rows if r.flag is not None]


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
    flagged rows instead of aborting.  Critical-band points, which the
    matching solve refuses, take closed_form for every method."""
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
    return SweepTable(rows)


def r2_envelope(e_energy, v0, m) -> float:
    """Phase-free upper bound of the spin-flip reflection above the barrier
    (sin^2 -> 1, cos -> -1 in the closed form):
    [4 E m / (E + m)^2] [V0 / (2E - V0)]^2.

    The spin factor is that of closed_form, through the scaled half sum of
    E and m.  V0 / (2E - V0) is formed on E and V0 scaled by E's binary
    exponent, with 2E - V0 as E + (E - V0).  No intermediate overflows; one
    underflows only where E/m, m/E or V0/E is below 2^-1022, and the bound
    is then below 2^-1020."""
    if e_energy <= v0:
        raise ValueError("envelope defined for E > V0")
    (me, ee), (mm, em) = math.frexp(e_energy), math.frexp(m)
    e_s, m_s, half_sum = _scaled_half_sum(me, ee, mm, em)
    v_s = math.ldexp(v0, -ee)
    ratio = v_s / (me + (me - v_s))
    return (e_s / half_sum) * (m_s / half_sum) * ratio * ratio


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
