"""Spin-resolved transmission and reflection: rectangular barrier and step.

A mode of either spin comes in from the left; component continuity at the
interfaces fixes the reflected, internal and transmitted amplitudes.  Two
independent routes to the barrier coefficients are kept side by side: the
interface-matching solve and the closed form, which must agree to 1e-10
everywhere including deep tunneling.  The closed form is one expression
through the barrier top; the barrier's matching solve refuses the critical
band around E = V0, and sweeps use the closed form there.  Both refuse a
propagating phase p2 L / hbar_c beyond MAX_PHASE = 2^20, whose sine has no
digits left at that tolerance.

The matching splits into two channels, s = +1 and s = -1.  With c1 the c of
the zero-potential region (see spinors), an interface's rows are
u = (psi0 + s psi1)/sqrt2 and v = (psi2 - s psi3)/sqrt2 - c1 u, and each
unknown is (x_up + s x_down)/sqrt2; a region's +p / -p column is then
(1, c - c1 +- s d), so a small d is never added to the order-1 c.  The
channels, at unit incidence in each, give both incident spins: the
same-spin amplitudes are the channels' half sums, the spin-flip ones their
half differences.  In each barrier channel the u rows give the reflected
and transmitted amplitudes r and t through the internal ones, and the v
rows leave a 2x2 system in those, solved for both channels in one stacked
Cramer solve; the step's channels are a closed formula each, through
E = V0 and through the pole of d and c at E - V0 + m = 0 (see solve_step).

Conventions: E is the kinetic energy in eV, the barrier occupies
0 <= z <= L with L in nm, and phases are k z with k = sqrt(2m(E-V))/hbar_c.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .numerics import SingularSystemError, norm_inf, solve_linear
from .spinors import DOWN, SQRT2, UP, _c_shift, _mode_scalars
from .waveop import CRITICAL, PhysicalConstants, classify_regime, complex_momentum

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
class Coefficients:
    t1: float  # transmission, spin-up channel
    t2: float  # transmission, spin-down channel
    r1: float  # reflection, spin-up channel
    r2: float  # reflection, spin-down channel

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

    @property
    def t_qm(self) -> float:
        return self.t1 + self.t2

    @property
    def r_qm(self) -> float:
        return self.r1 + self.r2

    @property
    def total(self) -> float:
        return self.t1 + self.t2 + self.r1 + self.r2


def _channel_coeffs(x, flux, incident_spin) -> Coefficients:
    """Coefficients from the solved channels x, the "+" row then the "-"
    row, each reflected amplitude first and transmitted one last, for unit
    incidence in each channel; flux scales |t|^2 to the transmitted current.
    Same-spin amplitudes are the channels' half sums, spin-flip ones their
    half differences."""
    (r_p, *_, t_p), (r_m, *_, t_m) = x
    same_t, same_r = 0.25 * abs(t_p + t_m) ** 2 * flux, 0.25 * abs(r_p + r_m) ** 2
    flip_t, flip_r = 0.25 * abs(t_p - t_m) ** 2 * flux, 0.25 * abs(r_p - r_m) ** 2
    if incident_spin == UP:
        return Coefficients(same_t, flip_t, same_r, flip_r)
    return Coefficients(flip_t, same_t, flip_r, same_r)


# the largest propagating phase |p2 L / hbar_c| the matching solve takes:
# beyond 2^20 the phase's own rounding, up to 2^-33 ~ 1.2e-10, moves the
# coefficients by as much as the criterion-04 tolerance of 1e-10
MAX_PHASE = 2.0**20


def _barrier_system(p: BarrierProblem):
    """(d1, d2, dc, cols, m, rhs) of the barrier's matching.

    d1 and d2 are d before and beyond an interface from zero potential to
    V0, and dc = c2 - c1 the shift of c across it.  cols are the two
    internal columns (al, be, ga, de), whose entries are -al,
    -(al dc + be s d2) at z = 0 and ga, ga dc + de s d2 at z = L.  m holds
    the 2x2 systems of the two channels, s = +1 first, in the internal
    amplitudes (a, b), as lists [[a11, a12], [a21, a22]] of Python complex
    numbers, and rhs their right-hand sides [y1, y2].

    Where |p2 L / hbar_c| > 1 the two columns are the +p mode and the -p
    mode anchored at z = L, so that |ph2| <= 1 up to kappa L of several
    hundred.  Nearer the top, where those two nearly coincide, they are
    their sum and difference, written through e = ph2 - 1 =
    expm1(i p2 L / hbar_c) without cancelling.  A propagating phase beyond
    MAX_PHASE is refused.

    The u rows give r = al0 a + al1 b - 1 at z = 0 and t = ga0 a + ga1 b at
    z = L; substituted into the v rows they leave, per channel, the row
    -(al (s d1 + dc) + be s d2) with right-hand side -2 s d1 at z = 0, and
    the row ga (dc - s d1) + de s d2 with right-hand side 0 at z = L.
    """
    e_energy, v0, mass = p.e_energy, p.v0, p.m
    d1 = _mode_scalars(e_energy, 0.0, mass)[2]
    p2, _, d2 = _mode_scalars(e_energy, v0, mass)
    dc = _c_shift(e_energy, v0, mass)
    ik = 1j * (p2 / p.constants.hbar_c) * p.length
    if abs(ik) > 1.0:
        if abs(ik.imag) > MAX_PHASE:
            raise DegenerateConfigurationError(
                f"the phase p2 L / hbar_c = {ik.imag:.3e} is beyond 2^20: its sine "
                "has no digits left at the criterion-04 tolerance"
            )
        ph2 = cmath.exp(ik)
        al0, be0, ga0, de0 = 1 + 0j, 1 + 0j, ph2, ph2
        al1, be1, ga1, de1 = ph2, -ph2, 1 + 0j, -1 + 0j
    else:
        x, y = ik.real, ik.imag  # one of them is 0
        e = complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
                    math.exp(x) * math.sin(y))
        w = 2.0 + e
        al0, be0, ga0, de0 = w, -e, w, e
        al1, be1, ga1, de1 = -e, w, e, w
    # s d1 + dc and dc - s d1 of s = +1 are those of s = -1 swapped:
    # -d1 + dc is dc - d1 and dc - (-d1) is d1 + dc, bit for bit
    g0, g1, nd1, nd2 = d1 + dc, dc - d1, -d1, -d2
    m = [
        [[-(al0 * g0 + be0 * d2), -(al1 * g0 + be1 * d2)],
         [ga0 * g1 + de0 * d2, ga1 * g1 + de1 * d2]],
        [[-(al0 * g1 + be0 * nd2), -(al1 * g1 + be1 * nd2)],
         [ga0 * g0 + de0 * nd2, ga1 * g0 + de1 * nd2]],
    ]  # fmt: skip
    rhs = [[-2.0 * d1, 0j], [-2.0 * nd1, 0j]]
    return d1, d2, dc, ((al0, be0, ga0, de0), (al1, be1, ga1, de1)), m, rhs


def _solve_matching(p: BarrierProblem):
    """(system, x): the _barrier_system of p and the solved amplitudes x,
    [r, a, b, t] of the "+" and the "-" channel; refuses the critical band
    and turns a singular system into DegenerateConfigurationError."""
    if classify_regime(p.e_energy, p.v0) == CRITICAL:
        raise CriticalBandError(
            f"|E - V0| = {abs(p.e_energy - p.v0):.3e} eV is inside the critical "
            "band; evaluate closed_form instead"
        )
    system = _barrier_system(p)
    (al0, _, ga0, _), (al1, _, ga1, _) = system[3]
    try:
        (a_p, b_p), (a_m, b_m) = solve_linear(system[4], system[5])
    except SingularSystemError as exc:
        raise DegenerateConfigurationError(f"matching system singular: {exc}") from exc
    x = [
        [al0 * a_p + al1 * b_p - 1.0, a_p, b_p, ga0 * a_p + ga1 * b_p],
        [al0 * a_m + al1 * b_m - 1.0, a_m, b_m, ga0 * a_m + ga1 * b_m],
    ]
    return system, x


def solve_barrier(p: BarrierProblem):
    """Interface matching for the rectangular barrier.

    Returns (x, Coefficients), x the solution [r, a, b, t] of the "+" and
    then the "-" channel, as nested lists of complex numbers.  Inside the
    critical band around E = V0 the internal basis degenerates and this
    refuses, and closed_form holds there; both refuse a propagating phase
    beyond MAX_PHASE.
    """
    _, x = _solve_matching(p)
    return x, _channel_coeffs(x, 1.0, p.incident_spin)


def continuity_residual(p: BarrierProblem) -> float:
    """Scaled residual of the four channel rows, u and v at z = 0 and at
    z = L, at the solved amplitudes (r, a, b, t).

    Raises what solve_barrier raises: CriticalBandError inside the band,
    DegenerateConfigurationError for a singular system."""
    (d1, d2, dc, cols, _, _), x = _solve_matching(p)
    (al0, be0, ga0, de0), (al1, be1, ga1, de1) = cols
    m, rhs = [], []
    for sd1, sd2 in ((d1, d2), (-d1, -d2)):
        m.append([
            [1.0, -al0, -al1, 0.0],
            [-sd1, -(al0 * dc + be0 * sd2), -(al1 * dc + be1 * sd2), 0.0],
            [0.0, ga0, ga1, -1.0],
            [0.0, ga0 * dc + de0 * sd2, ga1 * dc + de1 * sd2, -sd1],
        ])  # fmt: skip
        rhs.append([-1.0, -sd1, 0.0, 0.0])
    m, rhs, x = (np.array(a, dtype=complex) for a in (m, rhs, x))
    num = float(np.abs((m @ x[..., None])[..., 0] - rhs).max())
    return num / (norm_inf(m) * float(np.abs(x).max()) + float(np.abs(rhs).max()))


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
    the top a phase sqrt(z) beyond MAX_PHASE is refused with ValueError, as
    the matching solve refuses it: its sine has no digits left.
    The expressions are those of spin-up incidence; spin-down incidence
    exchanges the channels.
    """
    e_energy, v0, m = p.e_energy, p.v0, p.m
    gap = e_energy - v0
    frexp = math.frexp
    mv, ev = frexp(v0)
    me, ee = frexp(e_energy)
    mm, em = frexp(m)
    ml, el = frexp(p.length)
    mh, eh = frexp(p.constants.hbar_c)
    mg, eg = frexp(abs(gap))
    # g / 2 = m L^2 / hbar_c^2, then z and c = V0^2 g / (4E), each a mantissa
    # within [2^-8, 2^8] and a binary exponent
    half_g, half_g_exp = mm * ml * ml / (mh * mh), em + 2 * el - 2 * eh
    r = math.sqrt(_ldexp(2.0 * half_g * mg, half_g_exp + eg))
    c, c_exp = half_g * mv * mv / (2.0 * me), half_g_exp + 2 * ev - ee
    # T1 = a / (a + b) and R = b / (a + b) with b / a = q
    if gap >= 0:
        if r > MAX_PHASE:
            raise ValueError(
                f"the barrier phase k L = {r:.3e} is beyond 2^20: its sine has no "
                "digits left at the criterion-04 tolerance"
            )
        # b = c (sin r / r)^2
        ms, es = frexp(abs(math.sin(r)) if r else 1.0)
        mr, er = frexp(r if r else 1.0)
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
        return Coefficients(0.0, float(t1), float(r2), float(r1))
    return Coefficients(float(t1), 0.0, float(r1), float(r2))


def _ratio_product(x, y, z):
    """x y / z of finite floats, z nonzero, through their mantissas and
    binary exponents (math.frexp): no partial product overflows or
    underflows, and only a result beyond the float range is rounded off it."""
    (mx, ex), (my, ey), (mz, ez) = map(math.frexp, (x, y, z))
    return _ldexp(mx * my / mz, ex + ey - ez)


def solve_step(e_energy, v0, m, incident_spin=UP):
    """Single interface at z = 0: region I at zero potential, region II at V0.

    Transmission carries the exact mode-flux ratio Re d2 / Re d1, the ratio
    of the spin-up +p columns' mode_current, equal to
    p2 (E+m) / (p1 (E-V0+m)); it reduces to p2/p1 in the nonrelativistic
    regime and is what makes R + T = 1 hold to rounding at any energy.

    Channel s solves s d1 (1 - r) = g t with t = 1 + r and g = dc + s d2.
    Beyond the step dc and d2 have a pole at den = E - V0 + m = 0, so g is
    taken as G / den with G = k + s q, k = den dc = -2i m V0 / (E + m) and
    q = den d2 = sqrt2 p2, which have none: r = (s d1 den - G) / (s d1 den
    + G).  Below the step k and s q cancel in one channel near den = 0 (and
    where E (E + m) = m V0); that channel takes g = (k^2 - q^2) / (den
    (k - s q)) = -4 m (E (E + m) - m V0) / ((E + m)^2 (k - s q)), with
    nothing divided by den.  The formulas hold through E = V0, where T = 0
    with p2 = 0, and through the pole.
    """
    if not 0 < e_energy < np.inf:
        raise ValueError("E must be finite and positive")
    # d1 = sqrt2 p1 / (E + m) is 0 or nan where E + m overflows
    if not (0 < m < np.inf and e_energy + m < np.inf):
        raise ValueError("mass must be finite and positive, and E + m finite")
    # the flux ratio divides by d1 = sqrt2 p1 / (E + m): a subnormal p1 has
    # lost its digits
    if not math.sqrt(2.0 * m) * math.sqrt(e_energy) >= sys.float_info.min:
        raise ValueError("the incident momentum sqrt(2 m E) is below the normal float range")
    if not math.isfinite(v0):
        raise ValueError("V0 must be finite")
    if incident_spin not in (UP, DOWN):
        raise ValueError(f"incident_spin must be up or down, got {incident_spin!r}")
    _, _, d1 = _mode_scalars(e_energy, 0.0, m)
    den = e_energy - v0 + m
    # w = m V0 / (E + m), so k = -2i w: m / (E + m) underflows for a small
    # enough m, and V0 / (E + m) overflows for a small enough E + m
    w = _ratio_product(m, v0, e_energy + m)
    k, q = complex(0.0, -2.0 * w), SQRT2 * complex_momentum(e_energy, v0, m)
    x = []
    for s in (1.0, -1.0):
        scaled, other = k + s * q, k - s * q
        if abs(scaled) < 0.5 * abs(other):
            # k and s q cancel (below the step, in one channel): g itself,
            # with E (E + m) - m V0 = (E + m) (E - w).  Elsewhere G loses at
            # most a factor 3 to cancellation, and this form would lose
            # digits where m / (E + m) is subnormal
            sd1, g = s * d1, -4.0 * (m / (e_energy + m)) * (e_energy - w) / other
        else:
            sd1, g = s * d1 * den, scaled
        # s d1 + g != 0: s d1 is real and nonzero (or 0 with den, where G is
        # not: |G|^2 >= 0.4 (|k|^2 + |q|^2)), g imaginary or of real part
        # s q / den or s q
        x.append(((sd1 - g) / (sd1 + g), 2.0 * sd1 / (sd1 + g)))
    # d1 and d2 = q / den are real above the step; below it nothing is transmitted
    flux = (q.real / den) / d1.real if e_energy > v0 else 0.0
    return _channel_coeffs(x, flux, incident_spin)


@dataclass(frozen=True)
class SweepRow:
    e_over_v0: float
    coeffs: Coefficients | None
    delta: float | None
    flag: str | None


@dataclass
class SweepTable:
    rows: list


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
    matching, both = method != "closed", method == "both"
    v0, length, m = template.v0, template.length, template.m
    spin, constants = template.incident_spin, template.constants
    rows = []
    for e_energy in e_grid:
        # a Python float whatever the grid's type: the same value, and
        # e_over_v0 a float
        e_energy = float(e_energy)
        ratio = e_energy / v0
        try:
            prob = BarrierProblem(e_energy, v0, length, m, spin, constants)
            delta = None
            if not matching:
                coeffs = closed_form(prob)
            else:
                try:
                    coeffs = solve_barrier(prob)[1]
                except CriticalBandError:
                    coeffs = closed_form(prob)
                    # with method both, the fallback is the closed row too
                    if both:
                        delta = coefficient_delta(coeffs, coeffs)
                else:
                    if both:
                        delta = coefficient_delta(coeffs, closed_form(prob))
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


def l_sensitivity_scan(e_energy, v0, m, lengths):
    """closed_form coefficients as a function of the barrier width.

    The point values of R1/R2 depend on sin^2 of a phase of order 1e2..1e4,
    so per-mille changes of L sweep them across their full envelope; this
    scan documents that sensitivity (at the default constants).
    """
    out = []
    for length in lengths:
        prob = BarrierProblem(e_energy, v0, float(length), m)
        out.append((float(length), closed_form(prob)))
    return out
