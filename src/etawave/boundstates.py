"""Symmetric well on z in [-L, L] with periodic boundary conditions.

The identification psi(-L) = psi(L) quantizes the momentum through
exp(2 i p L / hbar_c) = 1, giving E_n = n^2 pi^2 hbar_c^2 / (2 m L^2).
The four mode amplitudes stay undetermined by the boundary conditions alone;
normalization only pins |A|^2 + |B|^2 + |A'|^2 + |B'|^2 = 1/(4L).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .waveop import PhysicalConstants

NORMALIZATION_RTOL = 1e-10
BISECTION_RTOL = 1e-12

# forward/backward x up/down modes share each E_n; level listings give it once
DEGENERACY = 4


@dataclass(frozen=True)
class WellProblem:
    length: float  # nm, well spans z in [-L, L]
    m: float  # eV
    n_max: int
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        if not (0 < self.length < np.inf and 0 < self.m < np.inf):
            raise ValueError("L and m must be finite and strictly positive")
        if self.n_max < 1:
            raise ValueError("n_max must be a positive integer")
        # E_n rises with n: E_1 > 0 and a finite E_nmax bound them all
        lowest = level_energy(1, self.length, self.m, self.constants)
        highest = level_energy(self.n_max, self.length, self.m, self.constants)
        if not (0 < lowest and highest < np.inf):
            raise ValueError(
                f"levels E_1 .. E_{self.n_max} are not finite and positive, or lose their "
                f"precision, for L = {self.length!r}, m = {self.m!r}, "
                f"hbar_c = {self.constants.hbar_c!r}"
            )


def level_energy(n: int, length: float, m: float, constants: PhysicalConstants) -> float:
    # products, not float powers, and inf where a product falls below the
    # normal range, to 0 or with its precision lost: such a level is rejected
    # by WellProblem instead of printed wrong, as one beyond the float range is
    hbar_c_sq, length_sq = constants.hbar_c * constants.hbar_c, length * length
    denominator = 2.0 * m * length_sq
    if not all(v >= sys.float_info.min for v in (hbar_c_sq, length_sq, denominator)):
        return np.inf
    return n**2 * np.pi**2 * hbar_c_sq / denominator


def energy_levels(w: WellProblem) -> tuple:
    """((n, E_n), ...) with E_n = n^2 pi^2 hbar_c^2 / (2 m L^2) for
    n = 1 .. n_max, strictly increasing.

    Each level carries a DEGENERACY-fold degeneracy (forward/backward x
    up/down); the listing reports each once.
    """
    return tuple(
        (n, level_energy(n, w.length, w.m, w.constants))
        for n in range(1, w.n_max + 1)
    )


def _phase(e_energy: float, w: WellProblem) -> float:
    # p L / hbar_c with p = sqrt(2 m) sqrt(E): sqrt(2 m E) overflows for some
    # finite levels; 2 m itself is finite, or WellProblem rejects the levels
    return np.sqrt(2.0 * w.m) * np.sqrt(e_energy) * w.length / w.constants.hbar_c


def periodic_residual(e_energy: float, w: WellProblem) -> float:
    """|exp(2 i p L / hbar_c) - 1| with p = sqrt(2 m E); zero exactly on the
    quantized levels.  Equals 2 |sin(p L / hbar_c)|, hence never above 2."""
    if e_energy <= 0:
        raise ValueError("E must be positive")
    return float(abs(np.exp(2j * _phase(e_energy, w)) - 1.0))


def _phase_sin(e_energy: float, w: WellProblem) -> float:
    # sign-changing root function: sin(p L / hbar_c) crosses zero at each level
    return float(np.sin(_phase(e_energy, w)))


def find_levels_numerically(w: WellProblem) -> tuple:
    """((n, E_n), ...) for n = 1 .. n_max: bracket and bisect the zeros of
    the periodic residual in (0, (1 + 1/(2 n_max)) E_nmax], a bracket that
    ends below E_(n_max + 1).

    The residual itself is nonnegative, so bracketing runs on the
    sign-changing sin(p L / hbar_c).  The grid is even in sqrt(E), where the
    levels n sqrt(E_1) are evenly spaced: its step of sqrt(E_1) / 4 separates
    consecutive levels for every n, with a few grid points per level, so the
    search grows linearly in n_max.  Bisection refines to 1e-12 relative.

    sin(p L / hbar_c) = 0 is the analytic quantization condition itself, so
    agreement with energy_levels (acceptance criterion 09, the
    `boundstates.levels` line of `etawave check`) shows that the bracketing
    and bisection find every level to 1e-10; it is not an independent solve
    of the periodic matching problem.
    """
    e_1 = level_energy(1, w.length, w.m, w.constants)
    e_top = level_energy(w.n_max, w.length, w.m, w.constants)
    e_hi = e_top * (1.0 + 1.0 / (2.0 * w.n_max))
    if not e_hi < np.inf:
        raise ValueError(f"the search bracket above E_{w.n_max} = {e_top!r} eV is not finite")
    step = math.sqrt(e_1) / 4.0
    found = []
    e_lo = e_1 / 4.0 * 1e-6  # stay off the p = 0 endpoint
    if not e_lo:
        raise ValueError(f"E_1 = {e_1!r} eV is too small for the search grid")
    f_lo = _phase_sin(e_lo, w)
    e = e_lo
    while e < e_hi:
        root = math.sqrt(e) + step
        e_next = min(root * root, e_hi)  # inf past the float range; ** 2 would raise
        f_next = _phase_sin(e_next, w)
        if f_lo == 0.0:
            found.append(e)
        elif f_lo * f_next < 0.0:
            a, b = e, e_next
            fa = f_lo
            while (b - a) > BISECTION_RTOL * b:
                mid = 0.5 * a + 0.5 * b  # a + b can overflow
                if not a < mid < b:
                    break  # subnormal levels: no float between a and b
                fm = _phase_sin(mid, w)
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            found.append(0.5 * a + 0.5 * b)
        e, f_lo = e_next, f_next
    return tuple((i + 1, e_n) for i, e_n in enumerate(found))


def normalization_constraint(amplitudes, length: float):
    """Check |A|^2 + |B|^2 + |A'|^2 + |B'|^2 = 1/(4L).

    Returns (ok, relative deviation).  The individual amplitudes are not
    fixed by the problem; only this sum is.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (4,):
        raise ValueError("expected exactly four amplitudes")
    target = 1.0 / (4.0 * length)
    total = float(np.sum(np.abs(amps) ** 2))
    deviation = abs(total - target) / target
    return deviation <= NORMALIZATION_RTOL, deviation
