"""Dirac matrices in the standard representation and the nilpotent eta pair.

The eta combination (gamma0 + i*gamma5)/sqrt(2) and its adjoint generate the
first-order nonrelativistic wave operator.  Everything algebraic the rest of
the package relies on is checked here: Clifford anticommutators, hermiticity,
nilpotency, the completeness sum eta eta^+ + eta^+ eta = 2I, and the
similarity transform that maps the first-order equation back to the ordinary
Dirac form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import adjoint

SQRT2 = np.sqrt(2.0)

# exact algebraic identities in double precision; each check is at most two
# products of matrices with entries of modulus <= 1
IDENTITY_TOL = 1e-14

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class GammaSet:
    gamma0: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray
    gamma5: np.ndarray

    def vector(self):
        return (self.gamma0, self.gamma1, self.gamma2, self.gamma3)


def build_standard_gammas() -> GammaSet:
    """gamma0 diagonal (+1,+1,-1,-1), spatial gammas with Pauli blocks
    off-diagonal, gamma5 with identity blocks off-diagonal."""
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    gamma0 = np.block([[eye, zero], [zero, -eye]])
    spatial = [np.block([[zero, s], [-s, zero]]) for s in PAULI]
    gamma5 = np.block([[zero, eye], [eye, zero]])
    return GammaSet(gamma0, spatial[0], spatial[1], spatial[2], gamma5)


def build_eta(g: GammaSet) -> np.ndarray:
    """The nilpotent eta = (gamma0 + i gamma5) / sqrt(2); eta^+ is
    numerics.adjoint(eta)."""
    return (g.gamma0 + 1j * g.gamma5) / SQRT2


def max_abs(m) -> float:
    return float(np.max(np.abs(m)))


def footnote_equivalence_check(g: GammaSet) -> float:
    """Similarity transform M = (1 - i*gamma5)/sqrt(2).

    Verifies M gamma^mu M = gamma^mu for every mu and M (-i gamma5) M = -I,
    so the transformed first-order equation is the standard Dirac form.
    Returns the max elementwise deviation over all five conditions.
    """
    eye = np.eye(4, dtype=complex)
    m = (eye - 1j * g.gamma5) / SQRT2
    devs = [max_abs(m @ gm @ m - gm) for gm in g.vector()]
    devs.append(max_abs(m @ (-1j * g.gamma5) @ m + eye))
    return max(devs)


def identity_suite(g: GammaSet, eta: np.ndarray) -> dict:
    """{name: max elementwise deviation} of every invariant of the gamma set
    and of eta with its adjoint eta^+; all must hold to IDENTITY_TOL."""
    rep = {}
    eye = np.eye(4, dtype=complex)
    gams = g.vector()
    for mu in range(4):
        for nu in range(mu, 4):
            anti = gams[mu] @ gams[nu] + gams[nu] @ gams[mu]
            target = 2.0 * _METRIC[mu, nu] * eye
            rep[f"anticommutator_g{mu}_g{nu}"] = max_abs(anti - target)
    prod = 1j * gams[0] @ gams[1] @ gams[2] @ gams[3]
    rep["gamma5_product"] = max_abs(prod - g.gamma5)
    rep["gamma0_hermitian"] = max_abs(g.gamma0 - adjoint(g.gamma0))
    rep["gamma5_hermitian"] = max_abs(g.gamma5 - adjoint(g.gamma5))
    for mu in range(4):
        rep[f"gamma5_anticommutes_g{mu}"] = max_abs(
            g.gamma5 @ gams[mu] + gams[mu] @ g.gamma5
        )
    eta_dagger = adjoint(eta)
    rep["eta_nilpotent"] = max_abs(eta @ eta)
    rep["eta_dagger_nilpotent"] = max_abs(eta_dagger @ eta_dagger)
    rep["eta_completeness"] = max_abs(eta @ eta_dagger + eta_dagger @ eta - 2 * eye)
    rep["gamma0_recovery"] = max_abs((eta + eta_dagger) / SQRT2 - g.gamma0)
    rep["igamma5_recovery"] = max_abs((eta - eta_dagger) / SQRT2 - 1j * g.gamma5)
    return rep


def conjugate_gammas(g: GammaSet, u: np.ndarray) -> GammaSet:
    """Similarity transform U gamma U^+ of the whole set (U unitary)."""
    ud = adjoint(u)
    t = lambda m: u @ m @ ud
    return GammaSet(t(g.gamma0), t(g.gamma1), t(g.gamma2), t(g.gamma3), t(g.gamma5))


def random_householder_unitary(rng: np.random.Generator):
    """4x4 product of two complex Householder reflections; exactly unitary
    by construction."""
    u = np.eye(4, dtype=complex)
    for _ in range(2):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        u = u @ (np.eye(4, dtype=complex) - 2.0 * np.outer(v, v.conj()))
    return u
