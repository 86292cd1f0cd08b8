"""Representation-level checks: anticommutators, the nilpotent combination,
and the footnote transform, plus the two deliberate failure modes (swapped
spatial matrices, corrupted sign)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etawave.clifford import (
    GammaSet,
    IDENTITY_TOL,
    build_eta,
    build_standard_gammas,
    conjugate_gammas,
    footnote_equivalence_check,
    identity_suite,
    max_abs,
    random_householder_unitary,
)

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@pytest.fixture(scope="module")
def standard():
    g = build_standard_gammas()
    return g, build_eta(g)


def test_anticommutators(standard):
    g, _ = standard
    vec = g.vector()
    for mu in range(4):
        for nu in range(mu, 4):
            anti = vec[mu] @ vec[nu] + vec[nu] @ vec[mu]
            target = 2.0 * METRIC[mu, nu] * np.eye(4)
            assert max_abs(anti - target) <= 1e-14, (mu, nu)


def test_gamma5_product(standard):
    g, _ = standard
    product = 1j * g.gamma0 @ g.gamma1 @ g.gamma2 @ g.gamma3
    assert max_abs(product - g.gamma5) == 0.0


def test_eta_nilpotent_exact(standard):
    # integer +-1/sqrt2 entries cancel exactly, no rounding residue at all
    _, eta = standard
    assert max_abs(eta @ eta) == 0.0
    assert max_abs(eta.conj().T @ eta.conj().T) == 0.0


def test_eta_completeness(standard):
    _, eta = standard
    anti = eta @ eta.conj().T + eta.conj().T @ eta
    assert max_abs(anti - 2.0 * np.eye(4)) <= 1e-14


def test_gamma_recovery(standard):
    g, eta = standard
    sqrt2 = np.sqrt(2.0)
    assert max_abs((eta + eta.conj().T) / sqrt2 - g.gamma0) <= 1e-15
    assert max_abs((eta - eta.conj().T) / sqrt2 - 1j * g.gamma5) <= 1e-15


def test_footnote_equivalence(standard):
    g, _ = standard
    assert footnote_equivalence_check(g) <= 1e-14


def test_identity_suite_all_pass(standard):
    g, e = standard
    report = identity_suite(g, e)
    assert max(report.values()) <= IDENTITY_TOL
    assert "eta_nilpotent" in report and "gamma5_product" in report
    # no name overwrites another: 10 anticommutators, 4 gamma5 ones, 8 more
    assert len(report) == 22


def test_swapped_spatial_gammas_fail_via_gamma5(standard):
    # swapping gamma1 <-> gamma2 preserves every anticommutator but reverses
    # the orientation, so the gamma5 product is the first thing to break
    g, _ = standard
    swapped = GammaSet(
        gamma0=g.gamma0,
        gamma1=g.gamma2,
        gamma2=g.gamma1,
        gamma3=g.gamma3,
        gamma5=g.gamma5,
    )
    report = identity_suite(swapped, build_eta(swapped))
    failures = [name for name, dev in report.items() if dev > IDENTITY_TOL]
    assert failures and failures[0] == "gamma5_product"
    for name, dev in report.items():
        if name.startswith("anticommutator"):
            assert dev <= IDENTITY_TOL, name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_conjugated_representation_passes(seed):
    g = build_standard_gammas()
    u = random_householder_unitary(np.random.default_rng(seed))
    g_conj = conjugate_gammas(g, u)
    assert max(identity_suite(g_conj, build_eta(g_conj)).values()) <= 1e-13
    assert footnote_equivalence_check(g_conj) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_householder_unitary_is_unitary(seed):
    u = random_householder_unitary(np.random.default_rng(seed))
    assert max_abs(u @ u.conj().T - np.eye(4)) <= 1e-14
