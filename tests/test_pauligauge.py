import contextlib
import inspect
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from etawave import clifford, numerics
from etawave import pauligauge as pg
from etawave.clifford import (
    PAULI,
    build_eta,
    build_standard_gammas,
    conjugate_gammas,
    random_householder_unitary,
)

EXTENT = 8.0


# Reference forms the lattice kernels replaced: np.roll differences and a
# dense einsum over the spin index, composed as the checks used to be.


def roll_diff(field, axis, h):
    return (np.roll(field, -1, axis=axis) - np.roll(field, 1, axis=axis)) / (2.0 * h)


def einsum_apply(matrix, psi):
    return np.einsum("ab,b...->a...", matrix, psi)


def ref_momentum(f, psi, axis, e_charge):
    return -1j * roll_diff(psi, psi.ndim - 3 + axis, f.h) - e_charge * f.a[axis] * psi


def ref_sigma_pi(f, psi, e_charge):
    out = np.zeros_like(psi)
    for axis in range(3):
        out += einsum_apply(PAULI[axis], ref_momentum(f, psi, axis, e_charge))
    return out


def ref_hamiltonian(f, psi, m, e_charge=1.0):
    # H psi = (sigma.Pi)^2 psi / (2m) + e A0 psi
    sigma_pi = ref_sigma_pi(f, ref_sigma_pi(f, psi, e_charge), e_charge)
    return sigma_pi / (2.0 * m) + e_charge * f.a0 * psi


def ref_norm(psi):
    return float(np.sqrt(np.sum(np.abs(psi) ** 2)))


def ref_identity_check(f, psi, e_charge):
    lhs = ref_sigma_pi(f, ref_sigma_pi(f, psi, e_charge), e_charge)
    rhs = np.zeros_like(psi)
    for axis in range(3):
        rhs += ref_momentum(f, ref_momentum(f, psi, axis, e_charge), axis, e_charge)
    for axis in range(3):
        rhs -= e_charge * f.b[axis] * einsum_apply(PAULI[axis], psi)
    return ref_norm(lhs - rhs) / ref_norm(psi)


def ref_commutator_check(f, psi, e_charge):
    xy = ref_momentum(f, ref_momentum(f, psi, 1, e_charge), 0, e_charge)
    yx = ref_momentum(f, ref_momentum(f, psi, 0, e_charge), 1, e_charge)
    return ref_norm(xy - yx - 1j * e_charge * f.b[2] * psi) / ref_norm(psi)


def ref_wave_form(f, psi4, e_energy, m, e_charge):
    g = build_standard_gammas()
    eta = build_eta(g)
    applied = (e_energy - e_charge * f.a0) * einsum_apply(eta, psi4)
    for axis, gamma in enumerate((g.gamma1, g.gamma2, g.gamma3)):
        applied += einsum_apply(gamma, ref_momentum(f, psi4, axis, e_charge))
    applied += m * einsum_apply(eta.conj().T, psi4)
    # a numpy scalar, so a long-double reference keeps its precision
    return np.sum(np.conj(psi4) * applied) * f.h**3


def ref_psi4(psi):
    # the 4-component state the forms take: psi itself, or psi over 0.7 psi
    # shifted by N/8 along x
    if len(psi) == 4:
        return psi
    return np.concatenate([psi, 0.7 * np.roll(psi, psi.shape[1] // 8, axis=1)], axis=0)


def ref_gauge_check(f, theta, psi, e_energy, m, e_charge):
    psi4 = ref_psi4(psi)
    q0 = ref_wave_form(f, psi4, e_energy, m, e_charge)
    a_t = np.stack([f.a[axis] - roll_diff(theta, axis, f.h) for axis in range(3)])
    f_t = pg.GaugeField(a0=f.a0, a=a_t, b=f.b, h=f.h, n=f.n)
    q1 = ref_wave_form(f_t, np.exp(-1j * e_charge * theta) * psi4, e_energy, m, e_charge)
    return abs(q1 - q0) / abs(q0)


def zero_field(n, extent=EXTENT):
    h = extent / n
    zero = np.zeros((n, n, n))
    return pg.GaugeField(a0=zero, a=np.zeros((3, n, n, n)), b=np.zeros((3, n, n, n)), h=h, n=n)


def plane_wave(n, extent, j_per_axis):
    # commensurate wavevector k_i = 2 pi j_i / extent
    (x, y, z), _ = pg.grid_coordinates(n, extent)
    k = 2.0 * np.pi * np.asarray(j_per_axis) / extent
    wave = np.exp(1j * (k[0] * x + k[1] * y + k[2] * z))
    return np.stack([wave, 0.4 * wave]), k


def test_plane_wave_momentum_eigenvalue():
    n = 16
    f = zero_field(n)
    psi, k = plane_wave(n, EXTENT, (3, 0, 0))
    applied = pg.covariant_momentum_apply(f, psi, 0)
    expected = np.sin(k[0] * f.h) / f.h
    assert np.max(np.abs(applied - expected * psi)) <= 1e-12


def test_constant_vector_potential_shifts_eigenvalue():
    n = 16
    f = zero_field(n)
    a_const = 0.37
    shifted = pg.GaugeField(
        a0=f.a0, a=np.full((3, n, n, n), a_const), b=f.b, h=f.h, n=n
    )
    psi, k = plane_wave(n, EXTENT, (2, 0, 0))
    applied = pg.covariant_momentum_apply(shifted, psi, 0, e_charge=1.3)
    expected = np.sin(k[0] * f.h) / f.h - 1.3 * a_const
    assert np.max(np.abs(applied - expected * psi)) <= 1e-12


def test_momentum_annihilates_constants():
    n = 8
    f = zero_field(n)
    psi = np.ones((2, n, n, n), dtype=complex)
    for axis in range(3):
        assert np.all(pg.covariant_momentum_apply(f, psi, axis) == 0.0)


def test_momentum_rejects_bad_axis():
    f = zero_field(8)
    with pytest.raises(ValueError):
        pg.covariant_momentum_apply(f, np.ones((2, 8, 8, 8), dtype=complex), 3)


def test_identity_exact_without_field():
    # components of the discrete momentum commute, so (sigma.p)^2 = p^2
    # holds without truncation error
    n = 16
    f = zero_field(n)
    psi = pg.gaussian_bump_state(n, EXTENT)
    assert pg.pauli_identity_check(f, psi) <= 1e-12


def test_identity_matches_commutator_for_uniform_field():
    # with B along z only the [Pi_x, Pi_y] error feeds the identity residual,
    # so the two checks return the same number
    n = 16
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = pg.gaussian_bump_state(n, EXTENT)
    ident = pg.pauli_identity_check(f, psi)
    comm = pg.commutator_check(f, psi)
    assert ident == pytest.approx(comm, rel=1e-10)


def test_convergence_orders_small_grids():
    rows = pg.convergence_table(sizes=(16, 32, 64))
    for column in (1, 2, 3):
        orders = pg.convergence_orders([r[column] for r in rows])
        assert all(order >= 1.8 for order in orders)
    halving = [rows[i][0] / rows[i + 1][0] for i in range(2)]
    assert halving == pytest.approx([2.0, 2.0], rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
)
def test_sigma_dot_product_identity(a_vec, b_vec):
    a = np.asarray(a_vec)
    b = np.asarray(b_vec)
    sigma_a = sum(a[i] * PAULI[i] for i in range(3))
    sigma_b = sum(b[i] * PAULI[i] for i in range(3))
    cross = np.cross(a, b)
    expected = np.dot(a, b) * np.eye(2) + 1j * sum(cross[i] * PAULI[i] for i in range(3))
    assert np.max(np.abs(sigma_a @ sigma_b - expected)) <= 1e-14


def test_sigma_anticommutation():
    for i in range(3):
        for j in range(3):
            anti = PAULI[i] @ PAULI[j] + PAULI[j] @ PAULI[i]
            expected = 2.0 * (1.0 if i == j else 0.0) * np.eye(2)
            assert np.max(np.abs(anti - expected)) == 0.0


def test_gauge_constant_theta_exact():
    n = 16
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = pg.gaussian_bump_state(n, EXTENT)
    theta = np.full((n, n, n), 0.8)
    assert pg.gauge_invariance_check(f, theta, psi, 2.0, 1.5) <= 1e-13


def test_gauge_zero_charge_exact():
    n = 16
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = pg.gaussian_bump_state(n, EXTENT)
    theta = pg.commensurate_theta(n, EXTENT)
    assert pg.gauge_invariance_check(f, theta, psi, 2.0, 1.5, e_charge=0.0) <= 1e-13


def test_hamiltonian_plane_wave_kinetic_eigenvalue():
    n = 16
    m = 1.5
    f = zero_field(n)
    psi, k = plane_wave(n, EXTENT, (1, 2, 3))
    applied = ref_hamiltonian(f, psi, m)
    expected = sum((np.sin(k_i * f.h) / f.h) ** 2 for k_i in k) / (2.0 * m)
    assert np.max(np.abs(applied - expected * psi)) <= 1e-12


def test_hamiltonian_hermitian_on_random_states():
    n = 16
    rng = np.random.default_rng(7)
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    scalar = 0.2 * np.cos(2.0 * np.pi * np.arange(n) / n)
    f = pg.GaugeField(
        a0=np.broadcast_to(scalar[:, None, None], (n, n, n)).copy(),
        a=f.a,
        b=f.b,
        h=f.h,
        n=n,
    )
    for _ in range(4):
        phi = rng.standard_normal((2, n, n, n)) + 1j * rng.standard_normal((2, n, n, n))
        psi = rng.standard_normal((2, n, n, n)) + 1j * rng.standard_normal((2, n, n, n))
        lhs = np.vdot(phi, ref_hamiltonian(f, psi, 1.5))
        rhs = np.vdot(ref_hamiltonian(f, phi, 1.5), psi)
        assert abs(lhs - rhs) <= 1e-12 * ref_norm(phi) * ref_norm(psi)


def spin_bump(n, spin_up):
    (x, y, z), _ = pg.grid_coordinates(n, EXTENT)
    sigma = EXTENT / 12.0
    bump = np.exp(-(x**2 + y**2 + z**2) / (2.0 * sigma**2)).astype(complex)
    zero = np.zeros_like(bump)
    return np.stack([bump, zero]) if spin_up else np.stack([zero, bump])


def zeeman_split(n, bz, m):
    f = pg.uniform_b_field(n, EXTENT, bz)
    values = []
    for spin_up in (True, False):
        chi = spin_bump(n, spin_up)
        values.append((np.vdot(chi, ref_hamiltonian(f, chi, m)) / np.vdot(chi, chi)).real)
    return abs(values[1] - values[0])


def test_zeeman_splitting_converges_to_field_over_mass():
    # sigma.B eigenstates split by eB/m; localized states dodge the seam of
    # the non-periodic symmetric gauge, Richardson removes the h^2 bias
    bz, m = 0.3, 1.5
    s32 = zeeman_split(32, bz, m)
    s64 = zeeman_split(64, bz, m)
    target = bz / m
    order = np.log2(abs(s32 - target) / abs(s64 - target))
    assert 1.7 < order < 2.3
    richardson = (4.0 * s64 - s32) / 3.0
    assert abs(richardson - target) <= 1e-3 * target


def test_field_validation():
    with pytest.raises(ValueError):
        pg.uniform_b_field(4, EXTENT, 0.1)
    zero = np.zeros((8, 8, 8))
    with pytest.raises(ValueError):
        pg.GaugeField(a0=zero, a=np.zeros((3, 8, 8, 8)), b=np.zeros((3, 8, 8, 8)), h=-1.0, n=8)
    # a field made for another N would be read wrapped at its own size: the
    # A of a 16-point field with n = 8 gave an identity residual of 0.2273,
    # against 0.1789 from the 8-point field
    f8, f16 = pg.uniform_b_field(8, EXTENT, 0.3), pg.uniform_b_field(16, EXTENT, 0.3)
    for a0, a, b in (
        (f8.a0, f16.a, f8.b),
        (f16.a0, f8.a, f8.b),
        (f8.a0, f8.a, f16.b),
        (f8.a0, f8.a[0], f8.b),
        (f8.a0[0], f8.a, f8.b),
    ):
        with pytest.raises(ValueError, match="must broadcast to"):
            pg.GaugeField(a0=a0, a=a, b=b, h=f8.h, n=8)
    # broadcast views, (3, N, N, 1) rows and a (3, 1, 1, 1) vector are fields
    # at their true dimension
    rows = pg.GaugeField(a0=f8.a0, a=f8.a[..., :1], b=np.zeros((3, 1, 1, 1)), h=f8.h, n=8)
    assert rows.a.shape == (3, 8, 8, 1)


def test_bump_state_shape_and_decay():
    n = 16
    psi = pg.gaussian_bump_state(n, EXTENT)
    assert psi.shape == (2, n, n, n)
    assert np.max(np.abs(psi[:, 0, :, :])) <= 1e-6 * np.max(np.abs(psi))


@pytest.mark.parametrize("n", [8, 17, 32])
def test_fields_are_the_dense_meshgrid_forms_bitwise(n):
    # the field constructors broadcast 1-D coordinates; full meshgrid arrays give the
    # same expressions the same bits: the Gaussian is the product of one factor
    # per axis, the x factor with the coefficient (and the cos) times the (y, z) one
    extent, bz = 5.5, -1.7
    sigma = extent / 12.0
    h = extent / n
    axis = (np.arange(n) - n / 2) * h
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    zero = np.zeros((n, n, n))
    gx, gy, gz = (np.exp(-(c**2) / (2.0 * sigma**2)) for c in (x, y, z))
    plane = gy * gz
    expected = (
        np.stack([-0.5 * bz * y, 0.5 * bz * x, zero]),
        np.stack([zero, zero, np.full((n, n, n), bz)]),
        np.stack([
            gx * (1.0 + 0.3j) * plane,
            gx * np.cos(2.0 * np.pi * x / extent) * (0.5 - 0.2j) * plane,
        ]),
        0.4 * np.sin(2.0 * np.pi * x / extent),
    )
    f = pg.uniform_b_field(n, extent, bz)
    got = (f.a, f.b, pg.gaussian_bump_state(n, extent), pg.commensurate_theta(n, extent))
    assert f.h == h and f.a0.tobytes() == zero.tobytes()
    for g, e in zip(got, expected):
        assert g.shape == e.shape and g.dtype == e.dtype
        assert g.tobytes() == e.tobytes()


lattice_sizes = st.integers(8, 20)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(lattice_sizes, lattice_sizes, lattice_sizes),
    st.floats(1e-3, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_centered_diff_is_the_roll_difference_bitwise(shape, h, seed):
    # the gauge shift's gradient and, with no potential, -i/(2h) times the
    # unscaled momentum kernel are the np.roll differences to the bit
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(shape)
    psi = rng.standard_normal((4, *shape)) + 1j * rng.standard_normal((4, *shape))
    no_potential = np.zeros(shape)
    for axis in range(3):
        got = pg._difference(theta, axis) / (2.0 * h)
        assert got.tobytes() == roll_diff(theta, axis, h).tobytes(), axis
        got = pg._momentum(psi, no_potential, axis) * (-0.5j / h)
        expected = -1j * roll_diff(psi, axis + 1, h)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), axis


@settings(max_examples=60, deadline=None)
@given(
    st.integers(8, 20),
    st.sampled_from([2, 4]),
    st.integers(0, 19),
    st.integers(1, 20),
    st.sampled_from([1, 2]),
    st.floats(-2.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_momentum_kernel_on_a_slab_is_the_whole_box_value_bitwise(
    n, comps, lo, width, halo, e_charge, seed
):
    # planes lo..lo+width-1, wrapping past the seam, gathered with a periodic
    # halo and weighted as the checks gather and weight them; -i/(2h) times
    # the unscaled kernel is the public whole-box value
    rng = np.random.default_rng(seed)
    lo %= n
    hi = lo + min(width, n)
    f = pg.GaugeField(
        a0=np.zeros((n, n, n)), a=rng.standard_normal((3, n, n, n)),
        b=np.zeros((3, n, n, n)), h=EXTENT / n, n=n,
    )
    psi = rng.standard_normal((comps, n, n, n)) + 1j * rng.standard_normal((comps, n, n, n))
    psi_s = pg._planes(psi, lo - halo, hi + halo)
    weights = pg._weights(f.a, lo, hi, 2j * f.h * e_charge)
    for axis in range(3):
        got = pg._momentum(psi_s, weights[axis], axis) * (-0.5j / f.h)
        whole = pg.covariant_momentum_apply(f, psi, axis, e_charge)
        expected = np.take(whole, np.arange(lo, hi), axis=1, mode="wrap")
        assert got.tobytes() == expected.tobytes(), axis


@pytest.mark.parametrize("n", [9, 17])
@pytest.mark.parametrize("halo", [0, 1, 2])
def test_difference_and_momentum_are_the_roll_forms_bitwise(n, halo):
    # every axis at odd N, on the whole box (halo 0) and on slabs gathered
    # with a halo; a 3-D field (the gauge function: centered and forward
    # differences) and a 4-component state
    rng = np.random.default_rng(n + 10 * halo)
    h = EXTENT / n
    theta = rng.standard_normal((n, n, n))
    psi = rng.standard_normal((4, n, n, n)) + 1j * rng.standard_normal((4, n, n, n))
    no_potential = np.zeros((n, n, n))
    bounds = [(0, n)] if halo == 0 else [(0, 5), (3, n), (n - 2, n + 4)]
    for lo, hi in bounds:
        planes = np.arange(lo, hi)
        theta_s = pg._planes(theta, lo - halo, hi + halo)
        psi_s = pg._planes(psi, lo - halo, hi + halo)
        for axis in range(3):
            expected = np.roll(theta, -1, axis=axis) - np.roll(theta, 1, axis=axis)
            got = pg._difference(theta_s, axis, halo)
            assert got.tobytes() == np.take(expected, planes, axis=0, mode="wrap").tobytes()
            expected = np.roll(theta, -1, axis=axis) - theta
            got = pg._difference(theta_s, axis, halo, centered=False)
            assert got.tobytes() == np.take(expected, planes, axis=0, mode="wrap").tobytes()
            got = pg._momentum(psi_s, no_potential[: hi - lo], axis) * (-0.5j / h)
            expected = np.take(-1j * roll_diff(psi, axis + 1, h), planes, axis=1, mode="wrap")
            assert got.tobytes() == expected.tobytes(), (lo, hi, axis)


def test_public_stencils_take_any_memory_layout_bitwise():
    # a Fortran-ordered state and a transposed view give the C-ordered bits
    n = 9
    rng = np.random.default_rng(23)
    f = pg.GaugeField(
        a0=np.zeros((n, n, n)), a=rng.standard_normal((3, n, n, n)),
        b=np.zeros((3, n, n, n)), h=EXTENT / n, n=n,
    )
    psi = rng.standard_normal((2, n, n, n)) + 1j * rng.standard_normal((2, n, n, n))
    layouts = (
        np.asfortranarray(psi),
        np.ascontiguousarray(psi.transpose(0, 3, 2, 1)).transpose(0, 3, 2, 1),
    )
    for other in layouts:
        assert not other.flags.c_contiguous
        for axis in range(3):
            expected = pg.covariant_momentum_apply(f, psi, axis, 0.7)
            assert pg.covariant_momentum_apply(f, other, axis, 0.7).tobytes() == expected.tobytes()
        expected = pg.sigma_pi_apply(f, psi, 0.7)
        assert pg.sigma_pi_apply(f, other, 0.7).tobytes() == expected.tobytes()


def test_checks_reject_what_they_cannot_measure():
    n = 16
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = pg.gaussian_bump_state(n, EXTENT)
    theta = pg.commensurate_theta(n, EXTENT)
    psi4 = np.concatenate([psi, psi])
    nan_psi = psi.copy()
    nan_psi[1, n // 2, 3, 4] = np.nan
    inf_field = pg.GaugeField(a0=f.a0, a=f.a, b=np.full_like(f.b, np.inf), h=f.h, n=n)
    huge = pg.uniform_b_field(n, EXTENT, 1e150)
    # 4h^2 below the normal range (a residual divided by it would have lost
    # its digits) and beyond the float range (it would read 0)
    tiny_box = pg.uniform_b_field(n, 1e-160, 0.3)
    vast_box = pg.uniform_b_field(n, 1e160, 0.3)
    identity, gauge, commutator = (
        pg.pauli_identity_check,
        pg.gauge_invariance_check,
        pg.commutator_check,
    )
    calls = [
        ("identity, 4 components", lambda: identity(f, psi4)),
        ("identity, 3 components", lambda: identity(f, psi4[:3])),
        ("sigma.Pi, 4 components", lambda: pg.sigma_pi_apply(f, psi4)),
        ("gauge, 3 components", lambda: gauge(f, theta, psi4[:3], 2.0, 1.5)),
        ("commutator, 0 components", lambda: commutator(f, psi[:0])),
        ("identity, 3-D state", lambda: identity(f, psi[0])),
        ("commutator, other N", lambda: commutator(f, pg.gaussian_bump_state(n // 2, EXTENT))),
        ("gauge, theta of other N", lambda: gauge(f, theta[:-1], psi, 2.0, 1.5)),
        ("gauge, 4-D theta", lambda: gauge(f, theta[None], psi, 2.0, 1.5)),
        ("gauge, complex theta", lambda: gauge(f, theta + 0.1j, psi, 2.0, 1.5)),
        ("gauge, nan energy", lambda: gauge(f, theta, psi, np.nan, 1.5)),
        ("gauge, inf mass", lambda: gauge(f, theta, psi, 2.0, np.inf)),
        ("gauge, inf charge", lambda: gauge(f, theta, psi, 2.0, 1.5, np.inf)),
        ("identity, nan charge", lambda: identity(f, psi, np.nan)),
        ("commutator, inf charge", lambda: commutator(f, psi, -np.inf)),
        ("identity, zero state", lambda: identity(f, np.zeros_like(psi))),
        ("commutator, zero state", lambda: commutator(f, np.zeros_like(psi))),
        ("gauge, zero state", lambda: gauge(f, theta, np.zeros_like(psi), 2.0, 1.5)),
        ("identity, nan in psi", lambda: identity(f, nan_psi)),
        ("gauge, nan in psi", lambda: gauge(f, theta, nan_psi, 2.0, 1.5)),
        ("commutator, nan in psi", lambda: commutator(f, nan_psi)),
        ("identity, inf in B", lambda: identity(inf_field, psi)),
        ("gauge, nan in theta", lambda: gauge(f, np.full_like(theta, np.nan), psi, 2.0, 1.5)),
        ("identity, squares overflow", lambda: identity(huge, psi)),
        ("commutator, squares overflow", lambda: commutator(huge, psi)),
        ("identity, 4h^2 subnormal", lambda: identity(tiny_box, psi)),
        ("commutator, 4h^2 subnormal", lambda: commutator(tiny_box, psi)),
        ("identity, 4h^2 overflows", lambda: identity(vast_box, psi)),
        ("commutator, 4h^2 overflows", lambda: commutator(vast_box, psi)),
    ]
    # non-finite inputs are found from the sums, and numpy warns on the way
    with np.errstate(all="ignore"):
        for label, call in calls:
            with pytest.raises(ValueError):
                call()
                pytest.fail(label)


@pytest.mark.parametrize(
    "scale, exact",
    [
        (2.0**-520, True),
        (1e-158, False),
        # squares, and the gauge form, underflow to 0: once refused
        (1e-200, False),
        # squares overflow
        (2.0**520, True),
    ],
)
def test_checks_of_a_scaled_state_equal_those_of_the_state(scale, exact):
    # the checks are exact under psi -> 2^k psi: a state whose squares
    # underflow or overflow is checked again at unit scale, a power-of-two
    # multiple of psi gives its bits, and any other multiple its value to
    # rounding
    n = 16
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = pg.gaussian_bump_state(n, EXTENT)
    theta = pg.commensurate_theta(n, EXTENT)
    for check in (
        lambda p: pg.pauli_identity_check(f, p),
        lambda p: pg.gauge_invariance_check(f, theta, p, 2.0, 1.5),
        lambda p: pg.commutator_check(f, p),
    ):
        expected = check(psi)
        # the first pass over a huge state overflows on the way
        with np.errstate(over="ignore", invalid="ignore") if scale > 1 else contextlib.nullcontext():
            got = check(psi * scale)
        if exact:
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-13, abs=0)


def spin_matrices(rng):
    """(matrix, components): the Pauli matrices, the standard gammas, eta and
    eta^+, and the gammas, eta and eta^+ of a randomly conjugated (dense)
    set."""
    out = [(s, 2) for s in PAULI]
    g = build_standard_gammas()
    out += [(g.gamma0, 4), (g.gamma5, 4)]
    for gammas in (g, conjugate_gammas(g, random_householder_unitary(rng))):
        eta = build_eta(gammas)
        for matrix in (gammas.gamma1, gammas.gamma2, gammas.gamma3, eta, eta.conj().T):
            out.append((matrix, 4))
    return out


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_xor_diagonals_rebuild_every_spin_matrix(seed):
    # matrix[a, a ^ k] = c[a] gives back every entry, and psi_{a ^ k} (the
    # pairs flipped by `_flip` for 4 components) applies the matrix as the
    # einsum does: one diagonal for each Pauli matrix and standard gamma,
    # k = 0 and 2 for eta and eta^+, all four for the dense set
    rng = np.random.default_rng(seed)
    counts = []
    for matrix, comps in spin_matrices(rng):
        diagonals = pg._xor_diagonals(matrix)
        counts.append([k for k, _ in diagonals])
        index = np.arange(comps)
        rebuilt = np.zeros_like(matrix)
        for k, c in diagonals:
            rebuilt[index, index ^ k] = c
        assert np.array_equal(rebuilt, matrix)
        psi = rng.standard_normal((comps, 3, 4, 5)) + 1j * rng.standard_normal((comps, 3, 4, 5))
        if comps == 2:
            applied = sum(c[:, None, None, None] * psi[index ^ k] for k, c in diagonals)
        else:
            pairs = psi.reshape((2, 2) + psi.shape[1:])
            terms = (c.reshape(2, 2, 1, 1, 1) * pg._flip(pairs, k) for k, c in diagonals)
            applied = sum(terms).reshape(psi.shape)
        error = np.max(np.abs(applied - einsum_apply(matrix, psi)))
        assert error <= 1e-15 * np.max(np.abs(psi))
    assert counts[:10] == [[1], [1], [0], [0], [2], [3], [3], [2], [0, 2], [0, 2]]
    assert counts[10:] == [[0, 1, 2, 3]] * 5
    assert [k for k, _ in pg._PAULI_DIAGONALS] == [1, 1, 0]
    # the spatial gammas are anti-Hermitian, so a hop form needs no backward hop
    g = build_standard_gammas()
    for gamma in (g.gamma1, g.gamma2, g.gamma3):
        assert np.array_equal(gamma.conj().T, -gamma)


@pytest.mark.parametrize("n", [16, 24])
def test_checks_match_roll_einsum_reference(n):
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    # a scalar potential and a charge other than 1 reach every scaled term
    a0 = 0.2 * np.cos(2.0 * np.pi * np.arange(n) / n)
    f = pg.GaugeField(
        a0=np.broadcast_to(a0[:, None, None], (n, n, n)).copy(), a=f.a, b=f.b, h=f.h, n=n
    )
    psi = pg.gaussian_bump_state(n, EXTENT)
    theta = pg.commensurate_theta(n, EXTENT)
    for e_charge in (1.0, 0.7):
        pairs = (
            (pg.pauli_identity_check(f, psi, e_charge), ref_identity_check(f, psi, e_charge)),
            (pg.commutator_check(f, psi, e_charge), ref_commutator_check(f, psi, e_charge)),
            (
                pg.gauge_invariance_check(f, theta, psi, 2.0, 1.5, e_charge),
                ref_gauge_check(f, theta, psi, 2.0, 1.5, e_charge),
            ),
        )
        for got, expected in pairs:
            assert got == pytest.approx(expected, rel=1e-12)


def checks_with_potential(n, e_charge):
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    a0 = 0.2 * np.cos(2.0 * np.pi * np.arange(n) / n)
    f = pg.GaugeField(
        a0=np.broadcast_to(a0[:, None, None], (n, n, n)).copy(), a=f.a, b=f.b, h=f.h, n=n
    )
    psi = pg.gaussian_bump_state(n, EXTENT)
    theta = pg.commensurate_theta(n, EXTENT)
    return (
        lambda: pg.pauli_identity_check(f, psi, e_charge),
        lambda: pg.commutator_check(f, psi, e_charge),
        lambda: pg.gauge_invariance_check(f, theta, psi, 2.0, 1.5, e_charge),
    ), (
        lambda: ref_identity_check(f, psi, e_charge),
        lambda: ref_commutator_check(f, psi, e_charge),
        lambda: ref_gauge_check(f, theta, psi, 2.0, 1.5, e_charge),
    )


@pytest.mark.parametrize("n", [16, 24, 40])
@pytest.mark.parametrize("e_charge", [1.0, 0.7])
@pytest.mark.parametrize("width", [1, 5, 7, 16])
def test_slab_checks_match_roll_einsum_reference(n, e_charge, width, monkeypatch):
    # slabs of `width` x-planes, most not dividing N, so the last slab is
    # narrower; width 16 makes N = 16 one slab wrapping its own halo (N = 40:
    # 16 + 16 + 8 planes)
    monkeypatch.setattr(pg, "_SLAB_PLANES", width)
    checks, refs = checks_with_potential(n, e_charge)
    for check, ref in zip(checks, refs):
        assert check() == pytest.approx(ref(), rel=1e-12)


def test_slabs_cover_every_plane_once_in_order(monkeypatch):
    def slab(lo, hi, halo):
        return lo, hi, halo

    # slabs of 8 planes with a halo below N = 64: N = 32 makes four (2^13
    # sites each) and N = 16 two
    assert pg._over_slabs(slab, 32, 2) == [(lo, lo + 8, 2) for lo in range(0, 32, 8)]
    assert pg._over_slabs(slab, 16, 1) == [(0, 8, 1), (8, 16, 1)]
    # a plane count that does not divide N leaves a narrower last slab
    assert pg._over_slabs(slab, 40, 1) == [(lo, lo + 8, 1) for lo in range(0, 40, 8)]
    assert pg._over_slabs(slab, 9, 2) == [(0, 8, 2), (8, 9, 2)]
    # a box of at most 8 planes is one slab, whose halo wraps around it
    assert pg._over_slabs(slab, 8, 2) == [(0, 8, 2)]
    # from N = 64 on, slabs of 4 planes below N = 128 and of 3 from it,
    # whatever the thread count: N = 64 makes 16 slabs, of which the calling
    # thread runs the first 8 and a worker the last 8 on two threads; N = 128
    # makes 43, the last of 2 planes, the calling thread running the first 22
    caller = threading.get_ident()
    for threads in (1, 2):
        monkeypatch.setattr(pg, "_THREADS", threads)
        for n, width in ((64, 4), (100, 4), (127, 4), (128, 3), (256, 3)):
            ran = pg._over_slabs(lambda lo, hi, halo: (lo, hi, halo, threading.get_ident()), n, 2)
            expected = [(lo, min(lo + width, n), 2) for lo in range(0, n, width)]
            assert [r[:3] for r in ran] == expected
            half = (len(ran) + 1) // 2 if threads == 2 else len(ran)
            assert {r[3] for r in ran[:half]} == {caller}
            assert caller not in {r[3] for r in ran[half:]}
        assert len(pg._over_slabs(slab, 64, 2)) == 16
        assert len(pg._over_slabs(slab, 128, 2)) == 43


@pytest.mark.parametrize("failing", [0, 127])
def test_an_error_in_a_threaded_slab_reaches_the_caller(failing, monkeypatch):
    # a slab of the calling thread's half or of the worker's half, of the
    # 4-plane slabs at N = 64 (plane 127 % 64 = 63) and the 3-plane ones at 128
    monkeypatch.setattr(pg, "_THREADS", 2)
    for n in (64, 128):

        def slab(lo, hi, halo):
            if lo <= failing % n < hi:
                raise MemoryError(lo)
            return lo

        with pytest.raises(MemoryError):
            pg._over_slabs(slab, n, 1)


def general_field(n, rng):
    """Random a0 and every component of A and B (B is not the curl of A: the
    checks evaluate their formulas for any field), with a random state and
    gauge function."""
    f = pg.GaugeField(
        a0=rng.standard_normal((n, n, n)),
        a=rng.standard_normal((3, n, n, n)),
        b=rng.standard_normal((3, n, n, n)),
        h=EXTENT / n,
        n=n,
    )
    psi = rng.standard_normal((2, n, n, n)) + 1j * rng.standard_normal((2, n, n, n))
    return f, psi, rng.standard_normal((n, n, n))


@pytest.mark.parametrize("width", [None, 5, 16])
@pytest.mark.parametrize("e_charge", [1.0, 0.7])
def test_checks_match_reference_on_a_general_field(width, e_charge, monkeypatch):
    # reaches the B_x, B_y and A_z weights, which the uniform field along z
    # leaves at zero; N = 16 in the two slabs of the default width, in one
    # slab wrapping its own halo (width 16) and in width-5 slabs
    n = 16
    if width:
        monkeypatch.setattr(pg, "_SLAB_PLANES", width)
    f, psi, theta = general_field(n, np.random.default_rng(11))
    pairs = (
        (pg.pauli_identity_check(f, psi, e_charge), ref_identity_check(f, psi, e_charge)),
        (pg.commutator_check(f, psi, e_charge), ref_commutator_check(f, psi, e_charge)),
        (
            pg.gauge_invariance_check(f, theta, psi, 2.0, 1.5, e_charge),
            ref_gauge_check(f, theta, psi, 2.0, 1.5, e_charge),
        ),
    )
    for got, expected in pairs:
        assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("width", [5, 16])
@pytest.mark.parametrize("e_charge", [1.0, 0.7])
def test_gauge_check_mixes_row_and_site_weights(width, e_charge, monkeypatch):
    # a0 and A constant along z are applied to the z-row sums, the links and
    # the potential shift of a theta that varies along z site by site, in one
    # call (N = 24: slabs 16 + 8 or 5 x 4 + 4); a random state, so that every
    # axis of the gauge change contributes
    monkeypatch.setattr(pg, "_SLAB_PLANES", width)
    n = 24
    rng = np.random.default_rng(31)
    f = pg.GaugeField(
        a0=np.broadcast_to(rng.standard_normal((n, n, 1)), (n, n, n)).copy(),
        a=np.broadcast_to(rng.standard_normal((3, n, n, 1)), (3, n, n, n)).copy(),
        b=np.zeros((3, n, n, n)),
        h=EXTENT / n,
        n=n,
    )
    theta = rng.standard_normal((n, n, n))
    psi = rng.standard_normal((2, n, n, n)) + 1j * rng.standard_normal((2, n, n, n))
    assert pg._z_rows(f.a0).shape[-1] == 1 and pg._z_rows(f.a[0]).shape[-1] == 1
    assert pg._z_rows(theta) is theta
    got = pg.gauge_invariance_check(f, theta, psi, 2.0, 1.5, e_charge)
    assert got == pytest.approx(ref_gauge_check(f, theta, psi, 2.0, 1.5, e_charge), rel=1e-12)


@pytest.mark.parametrize("along_z", [False, True])
def test_row_forms_are_the_per_site_products(along_z):
    # no weight, a weight constant along z times the z-row sums, and one
    # varying along z as a third factor, against the per-site products of
    # np.roll neighbours summed along z: every hop axis and the local product,
    # for gammas on one xor diagonal and a dense matrix, on a slab inside the
    # box and on one across the x seam; y and z hops cross their seams
    n = 9
    rng = np.random.default_rng(29)
    psi = rng.standard_normal((4, n, n, n)) + 1j * rng.standard_normal((4, n, n, n))
    weight = rng.standard_normal((n, n, n) if along_z else (n, n, 1))
    weight = np.broadcast_to(weight, (n, n, n)).copy()
    g = build_standard_gammas()
    dense = conjugate_gammas(g, random_householder_unitary(rng)).gamma2
    for lo, hi in ((2, 6), (n - 3, n + 2)):
        psi_s = pg._planes(psi, lo - 1, hi + 1)
        rows = pg._row_forms(psi_s.reshape((2, 2) + psi_s.shape[1:]), 1, pg._buffers())
        w = pg._z_rows(pg._planes(weight, lo, hi))
        assert (w.shape[-1] == 1) != along_z
        for matrix in (g.gamma1, g.gamma3, dense):
            for axis in (None, 0, 1, 2):
                there = psi if axis is None else np.roll(psi, -1, axis=axis + 1)
                products = np.einsum("axyz,ab,bxyz->xyz", np.conjugate(psi), matrix, there)
                for site_weight, row_weight in ((1.0, None), (weight, w)):
                    sites = np.sum(site_weight * products, axis=-1)
                    expected = np.take(sites, np.arange(lo, hi), axis=0, mode="wrap")
                    got = rows(pg._xor_diagonals(matrix), row_weight, axis)
                    assert got.shape == expected.shape
                    scale = np.max(np.abs(expected))
                    assert np.max(np.abs(got - expected)) <= 1e-13 * scale, axis


def traced_peak(call) -> int:
    """The tracemalloc peak of call(), in bytes; numpy reports its buffers
    to tracemalloc, so the peak is the same in every run."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wave_form_value_runs_over_slabs():
    # the gauge check's slab q0: no whole-box copy of the state or the fields
    n = 64
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = pg.gaussian_bump_state(n, EXTENT)
    theta = pg.commensurate_theta(n, EXTENT)
    gauge = traced_peak(lambda: pg.gauge_invariance_check(f, theta, psi, 2.0, 1.5, 0.7))
    form = traced_peak(lambda: pg.wave_form_value(f, psi, 2.0, 1.5, 0.7))
    assert form <= gauge + 2**20


def test_identity_check_allocates_at_most_64_x_planes():
    # one identity check at N = 64 allocates about 49 two-component x-planes
    # with 8-plane slab pools
    n = 64
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = pg.gaussian_bump_state(n, EXTENT)
    assert traced_peak(lambda: pg.pauli_identity_check(f, psi)) <= 64 * psi[:, 0].nbytes


def test_bump_state_is_built_with_no_dense_temporary():
    # the state is the product of its factors: beside it they take about
    # 70 KB, where a dense exponent and its exp add 2.2 MB at N = 64
    state_bytes = 2 * 64**3 * np.dtype(complex).itemsize
    assert traced_peak(lambda: pg.gaussian_bump_state(64, EXTENT)) <= state_bytes + 2**19


def test_convergence_table_makes_no_dense_state():
    # the dense state alone is 8.4 MB at N = 64, and the identity check's
    # slab pool adds about 7 MB to it
    state_bytes = 2 * 64**3 * np.dtype(complex).itemsize
    assert traced_peak(lambda: pg.convergence_table((64,))) < state_bytes


@pytest.mark.parametrize(
    "comps, general",
    [(2, False), (4, False), (2, True), (4, True)],
    ids=["2", "4", "general-2", "general-4"],
)
def test_wave_form_value_matches_reference(comps, general):
    # E - eA0 and m weight the eta and eta^+ terms: on the z-row sums where a0
    # is constant along z, and as a third factor of the row sums where a0
    # varies along z (a general field, whose random A does the same)
    n = 16
    rng = np.random.default_rng(5)
    if general:
        f = general_field(n, rng)[0]
    else:
        f = pg.uniform_b_field(n, EXTENT, 0.3)
        a0 = 0.2 * np.cos(2.0 * np.pi * np.arange(n) / n)
        f = pg.GaugeField(
            a0=np.broadcast_to(a0[:, None, None], (n, n, n)).copy(), a=f.a, b=f.b, h=f.h, n=n
        )
    assert (pg._z_rows(f.a0).shape[-1] == 1) != general
    psi = rng.standard_normal((comps, n, n, n)) + 1j * rng.standard_normal((comps, n, n, n))
    got = pg.wave_form_value(f, psi, 2.0, 1.5, e_charge=0.7)
    expected = ref_wave_form(f, ref_psi4(psi), 2.0, 1.5, 0.7)
    assert abs(got - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("width", [None, 5])
def test_checks_leave_inputs_unchanged_and_repeat_bitwise(width, monkeypatch):
    # the slab work arrays never alias the caller's arrays and carry nothing
    # from one call to the next
    n = 16
    if width:
        monkeypatch.setattr(pg, "_SLAB_PLANES", width)
    rng = np.random.default_rng(17)
    f, psi2, theta = general_field(n, rng)
    psi4 = rng.standard_normal((4, n, n, n)) + 1j * rng.standard_normal((4, n, n, n))
    inputs = (f.a0, f.a, f.b, theta, psi2, psi4)
    before = [x.tobytes() for x in inputs]
    calls = [
        lambda: pg.pauli_identity_check(f, psi2, 0.7),
        lambda: pg.wave_form_value(f, psi2, 2.0, 1.5, 0.7),
        lambda: pg.wave_form_value(f, psi4, 2.0, 1.5, 0.7),
    ]
    for psi in (psi2, psi4):
        calls.append(lambda psi=psi: pg.commutator_check(f, psi, 0.7))
        calls.append(lambda psi=psi: pg.gauge_invariance_check(f, theta, psi, 2.0, 1.5, 0.7))
    for call in calls:
        first = np.array(call()).tobytes()
        assert np.array(call()).tobytes() == first
        assert [x.tobytes() for x in inputs] == before


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double here"
)
@pytest.mark.parametrize("n", [16, 24, 40])
@pytest.mark.parametrize("e_charge", [1.0, 0.7])
def test_gauge_check_matches_long_double_reference(n, e_charge):
    # the two forms and their difference in long double: q1 - q0 is about 1e-4
    # of q0, so a difference of two double forms loses that much of its digits
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    a0 = 0.2 * np.cos(2.0 * np.pi * np.arange(n) / n)
    f = pg.GaugeField(
        a0=np.broadcast_to(a0[:, None, None], (n, n, n)), a=f.a, b=f.b, h=f.h, n=n
    )
    psi = pg.gaussian_bump_state(n, EXTENT)
    theta = pg.commensurate_theta(n, EXTENT)
    wide = pg.GaugeField(
        *(np.asarray(x, np.longdouble) for x in (f.a0, f.a, f.b)), h=f.h, n=n
    )
    expected = ref_gauge_check(
        wide, theta.astype(np.longdouble), psi.astype(np.clongdouble), 2.0, 1.5, e_charge
    )
    assert expected.dtype == np.longdouble
    got = pg.gauge_invariance_check(f, theta, psi, 2.0, 1.5, e_charge)
    assert abs(got - expected) <= 2e-14 * expected


def broadcast_and_dense_fields(n):
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    theta = pg.commensurate_theta(n, EXTENT)
    assert 0 in f.a0.strides and 0 in f.a.strides and 0 in f.b.strides and 0 in theta.strides
    dense = pg.GaugeField(a0=np.array(f.a0), a=np.array(f.a), b=np.array(f.b), h=f.h, n=n)
    return (f, theta), (dense, np.array(theta))


def check_calls(fields, theta, psi):
    return (
        lambda: pg.pauli_identity_check(fields, psi, 0.7),
        lambda: pg.gauge_invariance_check(fields, theta, psi, 2.0, 1.5, 0.7),
        lambda: pg.commutator_check(fields, psi, 0.7),
    )


@pytest.mark.parametrize("width", [5, 16])
def test_checks_on_broadcast_fields_equal_dense_copies_bitwise(width, monkeypatch):
    # one path for both: the broadcast fields are read as their (x, y) rows,
    # the wrapping rows gathered by slice copies (N = 24: slabs 16 + 8 or 5 x 4 + 4)
    monkeypatch.setattr(pg, "_SLAB_PLANES", width)
    n = 24
    psi = pg.gaussian_bump_state(n, EXTENT)
    broadcast, dense = broadcast_and_dense_fields(n)
    for got, expected in zip(check_calls(*broadcast, psi), check_calls(*dense, psi)):
        assert np.float64(got()).tobytes() == np.float64(expected()).tobytes()


def test_checks_copy_no_broadcast_field_whole():
    # a dense copy of a broadcast field (np.ascontiguousarray, or np.take of
    # wrapping planes, which copies a non-contiguous source whole) would add
    # 2-6 MB at N = 64 to the peak that the same check reaches on dense fields
    n = 64
    psi = pg.gaussian_bump_state(n, EXTENT)
    broadcast, dense = broadcast_and_dense_fields(n)
    peaks = [
        [traced_peak(call) for call in calls]
        for calls in (check_calls(*broadcast, psi), check_calls(*dense, psi))
    ]
    for on_broadcast, on_dense in zip(*peaks):
        assert on_broadcast <= on_dense + 2**20


@pytest.mark.parametrize("width", [None, 5])
def test_checks_on_the_factored_state_equal_its_dense_product_bitwise(width, monkeypatch):
    # the checks form the planes of the separable state slab by slab as the
    # product of its column's rows and its plane; 5-plane slabs at N = 16
    # wrap their halos and end with a slab of one plane
    if width:
        monkeypatch.setattr(pg, "_SLAB_PLANES", width)
    n = 16
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    theta = pg.commensurate_theta(n, EXTENT)
    factored = pg._bump(n, EXTENT)
    dense = pg.gaussian_bump_state(n, EXTENT)
    assert factored.shape == dense.shape
    for got, expected in zip(check_calls(f, theta, factored), check_calls(f, theta, dense)):
        assert np.float64(got()).tobytes() == np.float64(expected()).tobytes()
    got, expected = (pg.wave_form_value(f, psi, 2.0, 1.5, 0.7) for psi in (factored, dense))
    assert np.complex128(got).tobytes() == np.complex128(expected).tobytes()


@pytest.mark.parametrize("n", [16, 24])
def test_threaded_checks_equal_the_serial_ones_bitwise(n, monkeypatch):
    # N = 16 and 24 take the threaded paths: the 4-plane slabs of N = 64
    # (large_n 128) and the 3-plane slabs of N >= 128 (large_n 16), whose
    # first and last wrap their halos, the second half of them on a worker
    # thread; on the factored state and on the dense one, against one thread
    # and against the reference
    monkeypatch.setattr(pg, "_THREADED_N", 16)
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    theta = pg.commensurate_theta(n, EXTENT)
    for large_n in (128, 16):
        monkeypatch.setattr(pg, "_LARGE_N", large_n)
        for psi in (pg._bump(n, EXTENT), pg.gaussian_bump_state(n, EXTENT)):
            calls = check_calls(f, theta, psi) + (
                lambda: pg.wave_form_value(f, psi, 2.0, 1.5, 0.7),
            )
            values = {}
            for threads in (1, 2):
                monkeypatch.setattr(pg, "_THREADS", threads)
                values[threads] = [np.complex128(call()).tobytes() for call in calls]
            assert values[1] == values[2]
    dense = pg.gaussian_bump_state(n, EXTENT)
    pairs = (
        (pg.pauli_identity_check(f, dense, 0.7), ref_identity_check(f, dense, 0.7)),
        (pg.commutator_check(f, dense, 0.7), ref_commutator_check(f, dense, 0.7)),
        (
            pg.gauge_invariance_check(f, theta, dense, 2.0, 1.5, 0.7),
            ref_gauge_check(f, theta, dense, 2.0, 1.5, 0.7),
        ),
    )
    for got, expected in pairs:
        assert got == pytest.approx(expected, rel=1e-12)


def test_concurrent_threaded_checks_repeat_bitwise(monkeypatch):
    # three callers at once, sharing the one worker thread, with a short
    # switch interval: no slab reads or writes another thread's work arrays
    monkeypatch.setattr(pg, "_THREADED_N", 16)
    monkeypatch.setattr(pg, "_THREADS", 2)
    n = 24
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    calls = check_calls(f, pg.commensurate_theta(n, EXTENT), pg._bump(n, EXTENT))

    def values():
        return [np.float64(call()).tobytes() for call in calls]

    expected = values()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as callers:
            futures = [callers.submit(values) for _ in range(3)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 3


def test_threaded_checks_share_one_worker_thread(monkeypatch):
    # the worker is made once per process and kept, with its malloc arena
    monkeypatch.setattr(pg, "_THREADED_N", 16)
    monkeypatch.setattr(pg, "_THREADS", 2)
    f, psi = pg.uniform_b_field(16, EXTENT, 0.3), pg._bump(16, EXTENT)
    pg.commutator_check(f, psi)
    worker = pg._worker()
    pg.pauli_identity_check(f, psi)
    assert pg._worker() is worker


def test_threaded_slabs_call_no_public_function(monkeypatch):
    # the benchmark's span tracer keeps one call stack for all threads, so a
    # slab may call no public etawave function: every public function of
    # pauligauge, numerics and clifford, wrapped at each etawave module
    # binding as the tracer wraps it, runs on the calling thread, while the
    # worker thread gathers slabs
    monkeypatch.setattr(pg, "_THREADED_N", 16)
    monkeypatch.setattr(pg, "_THREADS", 2)
    calls, gathers = [], set()

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {}
    for module in (pg, numerics, clifford):
        for name, fn in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrappers[id(fn)] = (fn, recorded(name, fn))
    for name, module in list(sys.modules.items()):
        if name == "etawave" or name.startswith("etawave."):
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    monkeypatch.setattr(module, attr, hit[1])
    planes = pg._planes

    def gathered(*args, **kwargs):
        gathers.add(threading.get_ident())
        return planes(*args, **kwargs)

    monkeypatch.setattr(pg, "_planes", gathered)
    n = 24
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = pg._bump(n, EXTENT)
    for call in check_calls(f, pg.commensurate_theta(n, EXTENT), psi):
        call()
    pg.wave_form_value(f, psi, 2.0, 1.5, 0.7)
    names = {name for name, _ in calls}
    assert {"build_standard_gammas", "build_eta", "adjoint", "wave_form_value"} <= names
    assert {ident for _, ident in calls} == {threading.get_ident()}
    assert len(gathers) == 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_runs_threaded_checks(monkeypatch):
    # the parent's worker thread is not copied into the child, which starts
    # its own instead of queueing slabs that no thread runs.  The parent keeps
    # its worker thread, so Python 3.12 and later warn (DeprecationWarning)
    # that forking a multi-threaded process may deadlock; that is expected
    monkeypatch.setattr(pg, "_THREADED_N", 16)
    monkeypatch.setattr(pg, "_THREADS", 2)
    n = 16
    f, psi = pg.uniform_b_field(n, EXTENT, 0.3), pg._bump(n, EXTENT)
    expected = pg.commutator_check(f, psi)
    with multiprocessing.get_context("fork").Pool(1) as child:
        assert child.apply_async(pg.commutator_check, (f, psi)).get(timeout=60) == expected


def slab_pool_peaks(monkeypatch, n, width, threads):
    """The tracemalloc peaks of the three checks at N = `n` in slabs of
    `width` planes on `threads` threads, in one-component x-planes; `n`
    must lie in [_THREADED_N, _LARGE_N).  The worker thread is started
    first, so its start is not counted."""
    monkeypatch.setattr(pg, "_THREADED_SLAB_PLANES", width)
    monkeypatch.setattr(pg, "_THREADS", threads)
    pg._worker()
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    calls = check_calls(f, pg.commensurate_theta(n, EXTENT), pg._bump(n, EXTENT))
    return [traced_peak(call) / (n * n * 16) for call in calls]


def test_two_threads_allocate_less_than_one_8_plane_pool(monkeypatch):
    # each thread has a pool of 3-plane slab arrays; at N = 64 the two take
    # 93, 68 and 79 one-component x-planes in the identity, gauge and
    # commutator checks, against 97, 77 and 85 for 8-plane slabs on one thread
    serial = slab_pool_peaks(monkeypatch, 64, 8, 1)
    threaded = slab_pool_peaks(monkeypatch, 64, 3, 2)
    for two, one in zip(threaded, serial):
        assert two <= one


def test_n64_pools_stay_within_1_2_times_one_8_plane_pool(monkeypatch):
    # the slabs of N = 64 as they run: two pools of 4-plane slab arrays take
    # 113, 85 and 97 one-component x-planes in the identity, gauge and
    # commutator checks, against 97, 77 and 85 for 8-plane slabs on one thread
    assert pg._THREADED_N <= 64 < pg._LARGE_N
    threaded = slab_pool_peaks(monkeypatch, 64, pg._THREADED_SLAB_PLANES, 2)
    serial = slab_pool_peaks(monkeypatch, 64, 8, 1)
    for two, one in zip(threaded, serial):
        assert two <= 1.2 * one


def test_n64_row_on_two_threads_equals_one_thread_and_8_plane_slabs(monkeypatch):
    # the 4-plane slabs add their partial sums in another order than the
    # 8-plane ones: the row moves by rounding only, and its bits do not
    # depend on the thread count
    monkeypatch.setattr(pg, "_THREADS", 1)
    one = pg.convergence_table((64,))
    monkeypatch.setattr(pg, "_THREADS", 2)
    assert pg.convergence_table((64,)) == one
    monkeypatch.setattr(pg, "_THREADS", 1)
    monkeypatch.setattr(pg, "_THREADED_SLAB_PLANES", 8)
    (serial,) = pg.convergence_table((64,))
    for got, want in zip(one[0], serial):
        assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_checks_of_scaled_factors_equal_those_of_the_state():
    # squares of the state scaled by 2^-600 underflow: the checks rescale the
    # column by a power of two, which is exact
    n = 16
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    theta = pg.commensurate_theta(n, EXTENT)
    bump = pg._bump(n, EXTENT)
    tiny = pg._Separable(bump.column * 2.0**-600, bump.plane)
    for got, expected in zip(check_calls(f, theta, tiny), check_calls(f, theta, bump)):
        assert got() == expected()


@settings(max_examples=40, deadline=None)
@given(st.integers(-520, 520))
@example(256)
@example(496)
@example(-496)
def test_identity_and_commutator_residuals_scale_with_the_box(k):
    # the box scaled by s = 2^k and the field by 1/s^2: the residuals, of
    # dimension 1/length^2, scale by exactly 1/s^2 or the check refuses the
    # spacing, also where squares of the scaled momenta Pi would leave the
    # float range (|k| >= 256)
    n = 16
    s = math.ldexp(1.0, k)
    # the fields of the widest boxes overflow on the way
    with np.errstate(all="ignore"):
        scaled = pg.uniform_b_field(n, EXTENT * s, 0.3 / s / s), pg.gaussian_bump_state(
            n, EXTENT * s
        )
    base = pg.uniform_b_field(n, EXTENT, 0.3), pg.gaussian_bump_state(n, EXTENT)
    for check in (pg.pauli_identity_check, pg.commutator_check):
        try:
            got = check(*scaled) * s * s
        except ValueError:
            assert abs(k) > 496, k
            continue
        assert got == pytest.approx(check(*base), rel=1e-13, abs=0)


def test_whole_box_functions_take_the_fields_by_rows():
    # the broadcast fields are applied as their rows: no whole-box e A beside
    # the two work arrays of sigma.Pi psi (N = 64: 8 MiB each)
    n = 64
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = pg.gaussian_bump_state(n, EXTENT)
    assert traced_peak(lambda: pg.sigma_pi_apply(f, psi, 0.7)) <= 24 * 2**20


def gathered_weights(fields, lo, hi):
    """`_weights` of `fields` on planes lo..hi-1, and the shapes of the
    planes it gathered."""
    shapes = []
    pool = pg._buffers()

    def get(name, shape, dtype=complex):
        if name == "planes":
            shapes.append(shape)
        return pool(name, shape, dtype)

    return pg._weights(fields, lo, hi, 0.7j, get), shapes


def test_weights_of_a_wrapping_slab_are_rows_of_the_dense_copy_bitwise():
    # where the slab's halo wraps (the first and the last slab at N = 24) a
    # broadcast field is gathered as its (x, y) rows, not as dense planes; a
    # dense copy is gathered whole and the value test takes the same rows.
    # A_z, B_x and B_y of the field along z are zero: None on both sides
    n = 24
    (f, _), (dense, _) = broadcast_and_dense_fields(n)
    for lo, hi in ((-2, 18), (15, 25)):
        for name, zero in (("a", [2]), ("b", [0, 1])):
            got, on_broadcast = gathered_weights(getattr(f, name), lo, hi)
            expected, on_dense = gathered_weights(getattr(dense, name), lo, hi)
            assert on_broadcast == [(hi - lo, n, 1)] * 3
            assert on_dense == [(hi - lo, n, n)] * 3
            for k, (g, e) in enumerate(zip(got, expected)):
                if k in zero:
                    assert g is None and e is None
                    continue
                assert g.shape == e.shape == (hi - lo, n, 1)
                assert g.tobytes() == e.tobytes()


def test_uniform_field_and_theta_are_read_only():
    f = pg.uniform_b_field(16, EXTENT, 0.3)
    for array in (f.a0, f.a, f.b, pg.commensurate_theta(16, EXTENT)):
        with pytest.raises(ValueError):
            array[..., 0, 0, 0] = 1.0


def test_weights_are_none_exactly_where_the_field_is_zero_on_the_slab():
    # A_z, B_x and B_y of the field along z are zero: None on every slab, of
    # the broadcast field and of its dense copy alike; a field that is zero
    # on planes 4..9 only is None on a slab inside them and an array on any
    # slab that reaches beyond, wrapping or not
    n = 16
    (f, _), (dense, _) = broadcast_and_dense_fields(n)
    for fields in (f, dense):
        for lo, hi in ((-2, 6), (3, 9), (12, 18)):
            a = pg._weights(fields.a, lo, hi, 0.7j)
            assert [w is None for w in a] == [False, False, True]
            b = pg._weights(fields.b, lo, hi, 0.7)
            assert [w is None for w in b] == [True, True, False]
    profile = np.zeros(n)
    profile[:4] = 1.0
    profile[10:] = -2.0
    partial = np.broadcast_to(profile[:, None, None], (n, n, n))
    for field in (partial, np.array(partial)):
        for lo, hi in ((4, 10), (5, 7)):
            assert pg._weights([field], lo, hi, 0.7j) == [None]
        for lo, hi in ((3, 10), (4, 11), (-3, 5), (9, 18)):
            (w,) = pg._weights([field], lo, hi, 0.7j)
            expected = 0.7j * np.take(profile, np.arange(lo, hi), mode="wrap")
            assert w.shape == (hi - lo, n, 1)
            assert np.array_equal(w, np.broadcast_to(expected[:, None, None], w.shape))


@pytest.mark.parametrize("halo", [0, 1, 2])
def test_momentum_without_a_weight_is_that_of_a_zero_weight_bitwise(halo):
    # a None weight skips the product that a zero weight forms; the halo is
    # taken from `out`, for a state of two components and of one
    n = 9
    rng = np.random.default_rng(41 + halo)
    psi = rng.standard_normal((2, n, n, n)) + 1j * rng.standard_normal((2, n, n, n))
    for lo, hi in ((0, n), (3, 7), (n - 2, n + 3)):
        psi_s = pg._planes(psi, lo - halo, hi + halo)
        zero = np.zeros((hi - lo, n, 1), complex)
        for axis in range(3):
            expected = pg._momentum(psi_s, zero, axis)
            got = pg._momentum(psi_s, None, axis, np.empty_like(expected))
            assert got.tobytes() == expected.tobytes(), (lo, hi, axis)
            expected = pg._momentum(psi_s[1], zero, axis)
            got = pg._momentum(psi_s[1], None, axis, np.empty_like(expected))
            assert got.tobytes() == expected.tobytes(), (lo, hi, axis)
    # the whole box with neither a weight nor `out`: no halo
    expected = pg._momentum(psi, np.zeros((n, n, 1), complex), 2)
    assert pg._momentum(psi, None, 2).tobytes() == expected.tobytes()


def test_momentum_apply_takes_any_leading_axes_bitwise():
    # a state with two leading axes is the stack of its 4-D parts
    n = 8
    rng = np.random.default_rng(43)
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = rng.standard_normal((3, 2, n, n, n)) + 1j * rng.standard_normal((3, 2, n, n, n))
    for axis in range(3):
        got = pg.covariant_momentum_apply(f, psi, axis, 0.7)
        expected = np.stack([pg.covariant_momentum_apply(f, p, axis, 0.7) for p in psi])
        assert got.shape == psi.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("varies", ["x", "y", "xyz"])
def test_gauge_check_forms_links_only_along_axes_where_theta_varies(varies, monkeypatch):
    # a theta that is constant along an axis on a slab has no links there:
    # the check forms none, and equals the reference; a dense copy of theta
    # gives the same bits
    n = 16
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = pg.gaussian_bump_state(n, EXTENT)
    coords, _ = pg.grid_coordinates(n, EXTENT)
    theta = sum(0.4 * np.sin(2.0 * np.pi * coords["xyz".index(a)] / EXTENT) for a in varies)
    theta = np.broadcast_to(theta, (n, n, n))
    axes = set()
    link_and_shift = pg._link_and_shift

    def recorded(theta_s, axis, *args):
        axes.add(axis)
        return link_and_shift(theta_s, axis, *args)

    monkeypatch.setattr(pg, "_link_and_shift", recorded)
    got = pg.gauge_invariance_check(f, theta, psi, 2.0, 1.5, 0.7)
    assert axes == {"xyz".index(a) for a in varies}
    assert got == pytest.approx(ref_gauge_check(f, theta, psi, 2.0, 1.5, 0.7), rel=1e-12)
    dense = pg.gauge_invariance_check(f, np.array(theta), psi, 2.0, 1.5, 0.7)
    assert np.float64(dense).tobytes() == np.float64(got).tobytes()
    # an infinite theta is constant along every axis, yet its differences
    # are nan: the check still refuses it
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        pg.gauge_invariance_check(f, np.full((n, n, n), np.inf), psi, 2.0, 1.5)


def test_convergence_table_rows_are_the_committed_values():
    # the rows (h, identity, gauge, commutator) at N = 16, 24 and 32, to
    # 1e-14 relative: numpy versions may differ in the last bit of sin and exp
    expected = [
        (0.5, 0.05533267730479195, 0.004308584578736757, 0.05533267730479201),
        (0.3333333333333333, 0.026060929619650737, 0.002021316310575478, 0.026060929619650706),
        (0.25, 0.014967455857978176, 0.0011584001589376733, 0.014967455857978278),
    ]
    for got, want in zip(pg.convergence_table((16, 24, 32)), expected, strict=True):
        assert got == pytest.approx(want, rel=1e-14, abs=0)
