import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from etawave import pauligauge as pg
from etawave.clifford import (
    PAULI,
    build_eta,
    build_standard_gammas,
    conjugate_gammas,
    random_householder_unitary,
)

EXTENT = 8.0

# a kernel that makes inf or nan fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
    e_set = build_eta(g)
    applied = (e_energy - e_charge * f.a0) * einsum_apply(e_set.eta, psi4)
    for axis, gamma in enumerate((g.gamma1, g.gamma2, g.gamma3)):
        applied += einsum_apply(gamma, ref_momentum(f, psi4, axis, e_charge))
    applied += m * einsum_apply(e_set.eta_dagger, psi4)
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
    applied = pg.pauli_hamiltonian_apply(f, psi, m)
    expected = sum((np.sin(k_i * f.h) / f.h) ** 2 for k_i in k) / (2.0 * m)
    assert np.max(np.abs(applied - expected * psi)) <= 1e-12


def test_hamiltonian_rejects_nonpositive_mass():
    f = zero_field(8)
    with pytest.raises(ValueError):
        pg.pauli_hamiltonian_apply(f, np.ones((2, 8, 8, 8), dtype=complex), 0.0)


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
        assert pg.hermiticity_deviation(f, phi, psi, 1.5) <= 1e-12


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
        num = pg.inner_product(chi, pg.pauli_hamiltonian_apply(f, chi, m), f.h)
        den = pg.inner_product(chi, chi, f.h)
        values.append((num / den).real)
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


def test_bump_state_shape_and_decay():
    n = 16
    psi = pg.gaussian_bump_state(n, EXTENT)
    assert psi.shape == (2, n, n, n)
    assert np.max(np.abs(psi[:, 0, :, :])) <= 1e-6 * np.max(np.abs(psi))


@pytest.mark.parametrize("n", [8, 17, 32])
def test_fields_are_the_dense_meshgrid_forms_bitwise(n):
    # the field constructors broadcast 1-D coordinates; full meshgrid arrays give the
    # same expressions the same bits
    extent, bz, sigma = 5.5, -1.7, 0.9
    h = extent / n
    axis = (np.arange(n) - n / 2) * h
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    zero = np.zeros((n, n, n))
    bump = np.exp(-(x**2 + y**2 + z**2) / (2.0 * sigma**2))
    expected = (
        np.stack([-0.5 * bz * y, 0.5 * bz * x, zero]),
        np.stack([zero, zero, np.full((n, n, n), bz)]),
        np.stack([bump * (1.0 + 0.3j), bump * (0.5 - 0.2j) * np.cos(2.0 * np.pi * x / extent)]),
        0.4 * np.sin(2.0 * np.pi * x / extent),
    )
    f = pg.uniform_b_field(n, extent, bz)
    got = (f.a, f.b, pg.gaussian_bump_state(n, extent, sigma), pg.commensurate_theta(n, extent))
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
        ("gauge, form underflows", lambda: gauge(f, theta, psi * 1e-200, 2.0, 1.5)),
        ("identity, squares underflow", lambda: identity(f, psi * 1e-170)),
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


def spin_matrices(rng):
    """(matrix, components): the Pauli matrices, the standard spatial gammas,
    eta and eta^+, and the same from a randomly conjugated (dense) set."""
    out = [(s, 2) for s in PAULI]
    g = build_standard_gammas()
    for gammas in (g, conjugate_gammas(g, random_householder_unitary(rng))):
        e_set = build_eta(gammas)
        for matrix in (gammas.gamma1, gammas.gamma2, gammas.gamma3, e_set.eta, e_set.eta_dagger):
            out.append((matrix, 4))
    return out


@settings(max_examples=40, deadline=None)
@given(lattice_sizes, st.integers(0, 2**32 - 1))
def test_spin_apply_matches_einsum(n, seed):
    # +-1 and +-i entries (adds and real/imaginary swaps) and the dense sets'
    # general entries (a product)
    rng = np.random.default_rng(seed)
    dense = 0
    for matrix, comps in spin_matrices(rng):
        dense += np.count_nonzero(matrix) == matrix.size
        psi = rng.standard_normal((comps, n, n, n)) + 1j * rng.standard_normal((comps, n, n, n))
        start = rng.standard_normal(psi.shape) + 1j * rng.standard_normal(psi.shape)
        out = start.copy()
        pg._spin_apply(matrix, psi, out)
        error = np.max(np.abs(out - start - einsum_apply(matrix, psi)))
        assert error <= 1e-15 * np.max(np.abs(psi))
    assert dense == 5


def test_coefficient_rows_rebuild_the_eta_terms():
    # the rows give back (E - eA0) eta + m eta^+ entry by entry; the standard
    # set needs three real fields, +-(kin + m)/sqrt(2) and (kin - m)/sqrt(2)
    e_set = build_eta(build_standard_gammas())
    rows, pairs = pg._coefficient_rows(e_set)
    s = 1.0 / np.sqrt(2.0)
    assert sorted(pairs) == pytest.approx(sorted([(s, s), (-s, -s), (s, -s)]), rel=1e-15)
    for kinetic, m in ((2.0, 1.5), (-0.3, 4.0)):
        rebuilt = np.zeros((4, 4), dtype=complex)
        for a, row in enumerate(rows):
            assert row[0][1] == 1
            for b, phase, field in row:
                alpha, beta = pairs[field]
                rebuilt[a, b] += phase * (alpha * kinetic + beta * m)
        expected = kinetic * e_set.eta + m * e_set.eta_dagger
        assert np.max(np.abs(rebuilt - expected)) <= 1e-15 * (abs(kinetic) + m)
    # a conjugated set has entries that are no phase times a real pair
    dense = build_eta(conjugate_gammas(build_standard_gammas(), random_householder_unitary(
        np.random.default_rng(3))))
    with pytest.raises(ValueError):
        pg._coefficient_rows(dense)


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
    # narrower; 16 is the plane count itself (N = 40: 16 + 16 + 8 planes)
    monkeypatch.setattr(pg, "_SLAB_PLANES", width)
    checks, refs = checks_with_potential(n, e_charge)
    for check, ref in zip(checks, refs):
        assert check() == pytest.approx(ref(), rel=1e-12)


def test_slabs_cover_every_plane_once_in_order():
    def slab(lo, hi, halo):
        return lo, hi, halo

    # slabs of 16 planes with a halo at every N: N = 128 makes eight (2^18
    # sites each), N = 64 four
    assert pg._over_slabs(slab, 128, 2) == [(lo, lo + 16, 2) for lo in range(0, 128, 16)]
    assert pg._over_slabs(slab, 64, 2) == [(lo, lo + 16, 2) for lo in range(0, 64, 16)]
    # a plane count that does not divide N leaves a narrower last slab
    assert pg._over_slabs(slab, 40, 1) == [(0, 16, 1), (16, 32, 1), (32, 40, 1)]
    # a box of at most 16 planes is one slab, whose halo wraps around it
    for n in (8, 9):
        assert pg._over_slabs(slab, n, 2) == [(0, n, 2)]


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


@pytest.mark.parametrize("width", [None, 5])
@pytest.mark.parametrize("e_charge", [1.0, 0.7])
def test_checks_match_reference_on_a_general_field(width, e_charge, monkeypatch):
    # reaches the B_x, B_y and A_z entries of the coefficient rows, which the
    # uniform field along z leaves at zero; one slab wrapping its own halo
    # (N = 16 is one slab of 16 planes) and width-5 slabs
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
def test_weighted_rows_are_the_per_site_products(along_z):
    # a weight constant along z times the z-row sums, and one varying along z
    # as a third factor, against the per-site product of np.roll neighbours
    # summed along z: every hop axis and the local product, on a slab inside
    # the box and on one across the x seam; y and z hops cross their seams
    n = 9
    rng = np.random.default_rng(29)
    psi = rng.standard_normal((2, n, n, n)) + 1j * rng.standard_normal((2, n, n, n))
    weight = rng.standard_normal((n, n, n) if along_z else (n, n, 1))
    weight = np.broadcast_to(weight, (n, n, n)).copy()
    for lo, hi in ((2, 6), (n - 3, n + 2)):
        psi_s = pg._planes(psi, lo - 1, hi + 1)
        conj = np.conjugate(pg._trim(psi_s, 1))
        w = pg._z_rows(pg._planes(weight, lo, hi))
        assert (w.shape[-1] == 1) != along_z
        for axis in (None, 0, 1, 2):
            there = psi[1] if axis is None else np.roll(psi[1], -1, axis=axis)
            sites = np.einsum("xyz,xyz,xyz->xy", np.conjugate(psi[0]), weight, there)
            expected = np.take(sites, np.arange(lo, hi), axis=0, mode="wrap")
            got = pg._weighted_rows(
                w, lambda: pg._hop_rows((conj[0],), psi_s[1], axis, 1), conj[0], psi_s[1], axis, 1
            )
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected)), axis


def test_wave_form_value_runs_over_slabs():
    # the gauge check's slab q0: no whole-box copy of the state or the fields
    n = 64
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = pg.gaussian_bump_state(n, EXTENT)
    theta = pg.commensurate_theta(n, EXTENT)
    peaks = []
    for call in (
        lambda: pg.gauge_invariance_check(f, theta, psi, 2.0, 1.5, 0.7),
        lambda: pg.wave_form_value(f, psi, 2.0, 1.5, 0.7),
    ):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    gauge, form = peaks
    assert form <= gauge + 2**20


@pytest.mark.parametrize("comps", [2, 4])
def test_wave_form_value_matches_reference(comps):
    n = 16
    rng = np.random.default_rng(5)
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    a0 = 0.2 * np.cos(2.0 * np.pi * np.arange(n) / n)
    f = pg.GaugeField(
        a0=np.broadcast_to(a0[:, None, None], (n, n, n)).copy(), a=f.a, b=f.b, h=f.h, n=n
    )
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
    # one path for both: the broadcast fields are read plane by plane, the
    # wrapping planes gathered by slice copies (N = 24: slabs 16 + 8 or 5 x 4 + 4)
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
    peaks = []
    for calls in (check_calls(*broadcast, psi), check_calls(*dense, psi)):
        row = []
        for call in calls:
            tracemalloc.start()
            try:
                call()
                row.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks.append(row)
    for on_broadcast, on_dense in zip(*peaks):
        assert on_broadcast <= on_dense + 2**20


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
    # the broadcast fields are applied as their rows: no whole-box e A or
    # e A0 beside the two work arrays of sigma.Pi psi (N = 64: 8 MiB each)
    n = 64
    f = pg.uniform_b_field(n, EXTENT, 0.3)
    psi = pg.gaussian_bump_state(n, EXTENT)
    for call, limit in (
        (lambda: pg.sigma_pi_apply(f, psi, 0.7), 24),
        (lambda: pg.pauli_hamiltonian_apply(f, psi, 1.5, 0.7), 32),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * 2**20


def test_uniform_field_and_theta_are_read_only():
    f = pg.uniform_b_field(16, EXTENT, 0.3)
    for array in (f.a0, f.a, f.b, pg.commensurate_theta(16, EXTENT)):
        with pytest.raises(ValueError):
            array[..., 0, 0, 0] = 1.0
