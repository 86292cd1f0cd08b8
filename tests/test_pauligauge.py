import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    return complex(np.sum(np.conj(psi4) * applied) * f.h**3)


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
    # the gauge shift's gradient and, with no potential, the momentum kernel
    # are the np.roll differences to the bit
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(shape)
    psi = rng.standard_normal((4, *shape)) + 1j * rng.standard_normal((4, *shape))
    no_potential = np.zeros(shape)
    for axis in range(3):
        got = pg._difference(theta, axis) / (2.0 * h)
        assert got.tobytes() == roll_diff(theta, axis, h).tobytes(), axis
        got = pg._momentum(psi, no_potential, axis, h)
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
    # halo as the checks gather them
    rng = np.random.default_rng(seed)
    lo %= n
    hi = lo + min(width, n)
    f = pg.GaugeField(
        a0=np.zeros((n, n, n)), a=rng.standard_normal((3, n, n, n)),
        b=np.zeros((3, n, n, n)), h=EXTENT / n, n=n,
    )
    psi = rng.standard_normal((comps, n, n, n)) + 1j * rng.standard_normal((comps, n, n, n))
    psi_s = pg._planes(psi, lo - halo, hi + halo)
    for axis in range(3):
        got = pg._momentum(psi_s, e_charge * pg._planes(f.a[axis], lo, hi), axis, f.h)
        whole = pg.covariant_momentum_apply(f, psi, axis, e_charge)
        expected = np.take(whole, np.arange(lo, hi), axis=1, mode="wrap")
        assert got.tobytes() == expected.tobytes(), axis


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


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("e_charge", [1.0, 0.7])
@pytest.mark.parametrize("width", [1, 5, 7])
def test_slab_checks_match_roll_einsum_reference(n, e_charge, width, monkeypatch):
    # slabs of `width` x-planes, none dividing N, so the last slab is narrower
    monkeypatch.setattr(pg, "_SLAB_SITES", width * n * n)
    checks, refs = checks_with_potential(n, e_charge)
    for check, ref in zip(checks, refs):
        assert check() == pytest.approx(ref(), rel=1e-12)


def test_slabs_cover_every_plane_once_in_order(monkeypatch):
    def slab(lo, hi, halo):
        return lo, hi, halo

    # N = 128 makes eight slabs of 16 planes; N = 64 is one slab, no halo
    assert pg._over_slabs(slab, 128, 2) == [(lo, lo + 16, 2) for lo in range(0, 128, 16)]
    assert pg._over_slabs(slab, 64, 2) == [(0, 64, 0)]
    # a width that does not divide N leaves a narrower last slab
    monkeypatch.setattr(pg, "_SLAB_SITES", 5 * 16 * 16)
    assert pg._over_slabs(slab, 16, 1) == [(0, 5, 1), (5, 10, 1), (10, 15, 1), (15, 16, 1)]


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
    # uniform field along z leaves at zero; whole box and width-5 slabs
    n = 16
    if width:
        monkeypatch.setattr(pg, "_SLAB_SITES", width * n * n)
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
        monkeypatch.setattr(pg, "_SLAB_SITES", width * n * n)
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
