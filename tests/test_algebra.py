"""Unit and property tests for the operator-algebra layer."""
import numpy as np
import pytest

from ionqrm import (
    TruncationSpec,
    annihilation,
    commutator,
    dagger,
    displacement,
    displacement_generator,
    displacement_laguerre,
    interior_block,
    sigma_y,
    spin_tensor_osc,
    unitary_expm,
)
from ionqrm.algebra import displacement_basis, displacement_gauged, fock_gauge
from oracles import Spin, creation, is_hermitian, is_unitary, number_op, pauli


def test_truncation_spec_invariants():
    trunc = TruncationSpec(n_max=64, guard=16)
    assert trunc.interior_dim == 48
    with pytest.raises(ValueError):
        TruncationSpec(n_max=0)
    with pytest.raises(ValueError):
        TruncationSpec(n_max=4, guard=4)
    with pytest.raises(ValueError):
        TruncationSpec(n_max=4, guard=-1)


def test_annihilation_matrix_elements():
    a = annihilation(TruncationSpec(3))
    expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex)
    np.testing.assert_array_equal(a, expected)


def test_annihilation_vacuum_only_space():
    np.testing.assert_array_equal(annihilation(TruncationSpec(1)), np.zeros((1, 1)))


@pytest.mark.parametrize("n_max", [2, 3, 8, 64])
def test_ladder_commutator_interior_is_identity(n_max):
    trunc = TruncationSpec(n_max=n_max, guard=1)
    a = annihilation(trunc)
    comm = interior_block(commutator(a, dagger(a)), trunc)
    # products of sqrt(n) round within a few ulp; identity holds to that level
    assert np.max(np.abs(comm - np.eye(trunc.interior_dim))) < 1e-13


def test_ladder_commutator_edge_defect():
    trunc = TruncationSpec(4)
    comm = commutator(annihilation(trunc), creation(trunc))
    assert comm[3, 3].real == pytest.approx(-3.0)


def test_number_operator():
    trunc = TruncationSpec(3)
    np.testing.assert_array_equal(number_op(trunc), np.diag([0.0, 1.0, 2.0]))
    # matches dagger(a) @ a at every entry including the truncation edge
    prod = dagger(annihilation(trunc)) @ annihilation(trunc)
    np.testing.assert_allclose(number_op(trunc), prod, rtol=0, atol=1e-13)
    n_max = 17
    tr = np.trace(number_op(TruncationSpec(n_max))).real
    assert tr == pytest.approx(n_max * (n_max - 1) / 2)


def test_pauli_commutation_relations():
    sz, sp, sm = pauli(Spin.Z), pauli(Spin.PLUS), pauli(Spin.MINUS)
    np.testing.assert_array_equal(commutator(sz, sp), 2 * sp)
    np.testing.assert_array_equal(commutator(sz, sm), -2 * sm)
    np.testing.assert_array_equal(commutator(sp, sm), sz)


def test_pauli_y_variant_is_recorded_literally():
    # i*sigma_- - sigma_+ assembled from the sigma matrices above
    expected = np.array([[0, -1], [1j, 0]], dtype=complex)
    np.testing.assert_array_equal(pauli(Spin.Y), expected)
    np.testing.assert_array_equal(sigma_y("alt"), expected)
    assert not is_hermitian(pauli(Spin.Y))
    # the conventional Pauli-Y differs and is Hermitian
    np.testing.assert_array_equal(sigma_y("standard"), np.array([[0, -1j], [1j, 0]]))
    assert is_hermitian(sigma_y("standard"))
    with pytest.raises(ValueError):
        sigma_y("bogus")


def test_displacement_generator_zero_is_identity():
    trunc = TruncationSpec(16)
    np.testing.assert_allclose(
        displacement_generator(0.0, trunc), np.eye(16), rtol=0, atol=1e-14
    )


def test_displacement_inverse():
    trunc = TruncationSpec(32)
    d = displacement_generator(0.4 + 0.2j, trunc)
    d_inv = displacement_generator(-0.4 - 0.2j, trunc)
    np.testing.assert_allclose(d @ d_inv, np.eye(32), rtol=0, atol=1e-12)


def test_displacement_vacuum_matrix_element():
    eta = 0.3
    d = displacement_generator(1j * eta, TruncationSpec(40))
    assert abs(d[0, 0] - np.exp(-eta**2 / 2)) < 1e-9


def test_displacement_unitary_across_amplitudes():
    trunc = TruncationSpec(16)
    rng = np.random.default_rng(7)
    for _ in range(10):
        alpha = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        alpha *= 1.0 / max(1.0, abs(alpha))
        assert is_unitary(displacement_generator(alpha, trunc), 1e-10)


def test_displacement_laguerre_zero_is_identity():
    np.testing.assert_array_equal(displacement_laguerre(0.0, TruncationSpec(12)), np.eye(12))


def test_displacement_constructions_agree_on_interior():
    trunc = TruncationSpec(n_max=64, guard=16)
    for alpha in (0.5, 0.5j, 0.3 + 0.4j, -0.2 + 0.1j):
        gen = interior_block(displacement_generator(alpha, trunc), trunc)
        lag = interior_block(displacement_laguerre(alpha, trunc), trunc)
        assert np.max(np.abs(gen - lag)) < 1e-9


def test_displacement_column_zero_is_coherent_state():
    trunc = TruncationSpec(48)
    alpha = 0.45 - 0.3j
    col = displacement_laguerre(alpha, trunc)[:, 0]
    n = np.arange(48)
    from scipy.special import gammaln

    expected = alpha**n * np.exp(-abs(alpha) ** 2 / 2 - 0.5 * gammaln(n + 1))
    np.testing.assert_allclose(col, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_max", [1, 2, 8, 64, 256])
def test_cached_basis_displacement_matches_generator(n_max):
    trunc = TruncationSpec(n_max)
    for alpha in (0, 0.5, -0.7, 0.3j, 0.3 + 0.4j, -0.25 - 0.35j, 1.2 - 0.3j):
        dev = np.max(np.abs(displacement(alpha, trunc) - displacement_generator(alpha, trunc)))
        assert dev <= 1e-13, (alpha, dev)


@pytest.mark.parametrize("n_max", [1, 2, 7, 64, 256])
def test_displacement_of_imaginary_alpha_has_exact_fock_parity(n_max):
    # <m|D(i r)|n> is real for even m - n and imaginary for odd m - n, exactly
    trunc = TruncationSpec(n_max)
    odd = np.add.outer(np.arange(n_max), np.arange(n_max)) % 2 == 1
    for r in (0.02, 0.3, -0.45, 1.7):
        d = displacement(1j * r, trunc)
        assert not np.any(d.real[odd]), r
        assert not np.any(d.imag[~odd]), r
        assert np.all(np.isfinite(d))


def test_displacement_basis_diagonalizes_the_quadrature():
    trunc = TruncationSpec(16)
    a = annihilation(trunc)
    x, v = displacement_basis(trunc.n_max)
    quad = (a + dagger(a)) / np.sqrt(2.0)
    assert np.max(np.abs(v @ np.diag(x) @ v.T - quad)) < 1e-13
    assert np.max(np.abs(v.T @ v - np.eye(trunc.n_max))) < 1e-13


def test_displacement_basis_is_cached_and_read_only():
    x, v = displacement_basis(8)
    assert displacement_basis(8)[1] is v
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        v[0, 0] = 0.0
    # callers get a fresh writable matrix, never the cached arrays
    d = displacement(0.3j, TruncationSpec(8))
    d[0, 0] = 0.0
    assert displacement(0.3j, TruncationSpec(8))[0, 0] != 0.0


def test_spin_tensor_identity_and_blocks():
    trunc = TruncationSpec(2)
    eye = spin_tensor_osc(pauli(Spin.IDENTITY), np.eye(2, dtype=complex))
    np.testing.assert_array_equal(eye, np.eye(4))
    sz_n = spin_tensor_osc(pauli(Spin.Z), number_op(trunc))
    np.testing.assert_array_equal(sz_n, np.diag([0.0, 1.0, 0.0, -1.0]))


def test_spin_tensor_mixed_product_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        s1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = spin_tensor_osc(s1, m1) @ spin_tensor_osc(s2, m2)
        rhs = spin_tensor_osc(s1 @ s2, m1 @ m2)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_spin_tensor_rejects_non_spin_factor():
    with pytest.raises(ValueError):
        spin_tensor_osc(np.eye(3, dtype=complex), np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        spin_tensor_osc(pauli(Spin.X), np.ones((2, 3), dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 32, 64, 256])
def test_spin_tensor_is_bit_identical_to_kron(n):
    # each entry is the single product s[i, j] * m[k, l], exactly as in np.kron
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for _ in range(3):
        s = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.array_equal(spin_tensor_osc(s, m), np.kron(s, m))
    for spin in Spin:
        got, want = spin_tensor_osc(pauli(spin), m), np.kron(pauli(spin), m)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_jc_style_product_identity():
    trunc = TruncationSpec(4)
    a = annihilation(trunc)
    lhs = spin_tensor_osc(pauli(Spin.PLUS), a) @ spin_tensor_osc(pauli(Spin.MINUS), dagger(a))
    rhs = spin_tensor_osc(pauli(Spin.PLUS) @ pauli(Spin.MINUS), a @ dagger(a))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)


def test_commutator_of_matrix_with_itself_vanishes():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    np.testing.assert_array_equal(commutator(m, m), np.zeros((6, 6)))


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_dagger_is_an_involution():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    np.testing.assert_array_equal(dagger(dagger(m)), m)


def test_unitary_expm_requires_anti_hermitian():
    with pytest.raises(ValueError):
        unitary_expm(np.eye(3, dtype=complex))


def test_interior_block_oscillator_and_composite():
    trunc = TruncationSpec(n_max=4, guard=1)
    diag = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    np.testing.assert_array_equal(interior_block(diag, trunc), np.diag([0.0, 1.0, 2.0]))
    comp = np.diag(np.arange(8, dtype=float)).astype(complex)
    np.testing.assert_array_equal(
        interior_block(comp, trunc), np.diag([0.0, 1.0, 2.0, 4.0, 5.0, 6.0])
    )
    with pytest.raises(ValueError):
        interior_block(np.eye(5, dtype=complex), trunc)


def test_hermiticity_implies_real_eigenvalues():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = m + dagger(m)
    assert is_hermitian(h)
    assert np.max(np.abs(np.linalg.eigvals(h).imag)) < 1e-12


def _laguerre_by_columns(alpha, trunc):
    """The Laguerre closed form one column at a time, as it was first written."""
    from scipy.special import eval_genlaguerre, gammaln

    n_max = trunc.n_max
    aa = abs(alpha) ** 2
    out = np.zeros((n_max, n_max), dtype=complex)
    m_idx = np.arange(n_max)
    for n in range(n_max):
        rows = m_idx[n:]
        pref = np.exp(0.5 * (gammaln(n + 1) - gammaln(rows + 1)) - aa / 2.0)
        out[rows, n] = pref * alpha ** (rows - n) * eval_genlaguerre(n, rows - n, aa)
        rows = m_idx[:n]
        pref = np.exp(0.5 * (gammaln(rows + 1) - gammaln(n + 1)) - aa / 2.0)
        out[rows, n] = pref * (-np.conj(alpha)) ** (n - rows) * eval_genlaguerre(
            rows, n - rows, aa)
    return out


@pytest.mark.parametrize("n_max", [1, 2, 7, 64])
def test_broadcast_laguerre_equals_the_column_loop(n_max):
    trunc = TruncationSpec(n_max)
    # the operator-algebra check's amplitudes: every entry equal
    for alpha in (0.5, 0.5j, 0.3 + 0.4j, -0.25 - 0.35j):
        np.testing.assert_array_equal(displacement_laguerre(alpha, trunc),
                                      _laguerre_by_columns(alpha, trunc))
    for alpha in (0.0, 1.7 - 0.2j, -2.5j):
        np.testing.assert_allclose(displacement_laguerre(alpha, trunc),
                                   _laguerre_by_columns(alpha, trunc), rtol=0, atol=1e-15)


def _gauged_by_phases(h, n_osc):
    """P h P^dagger with P = diag(i^(k mod n_osc)) in complex arithmetic."""
    phases = np.array([1, 1j, -1, -1j])[np.arange(h.shape[0]) % n_osc % 4]
    return phases[:, None] * h * phases.conj()[None, :]


@pytest.mark.parametrize("n_max", [1, 2, 7, 64])
def test_fock_gauge_makes_the_displacement_real(n_max):
    trunc = TruncationSpec(n_max)
    for r in (0.3, -1.1):
        d = displacement(1j * r, trunc)
        real = fock_gauge(d, n_max)
        assert real.dtype == np.float64
        np.testing.assert_array_equal(real, _gauged_by_phases(d, n_max).real)
        # the real form written from D's cos and sin parts is the same array
        assert displacement_gauged(r, trunc).dtype == np.float64
        np.testing.assert_array_equal(displacement_gauged(r, trunc), real)
        # the composite embedding, gauged on both spin blocks
        h = spin_tensor_osc(pauli(Spin.PLUS), d) + spin_tensor_osc(pauli(Spin.MINUS), dagger(d))
        np.testing.assert_array_equal(fock_gauge(h, n_max), _gauged_by_phases(h, n_max).real)
    # a general alpha carries a phase the gauge cannot absorb
    if n_max > 1:
        assert fock_gauge(displacement(0.3 + 0.4j, trunc), n_max) is None


def test_fock_gauge_reads_exact_zeros_only():
    trunc = TruncationSpec(8)
    d = displacement(0.5j, trunc)
    for m, n, part in ((0, 0, 1j), (0, 1, 1.0), (3, 5, 1j), (2, 5, 1.0)):
        bad = d.copy()
        bad[m, n] += 1e-300 * part
        assert fock_gauge(bad, 8) is None, (m, n)
    # an odd Fock cutoff puts both parities at the start of each spin block
    h = np.zeros((14, 14), dtype=complex)
    h[0, 7] = h[7, 0] = 1.0  # Fock index 0 in both spin blocks
    h[6, 7] = h[7, 6] = 1.0  # Fock indices 6 and 0: even, though 6 - 7 is odd
    h[5, 7] = 1j  # Fock indices 5 and 0
    h[7, 5] = -1j
    np.testing.assert_array_equal(fock_gauge(h, 7), _gauged_by_phases(h, 7).real)
    h[1, 7] = 1.0  # Fock indices 1 and 0: odd, so it must be imaginary
    assert fock_gauge(h, 7) is None
    with pytest.raises(ValueError, match="multiple of 5"):
        fock_gauge(h, 5)
