"""Tests for the Hamiltonian and transformation builders."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ionqrm import (
    HAMILTONIAN_BUILDERS,
    IonParams,
    Regime,
    RegimeThresholds,
    ResonancePoleError,
    TruncationSpec,
    annihilation,
    classify_regime,
    dagger,
    derived_couplings,
    displacement,
    h_ajc,
    h_dispersive,
    h_jc,
    h_lamb_dicke,
    h_qrm,
    h_qrm_detuned,
    h_rabi_rotated,
    h_resonant,
    interior_block,
    osc_identity,
    qrm_conjugate,
    qrm_transform,
    rotation_diagnostic,
    small_rotation,
    spin_tensor_osc,
    unitary_expm,
    y_rotation,
)
from ionqrm import models
from ionqrm.algebra import displacement_gauged
from ionqrm.models import qrm_blocks, resonant_blocks
from ionqrm.params import (is_sideband_resonant, laser_phase_sign, qrm_coupling,
                           transform_offset)
from oracles import Spin, fock_gauge, is_hermitian, is_unitary, number_op, pauli

T64 = TruncationSpec(n_max=64, guard=16)
T32 = TruncationSpec(n_max=32, guard=8)


def test_ion_params_validation():
    with pytest.raises(ValueError, match="nu > 0"):
        IonParams(Omega=1.0, eta=0.1, nu=0.0)
    with pytest.raises(ValueError, match="eta >= 0"):
        IonParams(Omega=1.0, eta=-0.1)
    with pytest.raises(ValueError, match="Omega >= 0"):
        IonParams(Omega=-1.0, eta=0.1)
    with pytest.raises(ValueError, match="finite"):
        IonParams(Omega=float("inf"), eta=0.1)


def test_all_builders_are_hermitian():
    rng = np.random.default_rng(17)
    trunc = TruncationSpec(n_max=24, guard=4)
    for name, build in HAMILTONIAN_BUILDERS.items():
        for _ in range(3):
            p = IonParams(
                nu=float(rng.uniform(0.5, 2.0)),
                Omega=float(rng.uniform(0.0, 2.0)),
                eta=float(rng.uniform(0.0, 0.5)),
                phi_l=0.0 if name in ("rabi-rotated",) else float(rng.uniform(0, 2 * np.pi)),
                delta=float(rng.uniform(-0.3, 0.3)) if name == "qrm-detuned" else 0.0,
            )
            if name == "dispersive" and abs(2 * p.Omega - p.nu) < 0.05:
                continue
            if name == "resonant" and p.delta != 0.0:
                continue
            h = build(p, trunc)
            assert is_hermitian(h, 1e-12), name


def test_h_resonant_eta_zero_is_block_diagonal_drive():
    p = IonParams(Omega=0.8, eta=0.0, phi_l=0.4)
    trunc = TruncationSpec(8)
    h = h_resonant(p, trunc)
    drive = np.exp(1j * 0.4) * pauli(Spin.PLUS) + np.exp(-1j * 0.4) * pauli(Spin.MINUS)
    expected = spin_tensor_osc(pauli(Spin.IDENTITY), p.nu * number_op(trunc)) + (
        p.Omega * spin_tensor_osc(drive, osc_identity(trunc))
    )
    np.testing.assert_allclose(h, expected, rtol=0, atol=1e-14)


def test_h_resonant_zero_drive():
    p = IonParams(Omega=0.0, eta=0.3)
    trunc = TruncationSpec(8)
    np.testing.assert_allclose(
        h_resonant(p, trunc),
        spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc)),
        rtol=0,
        atol=1e-14,
    )


def test_h_resonant_rejects_detuning():
    with pytest.raises(ValueError, match="delta"):
        h_resonant(IonParams(Omega=0.5, eta=0.1, delta=0.2), TruncationSpec(8))


def test_h_resonant_ground_energy_fixture():
    w = np.linalg.eigvalsh(h_resonant(IonParams(Omega=0.7, eta=0.3), T64))
    assert np.min(w) == pytest.approx(-0.6869266132178609, abs=1e-9)


def test_lamb_dicke_matches_resonant_at_eta_zero():
    p = IonParams(Omega=0.6, eta=0.0, phi_l=1.1)
    trunc = TruncationSpec(12)
    np.testing.assert_allclose(
        h_lamb_dicke(p, trunc), h_resonant(p, trunc), rtol=0, atol=1e-13
    )


def test_lamb_dicke_remainder_is_second_order():
    trunc = TruncationSpec(n_max=64, guard=56)  # fixed 8-level interior
    norms = []
    for eta in (0.04, 0.02):
        p = IonParams(Omega=0.7, eta=eta)
        d = interior_block(h_resonant(p, trunc) - h_lamb_dicke(p, trunc), trunc)
        norms.append(np.linalg.norm(d))
    assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.2)


def test_lamb_dicke_hand_assembled_two_level_case():
    # phi_l = pi/2, eta = 0.1, n_max = 2, basis (e0, e1, g0, g1)
    omega, eta, nu = 0.9, 0.1, 1.0
    p = IonParams(Omega=omega, eta=eta, nu=nu, phi_l=np.pi / 2)
    h = h_lamb_dicke(p, TruncationSpec(2))
    k = eta * omega
    expected = np.array(
        [
            [0, 0, 1j * omega, -k],
            [0, nu, -k, 1j * omega],
            [-1j * omega, -k, 0, 0],
            [-k, -1j * omega, 0, nu],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(h, expected, rtol=0, atol=1e-14)


def test_y_rotation_standard():
    c = np.cos(np.pi / 4)
    np.testing.assert_allclose(y_rotation(), np.array([[c, c], [-c, c]]), rtol=0, atol=1e-15)
    assert is_unitary(y_rotation(), 1e-12)


def test_y_rotation_closed_form_matches_expm():
    from scipy.linalg import expm

    from ionqrm.algebra import sigma_y

    assert y_rotation().tobytes() == expm(1j * (np.pi / 4.0) * sigma_y()).tobytes()


def test_h_rabi_rotated_eta_zero_diagonal():
    # nu*n + e^(i*phi_l)*Omega*sigma_z: +Omega on |e> at phi_l = 0, -Omega at pi
    for phase, diagonal in ((0.0, [0.5, 1.5, 2.5, 3.5, -0.5, 0.5, 1.5, 2.5]),
                            (math.pi, [-0.5, 0.5, 1.5, 2.5, 0.5, 1.5, 2.5, 3.5])):
        h = h_rabi_rotated(IonParams(Omega=0.5, eta=0.0, phi_l=phase), TruncationSpec(4))
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
        np.testing.assert_allclose(np.diag(h).real, diagonal, atol=1e-14)


def test_h_rabi_rotated_spectrum_fixture():
    w = np.sort(np.linalg.eigvalsh(h_rabi_rotated(IonParams(Omega=0.5, eta=0.05), T64)))
    np.testing.assert_allclose(
        w[:4],
        [-0.5003125488357544, 0.47468935791235, 0.5246854466225122, 1.464337497396186],
        atol=1e-9,
    )


def test_h_rabi_rotated_rejects_other_phases():
    with pytest.raises(ValueError, match="phase"):
        h_rabi_rotated(IonParams(Omega=0.5, eta=0.05, phi_l=0.3), TruncationSpec(8))
    # both supported phases construct fine
    for phi in (0.0, np.pi, -np.pi, 3 * np.pi):
        h_rabi_rotated(IonParams(Omega=0.5, eta=0.05, phi_l=phi), TruncationSpec(8))


def test_h_jc_matrix_element_and_conservation():
    p = IonParams(Omega=0.5, eta=0.1)
    trunc = TruncationSpec(8)
    h = h_jc(p, trunc)
    # <e,0|H|g,1> = i*eta*Omega
    assert h[0, trunc.n_max + 1] == pytest.approx(1j * 0.05)
    excitation = spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc)) + spin_tensor_osc(
        (pauli(Spin.Z) + pauli(Spin.IDENTITY)) / 2, osc_identity(trunc)
    )
    assert np.max(np.abs(h @ excitation - excitation @ h)) < 1e-12


def test_h_ajc_matrix_element_and_anticonservation():
    p = IonParams(Omega=0.5, eta=0.1)
    trunc = TruncationSpec(8)
    h = h_ajc(p, trunc)
    # <e,1|H|g,0> = i*eta*Omega
    assert h[1, trunc.n_max] == pytest.approx(1j * 0.05)
    anti = spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc)) - spin_tensor_osc(
        (pauli(Spin.Z) + pauli(Spin.IDENTITY)) / 2, osc_identity(trunc)
    )
    assert np.max(np.abs(h @ anti - anti @ h)) < 1e-12


def test_spin_flip_maps_jc_to_minus_ajc():
    p = IonParams(Omega=0.5, eta=0.1)
    trunc = TruncationSpec(8)
    flip = spin_tensor_osc(pauli(Spin.X), osc_identity(trunc))
    np.testing.assert_array_equal(flip @ h_jc(p, trunc) @ flip, -h_ajc(p, trunc))


def test_qrm_transform_eta_zero():
    trunc = TruncationSpec(4)
    t = qrm_transform(0.0, trunc)
    eye = np.eye(4)
    expected = np.block([[eye, eye], [-eye, eye]]) / np.sqrt(2)
    np.testing.assert_allclose(t, expected, rtol=0, atol=1e-14)


def test_qrm_transform_unitary():
    t = qrm_transform(0.6, T64)
    assert is_unitary(t, 1e-10)


def test_qrm_transform_columns_orthonormal():
    t = qrm_transform(0.35, TruncationSpec(32))
    rng = np.random.default_rng(23)
    for _ in range(20):
        i, j = rng.integers(0, 64, size=2)
        inner = np.vdot(t[:, i], t[:, j])
        assert abs(inner - (1.0 if i == j else 0.0)) < 1e-10


_I_POWERS = np.array([1, 1j, -1, -1j])


def _gauged_interior(m, trunc):
    """Interior of P m P^dag with P = diag(i^n) on both spin blocks, complex arithmetic."""
    phases = np.tile(_I_POWERS[np.arange(trunc.n_max) % 4], 2)
    return interior_block(phases[:, None] * m * phases.conj()[None, :], trunc)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.6])
def test_gauged_conjugation_matches_dense_transform(eta):
    t_mat = qrm_transform(eta, T64)
    p = IonParams(Omega=0.7, eta=eta, nu=1.3)
    h = h_resonant(p, T64)
    dense = _gauged_interior(t_mat @ h @ dagger(t_mat), T64)
    # the gauged dense product is real up to rounding, and so is the blockwise one exactly
    assert np.max(np.abs(dense.imag)) < 1e-12
    got = qrm_conjugate(*resonant_blocks(p, T64, gauged=True), eta, T64)
    assert np.isrealobj(got) and got.shape == (2 * T64.interior_dim,) * 2
    assert np.max(np.abs(got - dense)) < 1e-12
    # any H of the block form that is real in the gauge: H = P^dag G P for a real
    # G = [[diag(d_e), B], [B^T, diag(d_g)]]
    rng = np.random.default_rng(11)
    d_e, d_g, b = rng.normal(size=64), rng.normal(size=64), rng.normal(size=(64, 64))
    g = np.block([[np.diag(d_e), b], [b.T, np.diag(d_g)]])
    phases = np.tile(_I_POWERS[np.arange(64) % 4], 2)
    m = phases.conj()[:, None] * g * phases[None, :]
    dense = _gauged_interior(t_mat @ m @ dagger(t_mat), T64)
    assert np.max(np.abs(qrm_conjugate(d_e, d_g, b, eta, T64) - dense)) < 1e-12


@pytest.mark.parametrize("trunc", [T64, T32, TruncationSpec(24, 6), TruncationSpec(5, 1)])
def test_stacked_conjugation_is_each_point_alone_bit_for_bit(trunc):
    # a stack of points gives each point's own bits, through the blocks of both builders
    rng = np.random.default_rng(5)
    nu, omega, eta = rng.uniform(0.5, 2.0, 7), rng.uniform(0.0, 2.0, 7), rng.uniform(0.0, 0.6, 7)
    stack = SimpleNamespace(nu=nu, Omega=omega, eta=eta, phi_l=0.0, delta=0.0)
    got = qrm_conjugate(*resonant_blocks(stack, trunc, gauged=True), eta, trunc)
    rabi = qrm_blocks(stack, trunc, gauged=True)
    for i in range(7):
        p = IonParams(nu=nu[i], Omega=omega[i], eta=eta[i])
        alone = qrm_conjugate(*resonant_blocks(p, trunc, gauged=True), eta[i], trunc)
        assert got[i].tobytes() == alone.tobytes()
        for block, single in zip(rabi, qrm_blocks(p, trunc, gauged=True)):
            assert block[i].tobytes() == single.tobytes()


def test_conjugation_rejects_h_not_real_in_the_gauge():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    # one input form: the real blocks of G = P H P^dag, never a complex coupling, even the
    # resonant one, which is real in the gauge
    for d_e, d_g, b in ((np.ones(64), np.ones(64), m),
                        resonant_blocks(IonParams(Omega=0.7, eta=0.3), T64)):
        with pytest.raises(ValueError, match="must be a real 64x64 array"):
            qrm_conjugate(d_e, d_g, b, 0.3, T64)
    # off the phases 0 and pi the resonant model has no real gauge, so it has no real form
    with pytest.raises(ValueError, match="not exactly real in the Fock-parity gauge"):
        h_resonant(IonParams(Omega=0.7, eta=0.3, phi_l=0.4), T64, gauged=True)
    # pi, and a phase of rounding size, are the phases 0 and pi of the one phase rule
    for phase in (math.pi, 1e-300):
        got = h_resonant(IonParams(Omega=0.7, eta=0.3, phi_l=phase), T64, gauged=True)
        assert got.dtype == np.float64


def test_blockwise_conjugation_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        qrm_conjugate(np.ones(32), np.ones(32), np.eye(32), 0.3, T64)


def test_h_qrm_eta_zero():
    p = IonParams(Omega=0.7, eta=0.0)
    trunc = TruncationSpec(6)
    expected = spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc)) + 0.7 * spin_tensor_osc(
        pauli(Spin.Z), osc_identity(trunc)
    )
    np.testing.assert_allclose(h_qrm(p, trunc), expected, rtol=0, atol=1e-14)


def test_h_qrm_constant_flag_shifts_by_nu_eta_sq_over_4():
    p = IonParams(Omega=0.7, eta=0.3, nu=1.3)
    trunc = TruncationSpec(8)
    diff = h_qrm(p, trunc, include_constant=True) - h_qrm(p, trunc, include_constant=False)
    np.testing.assert_allclose(diff, (1.3 * 0.09 / 4) * np.eye(16), rtol=0, atol=1e-15)


def test_every_reader_of_g_and_the_offset_agrees_with_their_one_home(capsys):
    from ionqrm.analysis import speed_comparison
    from ionqrm.cli import main

    rng = np.random.default_rng(17)
    trunc = TruncationSpec(6)
    n = trunc.n_max
    points = 0
    while points < 40:
        p = IonParams(nu=float(rng.uniform(0.1, 10.0)), Omega=float(rng.uniform(0.0, 3.0)),
                      eta=float(rng.uniform(0.0, 3.0)))
        if abs(2.0 * p.Omega - p.nu) < 1e-3 * p.nu:
            continue  # the sideband pole of derived_couplings
        points += 1
        g = qrm_coupling(p)
        assert main(["regime", "--set", f"nu={p.nu!r}", "--set", f"Omega={p.Omega!r}",
                     "--set", f"eta={p.eta!r}"]) == 0
        printed = capsys.readouterr().out.splitlines()[1]
        assert printed == f"g_ratio = {g / p.nu!r}"
        assert speed_comparison(p).metrics["g_ratio"] == g / p.nu
        h = h_qrm(p, trunc)
        coupling = h[0, n + 1]
        assert (coupling.real, coupling.imag) == (0.0, g) and coupling == 1j * g
        np.testing.assert_array_equal(np.diag(h_qrm(p, trunc, include_constant=True)),
                                      np.diag(h) + transform_offset(p))


def test_central_identity_single_point():
    p = IonParams(Omega=0.7, eta=0.3)
    t = qrm_transform(p.eta, T64)
    lhs = interior_block(t @ h_resonant(p, T64) @ dagger(t), T64)
    rhs = interior_block(h_qrm(p, T64, include_constant=True), T64)
    assert np.linalg.norm(lhs - rhs) < 1e-8 * T64.interior_dim


def test_h_qrm_deep_strong_ground_trend():
    # coupling g = eta*nu/2 = 2: ground energy tracks -g^2/nu within the drive scale
    p = IonParams(Omega=0.5, eta=4.0)
    w0 = np.min(np.linalg.eigvalsh(h_qrm(p, T64)))
    assert w0 == pytest.approx(-4.0169336097955455, abs=1e-9)
    assert abs(w0 - (-4.0)) < p.Omega


def test_h_qrm_detuned_reduces_and_places_delta():
    trunc = TruncationSpec(8)
    p0 = IonParams(Omega=0.7, eta=0.3)
    np.testing.assert_allclose(
        h_qrm_detuned(p0, trunc),
        h_qrm(p0, trunc, include_constant=True),
        rtol=0,
        atol=1e-14,
    )
    p = IonParams(Omega=0.7, eta=0.3, delta=0.25)
    h = h_qrm_detuned(p, trunc)
    for n in range(trunc.n_max):
        assert h[n, trunc.n_max + n] == pytest.approx(0.125)
    assert is_hermitian(h, 1e-12)


def test_derived_couplings_worked_example():
    c = derived_couplings(IonParams(Omega=1.0, eta=0.1))
    assert c.eps_counter == pytest.approx(0.1 / 6, abs=1e-12)
    assert c.eps_co == pytest.approx(0.05, abs=1e-12)
    assert c.chi == pytest.approx(0.02 / 3, abs=1e-12)


def test_derived_couplings_zero_eta():
    c = derived_couplings(IonParams(Omega=1.0, eta=0.0))
    assert (c.eps_counter, c.eps_co, c.chi) == (0.0, 0.0, 0.0)


def test_derived_couplings_pole():
    with pytest.raises(ResonancePoleError):
        derived_couplings(IonParams(Omega=0.5, eta=0.1, nu=1.0))


def test_derived_couplings_raise_exactly_where_the_sideband_is_resonant():
    # |2*Omega - nu| = 1e-10 is inside the resonance band 1e-9 * (nu + 2*Omega)
    p = IonParams(Omega=0.50000000005, eta=0.02)
    assert is_sideband_resonant(p)
    message = (r"^2\*Omega = nu pole \(nu=1.0, Omega=0.50000000005\); small-rotation angles "
               r"are undefined at the sideband resonance$")
    with pytest.raises(ResonancePoleError, match=message):
        derived_couplings(p)
    # 2*Omega - nu on both sides of the band's edge near 2e-9
    points = [IonParams(Omega=0.5 + offset / 2, eta=0.02)
              for offset in (0.0, 1e-10, -1e-10, 1.9e-9, -1.9e-9, 2.1e-9, -2.1e-9, 1e-3)]

    def raises(p):
        try:
            derived_couplings(p)
        except ResonancePoleError:
            return True
        return False

    assert [raises(p) for p in points] == [is_sideband_resonant(p) for p in points] == [
        True] * 5 + [False] * 3


def test_chi_combines_both_rotation_angles():
    # chi = nu*eta*(eps_counter + eps_co), exact algebra
    rng = np.random.default_rng(29)
    for _ in range(100):
        nu = float(rng.uniform(0.5, 2.0))
        omega = float(rng.uniform(0.05, 2.0))
        if abs(2 * omega - nu) < 0.05:
            continue
        eta = float(rng.uniform(0.01, 1.0))
        c = derived_couplings(IonParams(Omega=omega, eta=eta, nu=nu))
        rhs = nu * eta * (c.eps_counter + c.eps_co)
        assert abs(c.chi - rhs) <= 1e-12 * abs(c.chi)


def test_small_rotation_identity_and_unitarity():
    trunc = TruncationSpec(16)
    np.testing.assert_allclose(
        small_rotation("co", 0.0, trunc), np.eye(32), rtol=0, atol=1e-14
    )
    assert is_unitary(small_rotation("counter", 0.05, T64), 1e-10)
    with pytest.raises(ValueError):
        small_rotation("sideways", 0.1, trunc)


@pytest.mark.parametrize("kind", ["counter", "co"])
@pytest.mark.parametrize("eps", [0.05, -0.13, 0.9])
@pytest.mark.parametrize("n_max", [1, 2, 32])
def test_closed_form_small_rotation_matches_generator_exponential(kind, eps, n_max):
    trunc = TruncationSpec(n_max)
    a = annihilation(trunc)
    up, down = (dagger(a), a) if kind == "counter" else (a, dagger(a))
    gen = spin_tensor_osc(pauli(Spin.PLUS), up) - spin_tensor_osc(pauli(Spin.MINUS), down)
    u = small_rotation(kind, eps, trunc)
    assert np.max(np.abs(u - unitary_expm(eps * gen))) <= 1e-13
    assert np.max(np.abs(u @ dagger(u) - np.eye(2 * n_max))) <= 1e-13


def test_small_rotation_first_order_expansion_scaling():
    from ionqrm import annihilation

    trunc = TruncationSpec(32)
    a = annihilation(trunc)
    gen = spin_tensor_osc(pauli(Spin.PLUS), dagger(a)) - spin_tensor_osc(pauli(Spin.MINUS), a)
    remainders = []
    for eps in (0.05, 0.025):
        u = small_rotation("counter", eps, trunc)
        remainders.append(np.linalg.norm(u - np.eye(64) - eps * gen))
    assert remainders[0] / remainders[1] == pytest.approx(4.0, rel=0.15)


def test_h_dispersive_is_diagonal_with_expected_eigenvalues():
    p = IonParams(Omega=1.0, eta=0.1)
    trunc = TruncationSpec(6)
    h = h_dispersive(p, trunc)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    chi = derived_couplings(p).chi
    for n in range(6):
        assert h[n, n].real == pytest.approx(p.nu * n + p.Omega - chi * (n + 0.5))


def test_h_dispersive_eta_zero():
    p = IonParams(Omega=1.0, eta=0.0)
    trunc = TruncationSpec(5)
    expected = spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc)) + spin_tensor_osc(
        pauli(Spin.Z), osc_identity(trunc)
    )
    np.testing.assert_allclose(h_dispersive(p, trunc), expected, rtol=0, atol=1e-14)


def test_h_dispersive_propagates_pole():
    with pytest.raises(ResonancePoleError):
        h_dispersive(IonParams(Omega=0.5, eta=0.1), TruncationSpec(8))


def test_classify_regime_fixtures():
    assert classify_regime(IonParams(Omega=0.5, eta=0.02)) is Regime.JC_RESONANT
    assert classify_regime(IonParams(Omega=0.0005, eta=0.2)) is Regime.DECOUPLING
    assert classify_regime(IonParams(Omega=1.0, eta=2.5)) is Regime.DEEP_STRONG
    # pi laser phase selects the anti-JC branch of the same resonance
    assert (
        classify_regime(IonParams(Omega=0.5, eta=0.02, phi_l=math.pi))
        is Regime.AJC_RESONANT
    )
    assert classify_regime(IonParams(Omega=1.0, eta=0.5)) is Regime.ULTRASTRONG
    assert classify_regime(IonParams(Omega=1.0, eta=0.01)) is Regime.DISPERSIVE


def test_classify_regime_scale_invariance():
    rng = np.random.default_rng(31)
    for _ in range(100):
        p = IonParams(
            nu=float(rng.uniform(0.1, 10.0)),
            Omega=float(rng.uniform(0.0, 3.0)),
            eta=float(rng.uniform(0.0, 3.0)),
            phi_l=float(rng.choice([0.0, math.pi])),
        )
        scale = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        scaled = IonParams(nu=p.nu * scale, Omega=p.Omega * scale, eta=p.eta, phi_l=p.phi_l)
        assert classify_regime(p) is classify_regime(scaled)


def test_classify_regime_threshold_validation():
    with pytest.raises(ValueError):
        RegimeThresholds(ordering_factor=0.0)


def test_rotation_diagnostic_identifies_standard_convention():
    metrics = rotation_diagnostic(IonParams(Omega=0.7, eta=0.2), T32)
    # R h_lamb_dicke R^dag is h_rabi_rotated at its own phase, plus form at 0 and
    # minus form at pi, and far from the other phase's form
    assert sorted(metrics) == ["phi0_to_other_form", "phi0_to_rabi_rotated",
                               "phipi_to_other_form", "phipi_to_rabi_rotated",
                               "unitarity_defect"]
    assert metrics["phi0_to_rabi_rotated"] < 1e-13
    assert metrics["phipi_to_rabi_rotated"] < 1e-13
    assert metrics["phi0_to_other_form"] > 1.0
    assert metrics["phipi_to_other_form"] > 1.0
    assert metrics["unitarity_defect"] < 1e-14


def _phase_factors(phi_l):
    """(e^(i*phi_l), e^(-i*phi_l)), both exactly laser_phase_sign(phi_l) where it is set."""
    sign = laser_phase_sign(phi_l)
    if sign is None:
        return np.exp(1j * phi_l), np.exp(-1j * phi_l)
    return complex(sign), complex(sign)


def _h_resonant_by_terms(p, trunc):
    """h_resonant as the sum of three dense spin_tensor_osc terms it once was."""
    disp = displacement(1j * p.eta, trunc)
    up, down = _phase_factors(p.phi_l)
    return (
        p.nu * spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc))
        + p.Omega * up * spin_tensor_osc(pauli(Spin.PLUS), disp)
        + p.Omega * down * spin_tensor_osc(pauli(Spin.MINUS), disp.conj().T)
    )


def _h_qrm_by_terms(p, trunc, include_constant):
    """h_qrm as the sum of dense spin_tensor_osc terms it once was."""
    a = annihilation(trunc)
    h = (
        p.nu * spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc))
        + p.Omega * spin_tensor_osc(pauli(Spin.Z), osc_identity(trunc))
        + (1j * p.eta * p.nu / 2.0) * spin_tensor_osc(pauli(Spin.X), a - a.conj().T)
    )
    if include_constant:
        h = h + (p.nu * p.eta**2 / 4.0) * np.eye(2 * trunc.n_max, dtype=complex)
    return h


def _h_lamb_dicke_by_terms(p, trunc):
    a = annihilation(trunc)
    x = a + a.conj().T
    up, down = _phase_factors(p.phi_l)
    drive = up * pauli(Spin.PLUS) + down * pauli(Spin.MINUS)
    chiral = up * pauli(Spin.PLUS) - down * pauli(Spin.MINUS)
    return (
        p.nu * spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc))
        + p.Omega * spin_tensor_osc(drive, osc_identity(trunc))
        + 1j * p.eta * p.Omega * spin_tensor_osc(chiral, x)
    )


def _h_rabi_rotated_by_terms(p, trunc):
    """nu*n + sign*[Omega*sigma_z + i*eta*Omega*(a^dag + a)(sigma_+ - sigma_-)] as dense terms,
    sign = e^(i*phi_l) = laser_phase_sign(phi_l): the plus form at 0, the minus form at pi."""
    sign = laser_phase_sign(p.phi_l)
    a = annihilation(trunc)
    x = a + a.conj().T
    flip = pauli(Spin.PLUS) - pauli(Spin.MINUS)
    return (
        p.nu * spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc))
        + sign * p.Omega * spin_tensor_osc(pauli(Spin.Z), osc_identity(trunc))
        + sign * 1j * p.eta * p.Omega * spin_tensor_osc(flip, x)
    )


def _h_jc_by_terms(p, trunc):
    a = annihilation(trunc)
    return 1j * p.eta * p.Omega * (
        spin_tensor_osc(pauli(Spin.PLUS), a) - spin_tensor_osc(pauli(Spin.MINUS), a.conj().T)
    )


def _h_ajc_by_terms(p, trunc):
    a = annihilation(trunc)
    return -1j * p.eta * p.Omega * (
        spin_tensor_osc(pauli(Spin.MINUS), a) - spin_tensor_osc(pauli(Spin.PLUS), a.conj().T)
    )


def _h_qrm_detuned_by_terms(p, trunc):
    a = annihilation(trunc)
    eye = osc_identity(trunc)
    return (
        p.nu * spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc))
        + (p.nu * p.eta**2 / 4.0) * spin_tensor_osc(pauli(Spin.IDENTITY), eye)
        + p.Omega * spin_tensor_osc(pauli(Spin.Z), eye)
        + (1j * p.eta * p.nu / 2.0) * spin_tensor_osc(pauli(Spin.X), a - a.conj().T)
        + (p.delta / 2.0) * spin_tensor_osc(pauli(Spin.X), eye)
    )


def _h_dispersive_by_terms(p, trunc):
    chi = derived_couplings(p).chi
    n = number_op(trunc)
    eye = osc_identity(trunc)
    return (
        p.nu * spin_tensor_osc(pauli(Spin.IDENTITY), n)
        + p.Omega * spin_tensor_osc(pauli(Spin.Z), eye)
        - chi * spin_tensor_osc(pauli(Spin.Z), n + 0.5 * eye)
    )


# the docstring formula of each remaining builder as a dense spin_tensor_osc sum
_TERM_SUMS = {
    "lamb-dicke": _h_lamb_dicke_by_terms,
    "rabi-rotated": _h_rabi_rotated_by_terms,
    "jc": _h_jc_by_terms,
    "ajc": _h_ajc_by_terms,
    "qrm-detuned": _h_qrm_detuned_by_terms,
    "dispersive": _h_dispersive_by_terms,
}


def _block_written_draws(n_draws):
    rng = np.random.default_rng(2024)
    fixed = [  # the edges: one Fock level, no coupling, no drive, both special phases
        (IonParams(Omega=0.7, eta=0.3), 1),
        (IonParams(Omega=0.7, eta=0.0), 8),
        (IonParams(Omega=0.0, eta=0.3), 8),
        (IonParams(Omega=0.7, eta=0.3, phi_l=math.pi), 8),
        (IonParams(Omega=0.0, eta=0.0, nu=2.5, phi_l=-2.0), 1),
        (IonParams(Omega=0.7, eta=0.3, delta=-0.4), 8),
        (IonParams(Omega=0.0, eta=0.0, delta=0.4), 1),
    ]
    for p, n_max in fixed:
        yield p, TruncationSpec(n_max)
    for _ in range(n_draws):
        p = IonParams(
            nu=float(rng.uniform(0.2, 3.0)),
            Omega=0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 3.0)),
            eta=0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 1.0)),
            phi_l=float(rng.choice([0.0, math.pi, rng.uniform(-7.0, 7.0)])),
            delta=float(rng.choice([0.0, rng.uniform(-2.0, 2.0)])),
        )
        yield p, TruncationSpec(int(rng.integers(1, 65)))


def _assert_bit_identical(got, oracle, p):
    assert np.array_equal(got, oracle), p
    # the oracle's products leave -0.0 where the assembled entry is 0.0
    assert got.tobytes() == (oracle + 0.0).tobytes(), p


def test_block_written_builders_are_bit_identical_to_term_sums(monkeypatch):
    assembled = []  # every matrix the block assembler returns, to find both Rabi forms
    spin_blocks = models._spin_blocks

    def recording(*args):
        assembled.append(spin_blocks(*args))
        return assembled[-1]

    monkeypatch.setattr(models, "_spin_blocks", recording)
    for p, trunc in _block_written_draws(300):
        resonant = p.replace(delta=0.0)  # h_resonant requires delta = 0
        got = h_resonant(resonant, trunc)
        assert got.tobytes() == _h_resonant_by_terms(resonant, trunc).tobytes(), p
        for constant in (False, True):
            got = h_qrm(p, trunc, include_constant=constant)
            assert got.tobytes() == _h_qrm_by_terms(p, trunc, constant).tobytes(), p
        for name, oracle in _TERM_SUMS.items():
            if name == "rabi-rotated" and laser_phase_sign(p.phi_l) is None:
                continue  # the builder rejects every other phase
            _assert_bit_identical(HAMILTONIAN_BUILDERS[name](p, trunc), oracle(p, trunc), p)
        assembled.clear()
        rotation_diagnostic(p, trunc)
        for phase in (0.0, math.pi):
            form = _h_rabi_rotated_by_terms(p.replace(phi_l=phase), trunc)
            assert any(np.array_equal(h, form) and h.tobytes() == (form + 0.0).tobytes()
                       for h in assembled), (p, phase)


@pytest.mark.parametrize("name", sorted(HAMILTONIAN_BUILDERS))
def test_no_builder_returns_a_negative_zero(name):
    for p, trunc in _block_written_draws(100):
        if name == "resonant":
            p = p.replace(delta=0.0)
        elif name == "rabi-rotated" and laser_phase_sign(p.phi_l) is None:
            continue
        floats = HAMILTONIAN_BUILDERS[name](p, trunc).view(np.float64)
        assert not np.signbit(floats[floats == 0.0]).any(), p


def test_gauged_form_of_resonant_and_qrm_is_fock_gauge_of_the_complex_form():
    # the real form exists exactly where fock_gauge finds P H P^dag real, and then equals it
    builds = {
        "resonant": lambda p, trunc, **kw: h_resonant(p.replace(delta=0.0), trunc, **kw),
        "qrm": h_qrm,
        "qrm-constant": lambda p, trunc, **kw: h_qrm(p, trunc, include_constant=True, **kw),
    }
    for p, trunc in _block_written_draws(100):
        n = trunc.n_max
        for eta in (p.eta, p.eta / 2.0, -p.eta):
            assert np.array_equal(
                displacement_gauged(eta, trunc), fock_gauge(displacement(1j * eta, trunc), n)
            ), p
        for phase in dict.fromkeys((0.0, math.pi, p.phi_l)):
            q = p.replace(phi_l=phase)
            for name, build in builds.items():
                oracle = fock_gauge(build(q, trunc), n)
                if oracle is None:
                    # only a drive whose phase factor Omega*e^(i*phi_l) is not real
                    assert name == "resonant" and laser_phase_sign(phase) is None, q
                    assert p.Omega != 0.0, q
                    with pytest.raises(ValueError, match="not exactly real in the Fock-parity"):
                        build(q, trunc, gauged=True)
                    continue
                got = build(q, trunc, gauged=True)
                assert got.dtype == np.float64 and np.array_equal(got, oracle), (name, q)
            # a drive off the phases 0 and pi has no real form
            assert (fock_gauge(builds["resonant"](q, trunc), n) is None) == (
                laser_phase_sign(phase) is None and p.Omega != 0.0
            ), q
