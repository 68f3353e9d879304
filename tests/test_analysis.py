"""Tests for the verification experiments."""
import numpy as np
import pytest

from ionqrm import (
    IonParams,
    TruncationSpec,
    ajc_dynamics_check,
    chi_identity_check,
    dagger,
    dispersive_error_scan,
    dominant_frequency,
    fock_state,
    guard_necessity_check,
    h_jc,
    h_lamb_dicke,
    jc_rabi_experiment,
    lamb_dicke_remainder_scan,
    operator_algebra_check,
    osc_identity,
    propagate,
    propagator_conservation_check,
    qrm_transform_check,
    qrm_transform_property,
    regime_check,
    rotation_diagnostic_check,
    run_all_checks,
    speed_comparison,
    spin_tensor_osc,
    truncation_convergence,
    y_rotation,
)
from oracles import Spin, number_op, pauli

T64 = TruncationSpec(n_max=64, guard=16)


def test_dominant_frequency_on_synthetic_cosine():
    t = np.linspace(0, 60, 512, endpoint=False)
    for omega in (0.9, 2.3):
        sig = 0.5 + 0.4 * np.cos(omega * t + 0.3)
        assert dominant_frequency(t, sig) == pytest.approx(omega, rel=2e-3)
    with pytest.raises(ValueError, match="uniform"):
        dominant_frequency(np.array([0, 1, 3.0, 7.0, 8, 9, 10, 11]), np.ones(8))


def test_operator_algebra_check_passes():
    rep = operator_algebra_check(T64)
    assert rep.passed
    assert rep.metrics["displacement_oracle_dev"] < 1e-9
    assert rep.metrics["displacement_unitarity_dev"] < 1e-10
    assert rep.metrics["displacement_generator_dev"] < 1e-10


def test_qrm_transform_check_eta_zero_exact():
    rep = qrm_transform_check(IonParams(Omega=0.7, eta=0.0), T64)
    assert rep.passed
    assert rep.metrics["frobenius_norm"] < 1e-12


def test_qrm_transform_check_reference_point():
    rep = qrm_transform_check(IonParams(Omega=0.7, eta=0.3), T64)
    assert rep.passed
    assert rep.metrics["frobenius_norm"] < 1e-8 * T64.interior_dim
    assert rep.metrics["diag_offset_dev"] < 1e-8


def test_qrm_transform_check_preconditions():
    with pytest.raises(ValueError, match="phi_l"):
        qrm_transform_check(IonParams(Omega=0.7, eta=0.3, phi_l=0.1), T64)
    with pytest.raises(ValueError, match="delta"):
        qrm_transform_check(IonParams(Omega=0.7, eta=0.3, delta=0.1), T64)


def test_qrm_transform_property_deterministic_given_seed():
    a = qrm_transform_property(10, T64, seed=99)
    b = qrm_transform_property(10, T64, seed=99)
    assert a.passed and b.passed
    assert a.metrics == b.metrics


def test_guard_necessity_demonstrates_edge_failure():
    rep = guard_necessity_check(IonParams(Omega=0.7, eta=0.3))
    assert rep.passed  # pass means the unguarded comparison fails
    assert rep.metrics["edge_norm"] > rep.metrics["threshold"]
    with pytest.raises(ValueError, match="eta"):
        guard_necessity_check(IonParams(Omega=0.7, eta=0.1))


def test_lamb_dicke_remainder_scan_order():
    rep = lamb_dicke_remainder_scan()
    assert rep.passed
    assert rep.metrics["order"] == pytest.approx(2.0, abs=0.1)
    assert rep.metrics["relative_order"] >= 2.0 - 0.2


def test_dispersive_error_scan_reference_point():
    rep = dispersive_error_scan(IonParams(Omega=1.0, eta=0.08))
    assert rep.passed
    assert rep.metrics["order"] >= 1.8
    assert rep.metrics["order"] == pytest.approx(2.0, abs=0.1)


def test_dispersive_error_scan_stable_under_doubling_n_max():
    base = dispersive_error_scan(IonParams(Omega=1.0, eta=0.08), trunc=T64)
    fine = dispersive_error_scan(
        IonParams(Omega=1.0, eta=0.08), trunc=TruncationSpec(128, 32)
    )
    assert abs(base.metrics["order"] - fine.metrics["order"]) < 0.1


def test_dispersive_error_scan_pole_guard():
    with pytest.raises(ValueError, match="pole"):
        dispersive_error_scan(IonParams(Omega=0.5 + 1e-6, eta=0.08))


def test_chi_identity_check():
    rep = chi_identity_check()
    assert rep.passed
    assert rep.metrics["worst_relative_dev"] <= 1e-12


def test_jc_rabi_experiment_reference_point():
    rep = jc_rabi_experiment(IonParams(Omega=0.5, eta=0.02), n0=0)
    assert rep.passed
    assert rep.metrics["rel_dev_full"] <= 0.05
    assert rep.metrics["jc_pointwise_dev"] <= 1e-8
    assert rep.metrics["freq_analytic"] == pytest.approx(0.02)
    assert rep.metrics["lamb_dicke_warning"] == 0.0


def test_jc_rabi_experiment_higher_fock_rung():
    rep = jc_rabi_experiment(IonParams(Omega=0.5, eta=0.02), n0=3)
    assert rep.passed
    assert rep.metrics["freq_analytic"] == pytest.approx(0.04)


def test_jc_rabi_experiment_preconditions():
    with pytest.raises(ValueError, match="resonance"):
        jc_rabi_experiment(IonParams(Omega=0.6, eta=0.02))
    with pytest.raises(ValueError, match="guard"):
        jc_rabi_experiment(
            IonParams(Omega=0.5, eta=0.02), n0=30, trunc=TruncationSpec(32, 8)
        )


def test_jc_rabi_deviation_shrinks_with_eta():
    devs = [
        jc_rabi_experiment(IonParams(Omega=0.5, eta=eta)).metrics["rel_dev_full"]
        for eta in (0.05, 0.02, 0.01)
    ]
    assert devs[0] > devs[1] > devs[2]


def test_jc_dark_state_and_ajc_oscillation():
    rep = ajc_dynamics_check(IonParams(Omega=0.5, eta=0.02))
    assert rep.passed
    assert rep.metrics["pointwise_dev"] <= 1e-8
    assert rep.metrics["jc_dark_state_dev"] <= 1e-12


def test_rwa_fidelity_stays_high_over_one_rabi_period():
    # full first-order model against the resonance-selected interaction,
    # both in the rotated frame with the diagonal terms kept
    p = IonParams(Omega=0.5, eta=0.02)
    trunc = TruncationSpec(32, 8)
    rot = spin_tensor_osc(y_rotation("standard"), osc_identity(trunc))
    h_full = rot @ h_lamb_dicke(p, trunc) @ dagger(rot)
    diag = spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc)) + p.Omega * spin_tensor_osc(
        pauli(Spin.Z), osc_identity(trunc)
    )
    h_rwa = diag + h_jc(p, trunc)
    psi0 = fock_state("e", 0, trunc)
    times = np.linspace(0, 2 * np.pi / (p.eta * p.Omega), 400)
    ref = propagate(h_rwa, psi0, times, store_states=True)
    run = propagate(h_full, psi0, times, reference=ref.states)
    assert np.min(run.fidelity) > 0.99


def test_truncation_convergence_standard_point():
    rep = truncation_convergence("qrm", IonParams(Omega=0.7, eta=0.3))
    assert rep.passed
    assert rep.metrics["final_shift"] < 1e-9


def test_truncation_convergence_diagonal_case():
    rep = truncation_convergence("dispersive", IonParams(Omega=1.0, eta=0.0), (8, 16, 32))
    assert rep.passed
    assert rep.metrics["final_shift"] == 0.0


def test_truncation_convergence_deep_strong_needs_larger_cutoff():
    rep = truncation_convergence(
        "qrm", IonParams(Omega=1.0, eta=2.0), (16, 32, 64, 128, 256)
    )
    assert rep.passed
    assert rep.metrics["shift_16_to_32"] > 1e-9  # not yet converged at 32
    assert rep.metrics["final_shift"] < 1e-9  # converged by 256


def test_spectral_checks_diagonalize_blocks_not_the_full_matrix(monkeypatch):
    # the conjugated dispersive-scan matrix keeps the two exact parity blocks of
    # the QRM and h_dispersive is diagonal, so no spectrum is taken at dim 2*n_max
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    assert dispersive_error_scan(IonParams(Omega=1.0, eta=0.08), trunc=T64).passed
    assert shapes == [(2, 64, 64)] * 3
    shapes.clear()
    assert truncation_convergence("qrm", IonParams(Omega=0.7, eta=0.3)).passed
    assert shapes == [(2, 16, 16), (2, 32, 32), (2, 64, 64)]


def test_truncation_convergence_input_validation():
    with pytest.raises(ValueError, match="builder"):
        truncation_convergence("nothere", IonParams(Omega=1.0, eta=0.1))
    with pytest.raises(ValueError, match="increasing"):
        truncation_convergence("qrm", IonParams(Omega=1.0, eta=0.1), (32, 16))


def test_speed_comparison_examples():
    fast = speed_comparison(IonParams(Omega=1.0, eta=0.3))
    assert fast.passed
    assert fast.metrics["g_ratio"] == pytest.approx(0.15)
    idle = speed_comparison(IonParams(Omega=1.0, eta=0.0))
    assert not idle.passed
    assert "gate_time" not in idle.metrics
    weak = speed_comparison(IonParams(Omega=1e-3, eta=0.01))
    assert not weak.passed
    assert weak.metrics["g_ratio"] == pytest.approx(5e-3)


def test_regime_check_and_rotation_diagnostic():
    assert regime_check().passed
    rep = rotation_diagnostic_check()
    assert rep.passed
    assert rep.metrics["standard_phipi_to_minus"] < 1e-12


def test_propagator_conservation_check():
    rep = propagator_conservation_check()
    assert rep.passed
    assert rep.metrics["worst_norm_residual"] < 1e-10
    assert rep.metrics["worst_energy_drift_rel"] < 1e-9
    assert rep.metrics["composition_dev"] < 1e-10


def test_run_all_checks_green_and_deterministic():
    first = run_all_checks()
    assert all(r.passed for r in first)
    second = run_all_checks()
    assert [r.name for r in second] == [r.name for r in first]
    for a, b in zip(first, second):
        assert a.metrics == b.metrics


def test_run_all_checks_hot_path_does_not_rediagonalize(monkeypatch):
    # a warm suite reuses the cached displacement basis: the only eigh calls
    # left are propagate's and the generator oracle's, none at dim 2*n_max
    run_all_checks()
    dims = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        dims.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert all(r.passed for r in run_all_checks())
    assert len(dims) <= 16, dims
    assert 2 * T64.n_max not in dims


def test_operator_algebra_check_fails_on_a_broken_displacement_basis(monkeypatch):
    import ionqrm.algebra as algebra

    good = algebra.displacement_basis

    def stretched_basis(n_max):
        x, v = good(n_max)
        return 1.01 * x, v

    monkeypatch.setattr(algebra, "displacement_basis", stretched_basis)
    rep = operator_algebra_check()
    assert not rep.passed
    # still exactly unitary, so only the two oracle comparisons can catch it
    assert rep.metrics["displacement_unitarity_dev"] <= 1e-10
    assert rep.metrics["displacement_generator_dev"] > 1e-10
    assert rep.metrics["displacement_oracle_dev"] > 1e-9


def _flip_one_block(conjugate):
    def flipped(h, eta, trunc):
        out = conjugate(h, eta, trunc)
        k = trunc.interior_dim
        out[:k, k:] *= -1.0
        return out

    return flipped


def _phases_on_top_spin_half(phases):
    """The Fock-parity gauge's diagonal i^n on the top half of the indices only and 1 below.

    On a composite index the top half is the |e> block; on an oscillator
    index it is the lower Fock levels, the half of D(i*r) that
    ``displacement_gauged`` then writes with the right signs.
    """

    def half(dim, n_osc):
        out = phases(dim, n_osc)
        out[dim // 2:] = 1.0
        return out

    return half


@pytest.mark.parametrize("broken", ["sign-flip", "half-gauge"])
def test_transform_check_fails_on_a_broken_conjugation(broken, monkeypatch):
    import ionqrm.algebra as algebra
    import ionqrm.analysis as analysis
    import ionqrm.models as models

    if broken == "sign-flip":
        monkeypatch.setattr(analysis, "qrm_conjugate", _flip_one_block(models.qrm_conjugate))
    else:
        monkeypatch.setattr(algebra, "fock_phases", _phases_on_top_spin_half(algebra.fock_phases))
    rep = qrm_transform_check(IonParams(Omega=0.7, eta=0.3), T64)
    assert not rep.passed
    assert rep.metrics["frobenius_norm"] > 1e3 * rep.metrics["threshold"]
    draws = qrm_transform_property(5, T64, seed=99)
    assert not draws.passed and draws.metrics["failed"] > 0


def _odd_parity_flipped(m):
    """m with the sign of every entry at odd m - n flipped: S m S for S = diag((-1)^n)."""
    out = m.copy()
    out[::2, 1::2] *= -1.0
    out[1::2, ::2] *= -1.0
    return out


# (call index mod 2, defect): each draw builds D(i*eta) in h_resonant first (index 0),
# then D(i*eta/2) in qrm_conjugate (index 1)
_GAUGE_REAL_DEFECTS = {
    "transposed-half": (1, lambda m: m.T),
    "flipped-odd-parity-full": (0, _odd_parity_flipped),
}


@pytest.mark.parametrize("broken", sorted(_GAUGE_REAL_DEFECTS))
def test_transform_check_fails_on_a_broken_gauge_real_displacement(broken, monkeypatch):
    import ionqrm.models as models

    which, defect = _GAUGE_REAL_DEFECTS[broken]
    radii = []
    original = models.displacement_gauged

    def broken_displacement(r, trunc):
        radii.append(r)
        out = original(r, trunc)
        return defect(out) if (len(radii) - 1) % 2 == which else out

    monkeypatch.setattr(models, "displacement_gauged", broken_displacement)
    rep = qrm_transform_check(IonParams(Omega=0.7, eta=0.3), T64)
    assert not rep.passed
    assert rep.metrics["frobenius_norm"] > 1e3 * rep.metrics["threshold"]
    draws = qrm_transform_property(5, T64, seed=99)
    assert not draws.passed and draws.metrics["failed"] > 0
    # the defect hit the displacement it names: full and half alternate
    assert radii[1::2] == [r / 2.0 for r in radii[0::2]] and len(radii) == 12


def test_transform_draws_form_no_complex_displacement_and_gauge_nothing(monkeypatch):
    """The transform identity reads the builders' real form: no complex D, no fock_gauge."""
    import sys

    import ionqrm.algebra as algebra
    import ionqrm.models as models

    calls = dict.fromkeys(("fock_gauge", "displacement", "h_resonant", "h_qrm"), 0)
    for target in calls:
        home = models if target.startswith("h_") else algebra
        original = getattr(home, target)

        def counting(*args, _target=target, _original=original, **kwargs):
            calls[_target] += 1
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ionqrm" and vars(module).get(target) is original:
                monkeypatch.setattr(module, target, counting)
    rep = qrm_transform_property(5, T64, seed=99)
    assert rep.passed
    assert calls == {"fock_gauge": 0, "displacement": 0, "h_resonant": 5, "h_qrm": 5}
    # the counters see a call through any binding, for example the dense oracle's
    models.qrm_transform(0.3, T64)
    assert calls["displacement"] == 1


def test_report_serialization_round_trip_types():
    import json

    rep = qrm_transform_check(IonParams(Omega=0.7, eta=0.3), T64)
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["schema_version"] == 1
    assert payload["passed"] is True
    assert payload["params"]["Omega"] == 0.7
    assert payload["trunc"]["guard"] == 16
