"""Tests for the verification experiments."""
import functools
import inspect
import math

import numpy as np
import pytest

from ionqrm import (
    IonParams,
    Tolerances,
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
from ionqrm import analysis
from ionqrm.analysis import VerificationReport, _SeededStream, gates_hold
from oracles import Spin, fidelity, number_op, pauli, rows_hold

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
    with pytest.raises(ValueError, match=r"exceeds 0\.2 at eta=0\.08; too close to the .* pole"):
        dispersive_error_scan(IonParams(Omega=0.5 + 1e-6, eta=0.08))


def test_chi_identity_check():
    rep = chi_identity_check()
    assert rep.passed
    assert rep.metrics["worst_relative_dev"] <= 1e-12


def test_jc_rabi_experiment_reference_point():
    rep = jc_rabi_experiment(IonParams(Omega=0.5, eta=0.02), n0=0)
    assert rep.passed
    assert rep.tolerance == 0.05
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
    rot = spin_tensor_osc(y_rotation(), osc_identity(trunc))
    h_full = rot @ h_lamb_dicke(p, trunc) @ dagger(rot)
    diag = spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc)) + p.Omega * spin_tensor_osc(
        pauli(Spin.Z), osc_identity(trunc)
    )
    h_rwa = diag + h_jc(p, trunc)
    psi0 = fock_state("e", 0, trunc)
    times = np.linspace(0, 2 * np.pi / (p.eta * p.Omega), 400)
    ref = propagate(h_rwa, psi0, times, store_states=True).states
    run = propagate(h_full, psi0, times, store_states=True).states
    assert min(fidelity(a, b) for a, b in zip(ref, run)) > 0.99


def test_truncation_convergence_standard_point():
    rep = truncation_convergence("qrm", IonParams(Omega=0.7, eta=0.3))
    assert rep.passed
    assert rep.tolerance == 1e-9
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
    assert fast.tolerance == 0.01
    assert fast.metrics["g_ratio"] == pytest.approx(0.15)
    # Omega/nu = 0.1 is the slowest drive still flagged fast
    assert speed_comparison(IonParams(Omega=0.1, eta=0.3)).passed
    assert not speed_comparison(IonParams(Omega=0.099, eta=0.3)).passed
    idle = speed_comparison(IonParams(Omega=1.0, eta=0.0))
    assert not idle.passed
    assert "gate_time" not in idle.metrics
    weak = speed_comparison(IonParams(Omega=1e-3, eta=0.01))
    assert not weak.passed
    assert weak.metrics["g_ratio"] == pytest.approx(5e-3)


def test_the_phi_l_zero_checks_read_the_one_phase_rule():
    # 2*pi is the phase 0 of params.laser_phase_sign; 0.3 is neither 0 nor pi
    zero, off = (IonParams(Omega=0.5, eta=0.02, phi_l=phase) for phase in (2 * math.pi, 0.3))
    assert qrm_transform_check(zero, T64).passed
    assert jc_rabi_experiment(zero, 0).passed
    with pytest.raises(ValueError, match="requires phi_l = 0"):
        qrm_transform_check(off, T64)
    with pytest.raises(ValueError, match="phi_l = 0 branch"):
        jc_rabi_experiment(off, 0)


def test_regime_check_and_rotation_diagnostic():
    assert regime_check().passed
    rep = rotation_diagnostic_check()
    assert rep.passed
    for tag in ("phi0", "phipi"):
        assert rep.metrics[f"{tag}_to_rabi_rotated"] <= 1e-13
        assert rep.metrics[f"{tag}_to_other_form"] > 1.0


def test_propagator_conservation_check():
    rep = propagator_conservation_check()
    assert rep.passed
    assert rep.metrics["worst_norm_residual"] < 1e-10
    assert rep.metrics["worst_energy_drift_rel"] < 1e-9
    assert rep.metrics["composition_dev"] < 1e-10


_STREAM_SEEDS = (0, 2024, 2**32, 2**64 + 5, 2**200 + 12345)

# the first draw of a fresh stream: uniform(0.5, 2.0), integers(1, 511), integers(0, 2)
# (the choice of phi_l), and the first three 64-bit outputs; written from numpy 2.4
_FIRST_DRAWS = {
    0: (1.4554425309821815, 434, 1,
        (0xA30FEBCFD9C2825F, 0x4510BDF882D9D721, 0x0A7D3DA94ECDE8B8)),
    2024: (1.5137470069719228, 124, 0,
           (0xAD0348563DD4CAE8, 0x36DDE2A417A3D0D9, 0x4F383F90515160E1)),
    2**32: (1.8346081869172015, 267, 1,
            (0xE3C5EBE285AC1625, 0x8EA09968FE31DBCC, 0xCD084FF84D8DE9BE)),
    2**64 + 5: (1.6139871731481925, 454, 1,
                (0xBE1ED79DE3D6074E, 0x64197D17923F1721, 0xAF69FCFEDB7A76BA)),
    2**200 + 12345: (1.196825549040789, 221, 0,
                     (0x76ECC5D56E7ECFE6, 0x8C7E605A14614D97, 0x95B36FBAFA2EE21E)),
}

# every (lo, hi) the checks draw a uniform from, the regime check's log scale included
_UNIFORM_BOUNDS = ((0.5, 2.0), (0.0, 2.0), (0.0, 0.6), (0.05, 2.0), (0.01, 1.0),
                   (0.1, 10.0), (0.0, 3.0), (np.log(0.01), np.log(100.0)))


@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_seeded_stream_known_answers(seed):
    uniform, index, coin, raw = _FIRST_DRAWS[seed]
    assert _SeededStream(seed).uniform(0.5, 2.0) == uniform
    assert _SeededStream(seed).integers(1, 511) == index
    assert _SeededStream(seed).integers(0, 2) == coin
    stream = _SeededStream(seed)
    assert tuple(stream._next64() for _ in range(3)) == raw


@pytest.mark.parametrize("seed", (*_STREAM_SEEDS, 7, 99, 2**32 - 1, 2**128 + 3))
def test_seeded_stream_outputs_the_pcg64_bit_stream(seed):
    # NEP 19 keeps a bit generator's stream fixed across numpy releases
    stream = _SeededStream(seed)
    assert [stream._next64() for _ in range(64)] == np.random.PCG64(seed).random_raw(64).tolist()


@pytest.mark.parametrize("seed", (*_STREAM_SEEDS, 7, 99))
def test_seeded_stream_draws_equal_default_rng(seed):
    stream, rng = _SeededStream(seed), np.random.default_rng(seed)
    for lo, hi in _UNIFORM_BOUNDS * 25:
        assert stream.uniform(lo, hi) == rng.uniform(lo, hi)
    for _ in range(200):
        assert stream.integers(1, 511) == rng.integers(1, 511)
        assert (0.0, math.pi)[stream.integers(0, 2)] == rng.choice([0.0, math.pi])
    # an integers draw splits a 64-bit output and keeps its high half, which the next
    # integers draw reads after the uniform in between has taken a whole output
    for lo, hi in _UNIFORM_BOUNDS * 25:
        assert stream.integers(1, 511) == rng.integers(1, 511)
        assert stream.uniform(lo, hi) == rng.uniform(lo, hi)
    # a width whose Lemire rejection (2**32 % n = 2**30) takes one draw in four
    for _ in range(200):
        assert stream.integers(5, 5 + 3 * 2**30) == rng.integers(5, 5 + 3 * 2**30)
    assert stream.integers(4, 5) == rng.integers(4, 5) == 4  # draws nothing
    assert stream.uniform(0.5, 2.0) == rng.uniform(0.5, 2.0)


def test_seeded_stream_rejects_a_negative_seed_as_default_rng_does():
    for make in (_SeededStream, np.random.default_rng):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            make(-1)
    for lo, hi in ((0, 0), (3, 2), (0, 2**32)):
        with pytest.raises(ValueError, match="hi - lo"):
            _SeededStream(0).integers(lo, hi)


@pytest.mark.parametrize("seed", (7, 2024, 2**64 + 5))
def test_seeded_reports_equal_their_default_rng_form(seed, monkeypatch):
    def seeded_reports():
        return [qrm_transform_property(10, T64, seed=seed).to_dict(),
                chi_identity_check(100, seed=seed).to_dict(),
                regime_check(100, seed=seed).to_dict(),
                propagator_conservation_check(seed=seed).to_dict()]

    ours = seeded_reports()
    monkeypatch.setattr(analysis, "_SeededStream", np.random.default_rng)
    assert seeded_reports() == ours


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


def test_operator_algebra_check_fails_on_a_broken_laguerre_oracle(monkeypatch):
    import ionqrm.algebra as algebra
    import ionqrm.analysis as analysis

    # the oracle's own source with an off-by-one in the recurrence's (j + k) coefficient
    source = inspect.getsource(algebra.displacement_laguerre)
    assert source.count("(j + k)") == 1
    namespace = dict(vars(algebra))
    exec(source.replace("(j + k)", "(j + k + 1)"), namespace)
    monkeypatch.setattr(analysis, "displacement_laguerre", namespace["displacement_laguerre"])
    rep = operator_algebra_check()
    tol = Tolerances()
    assert not rep.passed
    # the production displacement is untouched: only the oracle comparison fails
    assert rep.metrics["displacement_oracle_dev"] > tol.oracle
    assert rep.metrics["commutator_interior_dev"] <= 1e-13
    assert rep.metrics["displacement_unitarity_dev"] <= tol.identity
    assert rep.metrics["displacement_generator_dev"] <= tol.identity


def _nan_on_second_call(monkeypatch, module, name, spoil):
    """Wrap ``module.name`` so that its second call returns ``spoil(result)``."""
    original = getattr(module, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = original(*args, **kwargs)
        return spoil(out) if len(calls) == 2 else out

    monkeypatch.setattr(module, name, wrapped)


def _nan_entry(m):
    m = m.copy()
    m[1, 1] = np.nan
    return m


# each worst case over a set of draws or displacements, with a NaN at its second
# member, which a worst case must keep so that the report fails
_NAN_CASES = {
    "operator-algebra": ("displacement_laguerre", _nan_entry,
                         lambda: operator_algebra_check(TruncationSpec(16, 4)),
                         "displacement_oracle_dev"),
    "qrm-transform-draws": ("qrm_transform_check",
                            lambda rep: rep.replace(
                                metrics={**rep.metrics, "diag_offset_dev": float("nan")}),
                            lambda: qrm_transform_property(3, TruncationSpec(16, 4)),
                            "worst_diag_offset_dev"),
    "chi-identity": ("derived_couplings", lambda cpl: cpl.replace(chi=float("nan")),
                     lambda: chi_identity_check(5), "worst_relative_dev"),
    "propagator-conservation": ("propagate",
                                lambda run: run.replace(norm_residual=run.norm_residual * np.nan),
                                propagator_conservation_check, "worst_norm_residual"),
}


@pytest.mark.parametrize("case", list(_NAN_CASES))
def test_a_nan_worst_case_fails_its_report(case, monkeypatch):
    import ionqrm.analysis as analysis

    name, spoil, check, metric = _NAN_CASES[case]
    _nan_on_second_call(monkeypatch, analysis, name, spoil)
    rep = check()
    assert rep.name == case
    assert np.isnan(rep.metrics[metric])
    assert not rep.passed
    if case == "qrm-transform-draws":
        assert rep.metrics["failed"] == 1.0


def test_operator_algebra_note_names_the_identity_tolerance_used():
    trunc = TruncationSpec(16, 4)
    default = operator_algebra_check(trunc)
    assert default.notes == ("commutator compared at 1e-13 (rounding of sqrt products); "
                             "unitarity at the identity tolerance 1e-10")
    looser = operator_algebra_check(trunc, Tolerances(identity=1e-9))
    assert looser.notes.endswith("unitarity at the identity tolerance 1e-09")


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
    """The transform identity reads the builders' real form: no complex D, no gauge test."""
    import sys

    import ionqrm.algebra as algebra
    import ionqrm.models as models

    calls = dict.fromkeys(("gauge_is_real", "displacement", "h_resonant", "h_qrm"), 0)
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
    assert calls == {"gauge_is_real": 0, "displacement": 0, "h_resonant": 5, "h_qrm": 5}
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


def test_jc_rabi_experiment_rejects_a_negative_fock_level_before_computing(monkeypatch):
    import ionqrm.analysis as analysis

    def no_propagation(*args, **kwargs):
        raise AssertionError("propagate ran for a negative Fock level")

    monkeypatch.setattr(analysis, "propagate", no_propagation)
    for n0 in (-1, -3):  # once a ZeroDivisionError, once a math domain error
        with pytest.raises(ValueError, match=f"n0={n0} is not a Fock level"):
            jc_rabi_experiment(IonParams(Omega=0.5, eta=0.02), n0=n0)


_TOL = Tolerances()
# the (metric, comparison, bound) rows of each report of run_all_checks() and of
# qrm-transform at T64, exactly as declared: a bound moved or a "<" turned "<=" shows here
_GATES = {
    "operator-algebra": (("commutator_interior_dev", "<=", 1e-13),
                         ("displacement_unitarity_dev", "<=", _TOL.identity),
                         ("displacement_generator_dev", "<=", _TOL.identity),
                         ("displacement_oracle_dev", "<=", _TOL.oracle)),
    "qrm-transform": (("frobenius_norm", "<", _TOL.spectral * T64.interior_dim),),
    "qrm-transform-draws": (("failed", "<=", 0.0),),
    "guard-necessity": (("edge_norm", ">=", _TOL.spectral * T64.n_max),),
    "lamb-dicke-remainder": (("order", ">=", _TOL.min_scaling_order),),
    "jc-rabi": (("rel_dev_full", "<=", 0.05), ("jc_pointwise_dev", "<=", 1e-8)),
    "ajc-dynamics": (("pointwise_dev", "<=", 1e-8), ("jc_dark_state_dev", "<=", 1e-12)),
    "dispersive-error-scan": (("order", ">=", _TOL.min_scaling_order),),
    "chi-identity": (("worst_relative_dev", "<=", 1e-12),),
    "regime-classifier": (("fixture_failures", "<=", 0.0), ("invariance_failures", "<=", 0.0)),
    "propagator-conservation": (("worst_norm_residual", "<", 1e-10),
                                ("worst_energy_drift_rel", "<", 1e-9),
                                ("composition_dev", "<", 1e-10)),
    "rotation-diagnostic": (("phi0_to_rabi_rotated", "<=", _TOL.identity),
                            ("phipi_to_rabi_rotated", "<=", _TOL.identity)),
    "speed-comparison": (("g_ratio", ">=", 0.01), ("omega_ratio", ">=", 0.1)),
    "truncation-convergence-qrm": (("final_shift", "<", 1e-9),),
}


@functools.lru_cache(maxsize=1)
def _gated_reports() -> dict[str, VerificationReport]:
    reports = [*run_all_checks(), qrm_transform_check(IonParams(Omega=0.7, eta=0.3), T64)]
    return {r.name: r for r in reports}


def test_every_report_declares_its_rows_and_passes_iff_all_hold():
    reports = _gated_reports()
    assert {name: r.gates for name, r in reports.items()} == _GATES
    slow = speed_comparison(IonParams(Omega=0.05, eta=0.02))
    for rep in [*reports.values(), slow]:
        assert all(metric in rep.metrics for metric, _, _ in rep.gates), rep.name
        assert rep.passed is rows_hold(rep) is (rep is not slow), rep.name
        payload = rep.to_dict()
        assert payload["passed"] is rep.passed and "gates" not in payload
        assert list(payload) == ["schema_version", "name", "passed", "tolerance", "metrics",
                                 "params", "trunc", "seed", "notes"]


_ROWS = [(name, row) for name, rows in _GATES.items() for row in rows]


@pytest.mark.parametrize("name, row", _ROWS, ids=[f"{n}:{m}{op}" for n, (m, op, _) in _ROWS])
def test_each_row_fails_on_nan_and_flips_one_step_across_its_bound(name, row):
    rep = _gated_reports()[name]
    metric, op, bound = row

    def holds(value, gates=(row,)):
        return rep.replace(metrics={**rep.metrics, metric: value}, gates=gates).passed

    assert not holds(float("nan")) and not holds(float("nan"), rep.gates)
    # the bound itself holds for "<=" and ">=" and fails for "<"
    assert holds(bound) is (op != "<")
    # one step across the bound: outward for "<=" and ">=", inward for "<"
    step = np.nextafter(bound, math.inf if op == "<=" else -math.inf)
    assert holds(step) is (op == "<")
    assert gates_hold({metric: step}, (row,)) is (op == "<")


def test_a_row_naming_an_absent_metric_raises_and_no_rows_give_no_verdict():
    # the first row fails and the second names no metric: still an error, never a verdict
    rep = VerificationReport(name="x", tolerance=0.0, metrics={"a": 1.0},
                             gates=(("a", "<=", 0.0), ("b", "<=", 1.0)))
    for read in (lambda: rep.passed, rep.to_dict):
        with pytest.raises(KeyError, match="'b'"):
            read()
    with pytest.raises(ValueError, match="no gate rows"):
        VerificationReport(name="y", tolerance=0.0, metrics={"a": 1.0}).passed


def _jc_scaled(monkeypatch):
    import ionqrm.analysis as analysis

    good = analysis.h_jc
    monkeypatch.setattr(analysis, "h_jc", lambda p, trunc: 1.01 * good(p, trunc))


def _ajc_replaced_by_jc(monkeypatch):
    import ionqrm.analysis as analysis

    monkeypatch.setattr(analysis, "h_ajc", h_jc)


def _times_warped(monkeypatch):
    import ionqrm.dynamics as dynamics

    good = dynamics._evolve
    monkeypatch.setattr(dynamics, "_evolve",
                        lambda eig, phi, times: good(eig, phi, times**2 / times.max()))


def _qrm_omega_grows_with_the_cutoff(monkeypatch):
    from ionqrm.models import HAMILTONIAN_BUILDERS

    good = HAMILTONIAN_BUILDERS["qrm"]
    monkeypatch.setitem(HAMILTONIAN_BUILDERS, "qrm", lambda p, trunc: good(
        p.replace(Omega=p.Omega * trunc.n_max / 64), trunc))


def _lamb_dicke_ignores_the_phase(monkeypatch):
    import ionqrm.models as models

    good = models.h_lamb_dicke
    monkeypatch.setattr(models, "h_lamb_dicke", lambda p, trunc: good(p.replace(phi_l=0.0), trunc))


def _lamb_dicke_swaps_0_and_pi(monkeypatch):
    import ionqrm.models as models

    good = models.h_lamb_dicke
    monkeypatch.setattr(models, "h_lamb_dicke",
                        lambda p, trunc: good(p.replace(phi_l=math.pi - p.phi_l), trunc))


def _lamb_dicke_at_a_larger_eta(monkeypatch):
    import ionqrm.analysis as analysis

    good = analysis.h_lamb_dicke
    monkeypatch.setattr(analysis, "h_lamb_dicke",
                        lambda p, trunc: good(p.replace(eta=1.05 * p.eta), trunc))


def _chi_off_by_1e9(monkeypatch):
    import ionqrm.analysis as analysis

    good = analysis.derived_couplings
    monkeypatch.setattr(analysis, "derived_couplings",
                        lambda p: (lambda c: c.replace(chi=c.chi * (1 + 1e-9)))(good(p)))


def _regime_deep_strong_on_absolute_g(monkeypatch):
    import ionqrm.analysis as analysis
    import ionqrm.params as params

    # the classifier's own source with the deep-strong test g/nu >= 1 read as g >= 1
    source = inspect.getsource(params.classify_regime)
    assert source.count("g / p.nu >= 1.0") == 1
    namespace = dict(vars(params))
    exec(source.replace("g / p.nu >= 1.0", "g >= 1.0"), namespace)
    monkeypatch.setattr(analysis, "classify_regime", namespace["classify_regime"])


def _unguarded_transform_drops_the_edge_rows(monkeypatch):
    import ionqrm.analysis as analysis

    good = analysis.qrm_transform_check
    monkeypatch.setattr(analysis, "qrm_transform_check", lambda p, trunc, tol: good(
        p, TruncationSpec(trunc.n_max, trunc.guard or 16), tol))


def _dispersive_without_chi(monkeypatch):
    import ionqrm.analysis as analysis

    good = analysis.h_dispersive  # at eta = 0, chi = 0: the null model nu*n + Omega*sigma_z
    monkeypatch.setattr(analysis, "h_dispersive", lambda p, trunc: good(p.replace(eta=0.0), trunc))


def _two_sideband_coupling(monkeypatch):
    import ionqrm.analysis as analysis

    monkeypatch.setattr(analysis, "qrm_coupling", lambda p: p.eta * p.Omega / 2.0)


# row -> (report, one deliberate defect in the code it names). Evolving with exp(+iHt)
# instead is not here: every report still passes under it.
_REPORT_DEFECTS = {
    "jc-rabi": ("jc-rabi", _jc_scaled),
    "ajc-dynamics": ("ajc-dynamics", _ajc_replaced_by_jc),
    "propagator-conservation": ("propagator-conservation", _times_warped),
    "truncation-convergence-qrm": ("truncation-convergence-qrm", _qrm_omega_grows_with_the_cutoff),
    "rotation-diagnostic-phase-ignored": ("rotation-diagnostic", _lamb_dicke_ignores_the_phase),
    "rotation-diagnostic-phases-swapped": ("rotation-diagnostic", _lamb_dicke_swaps_0_and_pi),
    "lamb-dicke-remainder": ("lamb-dicke-remainder", _lamb_dicke_at_a_larger_eta),
    "chi-identity": ("chi-identity", _chi_off_by_1e9),
    "regime-classifier": ("regime-classifier", _regime_deep_strong_on_absolute_g),
    "guard-necessity": ("guard-necessity", _unguarded_transform_drops_the_edge_rows),
    "dispersive-error-scan-chi-zero": ("dispersive-error-scan", _dispersive_without_chi),
    "speed-comparison-two-sideband-g": ("speed-comparison", _two_sideband_coupling),
}
# rows whose report no defect in its subject can fail yet: the fix turns the row red
_FINDINGS = {
    "dispersive-error-scan-chi-zero": "ROADMAP item 3: any O(eta^2) error has order 2, "
                                      "so the null model chi = 0 passes the order gate",
    "speed-comparison-two-sideband-g": "ROADMAP item 9: g = eta*Omega/2 still clears "
                                       "g/nu >= 0.01; the coupling is not measured",
}


@pytest.mark.parametrize("row", [
    pytest.param(row, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                              reason=_FINDINGS[row]))
    if row in _FINDINGS else row
    for row in sorted(_REPORT_DEFECTS)])
def test_each_report_fails_on_a_defect_in_what_it_checks(row, monkeypatch):
    report, defect = _REPORT_DEFECTS[row]
    defect(monkeypatch)
    reports = {r.name: r for r in run_all_checks()}
    assert not reports[report].passed, reports[report].metrics
