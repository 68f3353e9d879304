"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all;
failures surface the line in the captured output regardless).
"""
import json

import numpy as np

from ionqrm import (
    IonParams,
    TruncationSpec,
    annihilation,
    chi_identity_check,
    commutator,
    dagger,
    dispersive_error_scan,
    displacement_generator,
    displacement_laguerre,
    emit_config,
    fock_state,
    guard_necessity_check,
    h_ajc,
    h_jc,
    interior_block,
    jc_rabi_experiment,
    parse_config,
    propagate,
    qrm_transform_check,
    regime_check,
    lamb_dicke_remainder_scan,
)
from ionqrm.cli import EXIT_OK, main

T64 = TruncationSpec(n_max=64, guard=16)


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {suffix}"


def test_criterion_01_operator_algebra():
    a = annihilation(T64)
    comm_dev = np.max(
        np.abs(interior_block(commutator(a, dagger(a)), T64) - np.eye(T64.interior_dim))
    )
    unit_dev = 0.0
    oracle_dev = 0.0
    for alpha in (0.5, 0.5j, 0.3 + 0.4j, -0.25 - 0.35j, 0.1 - 0.45j):
        assert abs(alpha) <= 0.5
        gen = displacement_generator(alpha, T64)
        lag = displacement_laguerre(alpha, T64)
        unit_dev = max(unit_dev, np.max(np.abs(gen @ dagger(gen) - np.eye(64))))
        oracle_dev = max(
            oracle_dev,
            np.max(np.abs(interior_block(gen, T64) - interior_block(lag, T64))),
        )
    ok = comm_dev < 1e-13 and unit_dev <= 1e-10 and oracle_dev <= 1e-9
    _criterion(
        1,
        "interior [a,a+]=I, displacement unitary at 1e-10 and oracle-matched at 1e-9",
        ok,
        f"comm={comm_dev:.2e} unit={unit_dev:.2e} oracle={oracle_dev:.2e}",
    )


def test_criterion_02_central_identity_over_50_draws():
    rng = np.random.default_rng(2024)
    worst_norm = 0.0
    worst_diag = 0.0
    for _ in range(50):
        p = IonParams(
            nu=float(rng.uniform(0.5, 2.0)),
            Omega=float(rng.uniform(0.0, 2.0)),
            eta=float(rng.uniform(0.0, 0.6)),
        )
        rep = qrm_transform_check(p, T64)
        worst_norm = max(worst_norm, rep.metrics["frobenius_norm"])
        worst_diag = max(worst_diag, rep.metrics["diag_offset_dev"])
    ok = worst_norm < 1e-8 * T64.interior_dim and worst_diag < 1e-8
    _criterion(
        2,
        "transform identity at 1e-8*(interior dim) over 50 draws, diagonal offset nu*eta^2/4",
        ok,
        f"worst_norm={worst_norm:.2e} worst_diag={worst_diag:.2e}",
    )


def test_criterion_03_guard_necessity():
    rep = guard_necessity_check(IonParams(Omega=0.7, eta=0.3), n_max=64)
    _criterion(
        3,
        "the same identity FAILS at guard=0 for eta=0.3",
        rep.passed,
        f"edge_norm={rep.metrics['edge_norm']:.3e} vs threshold={rep.metrics['threshold']:.1e}",
    )


def test_criterion_04_lamb_dicke_remainder_order():
    rep = lamb_dicke_remainder_scan(
        IonParams(Omega=0.7, eta=0.0), etas=(0.04, 0.02, 0.01)
    )
    _criterion(
        4,
        "Lamb-Dicke remainder order >= 1.8 on an 8-level interior",
        rep.passed and rep.metrics["order"] >= 1.8,
        f"order={rep.metrics['order']:.3f}",
    )


def test_criterion_05_jc_dynamics():
    p = IonParams(Omega=0.5, eta=0.02)
    trunc = TruncationSpec(n_max=32, guard=8)
    times = np.linspace(0.0, 4 * np.pi / (p.eta * p.Omega), 2048, endpoint=False)
    run = propagate(h_jc(p, trunc), fock_state("e", 0, trunc), times)
    pointwise = float(np.max(np.abs(run.p_excited - np.cos(p.eta * p.Omega * times) ** 2)))
    rep = jc_rabi_experiment(p, n0=0, trunc=trunc)
    ok = pointwise <= 1e-8 and rep.metrics["rel_dev_full"] <= 0.05
    _criterion(
        5,
        "JC P_e matches cos^2 at 1e-8; full-model Rabi line within 5%",
        ok,
        f"pointwise={pointwise:.2e} rel_dev_full={rep.metrics['rel_dev_full']:.2e}",
    )


def test_criterion_06_ajc_dynamics():
    p = IonParams(Omega=0.5, eta=0.02)
    trunc = TruncationSpec(n_max=32, guard=8)
    times = np.linspace(0.0, 4 * np.pi / (p.eta * p.Omega), 2048, endpoint=False)
    run = propagate(h_ajc(p, trunc), fock_state("g", 0, trunc), times)
    pointwise = float(np.max(np.abs(run.p_excited - np.sin(p.eta * p.Omega * times) ** 2)))
    _criterion(
        6,
        "AJC |g,0> oscillation matches its two-level oracle at 1e-8",
        pointwise <= 1e-8,
        f"pointwise={pointwise:.2e}",
    )


def test_criterion_07_dispersive_reduction():
    scan = dispersive_error_scan(
        IonParams(Omega=1.0, eta=0.08), etas=(0.08, 0.04, 0.02), trunc=T64, k_lowest=10
    )
    chi = chi_identity_check(seed=2024)
    ok = scan.metrics["order"] >= 1.8 and chi.passed and chi.metrics["draws"] == 100
    _criterion(
        7,
        "dispersive scan order >= 1.8 and chi identity at 1e-12 over 100 draws",
        ok,
        f"order={scan.metrics['order']:.3f} chi_dev={chi.metrics['worst_relative_dev']:.1e}",
    )


def test_criterion_08_regime_classifier():
    rep = regime_check(seed=2024)
    _criterion(
        8,
        "regime fixtures classify as listed; labels scale-invariant over 100 draws",
        rep.passed,
        f"fixture_failures={rep.metrics['fixture_failures']:.0f} "
        f"invariance_failures={rep.metrics['invariance_failures']:.0f}",
    )


def test_criterion_09_propagator_conservation():
    p = IonParams(Omega=0.5, eta=0.02)
    trunc = TruncationSpec(n_max=32, guard=8)
    rng = np.random.default_rng(2024)
    times = np.linspace(0.0, 4 * np.pi / (p.eta * p.Omega), 1024)
    worst_norm = 0.0
    worst_energy = 0.0
    for h, spin in ((h_jc(p, trunc), "e"), (h_ajc(p, trunc), "g")):
        run = propagate(h, fock_state(spin, 0, trunc), times, store_states=True)
        worst_norm = max(worst_norm, float(np.max(run.norm_residual)))
        energy = np.einsum("td,dk,tk->t", run.states.conj(), h, run.states).real
        worst_energy = max(
            worst_energy, float(np.max(np.abs(energy - energy[0]))) / np.linalg.norm(h)
        )
    h = h_jc(p, trunc)
    psi0 = fock_state("e", 0, trunc)
    split = int(rng.integers(1, times.size - 1))
    direct = propagate(h, psi0, times, store_states=True).states
    part = propagate(h, psi0, times[: split + 1], store_states=True).states
    resumed = propagate(h, part[-1], times[split:] - times[split], store_states=True).states
    comp = float(np.max(np.abs(resumed - direct[split:])))
    ok = worst_norm < 1e-10 and worst_energy < 1e-9 and comp < 1e-10
    _criterion(
        9,
        "norm (1e-10) and energy (1e-9 rel) conserved; composition over a random split",
        ok,
        f"norm={worst_norm:.1e} energy={worst_energy:.1e} composition={comp:.1e}",
    )


def test_criterion_10_cli(tmp_path, capsys):
    # config round-trip over 100 random valid configs
    from test_config import _random_config_text

    rng = np.random.default_rng(4096)
    round_trip_ok = True
    for _ in range(100):
        cfg = parse_config(_random_config_text(rng))
        if parse_config(emit_config(cfg)) != cfg:
            round_trip_ok = False
            break

    # byte-identical evolve re-run on a fixed config
    config = tmp_path / "fixed.cfg"
    config.write_text(
        "command = evolve\nOmega = 0.5\neta = 0.05\nevolve.t_max = 40.0\n"
        "evolve.samples = 101\n"
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    rc_a = main(["evolve", "--config", str(config), "--out", str(out_a)])
    rc_b = main(["evolve", "--config", str(config), "--out", str(out_b)])
    bytes_ok = rc_a == rc_b == EXIT_OK and out_a.read_bytes() == out_b.read_bytes()

    # all-checks exits 0 with every report green
    summary_path = tmp_path / "summary.json"
    rc = main(
        ["all-checks", "--set", "Omega=0.7", "--set", "eta=0.3", "--out", str(summary_path)]
    )
    capsys.readouterr()
    summary = json.loads(summary_path.read_text())
    checks_ok = rc == EXIT_OK and summary["passed"] is True

    _criterion(
        10,
        "config round-trip (100 draws), byte-identical evolve re-run, all-checks exit 0",
        round_trip_ok and bytes_ok and checks_ok,
        f"round_trip={round_trip_ok} bytes={bytes_ok} all_checks={checks_ok}",
    )
