"""Executable verification experiments for the engineered Rabi model.

Each experiment returns a :class:`VerificationReport` whose pass flag is
determined solely by the stated tolerance, with every measured quantity in
``metrics``. Random draws always come from a seeded generator recorded in
the report, so reports are deterministic given (params, trunc, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .algebra import (
    annihilation,
    commutator,
    dagger,
    displacement,
    displacement_generator,
    displacement_laguerre,
    interior_block,
    osc_identity,
    spin_tensor_osc,
)
from .models import (
    HAMILTONIAN_BUILDERS,
    h_dispersive,
    h_jc,
    h_ajc,
    h_lamb_dicke,
    h_qrm,
    h_resonant,
    qrm_conjugate,
    rotation_diagnostic,
    small_rotation,
    y_rotation,
)
from .dynamics import block_eigh, fock_state, propagate
from .params import (
    DEFAULT_SEED,
    DEFAULT_TRUNC,
    IonParams,
    Regime,
    RegimeThresholds,
    Tolerances,
    TruncationSpec,
    classify_regime,
    derived_couplings,
    is_sideband_resonant,
)

DEFAULT_TOLERANCES = Tolerances()


@dataclass
class VerificationReport:
    """Outcome of one experiment: metrics, the tolerance used, and a pass flag."""

    name: str
    passed: bool
    tolerance: float
    metrics: dict[str, float] = field(default_factory=dict)
    params: IonParams | None = None
    trunc: TruncationSpec | None = None
    seed: int | None = None
    notes: str = ""

    def to_dict(self) -> dict:
        params = None
        if self.params is not None:
            params = {k: float(v) for k, v in asdict(self.params).items()}
        trunc = None
        if self.trunc is not None:
            trunc = {k: int(v) for k, v in asdict(self.trunc).items()}
        return {
            "schema_version": 1,
            "name": self.name,
            "passed": bool(self.passed),
            "tolerance": float(self.tolerance),
            "metrics": {k: float(v) for k, v in self.metrics.items()},
            "params": params,
            "trunc": trunc,
            "seed": self.seed,
            "notes": self.notes,
        }


def _frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _fit_order(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x).

    Raises ValueError when a y is zero or non-finite: the order is then
    undefined (for example, a remainder that vanishes identically).
    """
    if not all(math.isfinite(y) and y > 0 for y in ys):
        raise ValueError(
            f"scaling order undefined: every norm must be positive and finite, got {list(ys)}"
        )
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def dominant_frequency(times: np.ndarray, signal: np.ndarray, pad_factor: int = 8) -> float:
    """Angular frequency of the dominant spectral line of a uniformly sampled signal.

    Hann-windowed zero-padded FFT with quadratic interpolation around the
    peak bin, which resolves the line well below the bin spacing.
    """
    times = np.asarray(times, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if times.size < 8:
        raise ValueError("need at least 8 samples for a frequency estimate")
    steps = np.diff(times)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=0):
        raise ValueError("dominant_frequency requires a uniform time grid")
    x = (signal - signal.mean()) * np.hanning(signal.size)
    n_fft = pad_factor * signal.size
    spectrum = np.abs(np.fft.rfft(x, n=n_fft))
    k = int(np.argmax(spectrum[1:])) + 1
    if 1 <= k < spectrum.size - 1:
        a, b, c = spectrum[k - 1], spectrum[k], spectrum[k + 1]
        denom = a - 2 * b + c
        shift = 0.5 * (a - c) / denom if denom != 0 else 0.0
    else:
        shift = 0.0
    return float(2.0 * math.pi * (k + shift) / (n_fft * dt))


def operator_algebra_check(
    trunc: TruncationSpec = DEFAULT_TRUNC,
    alphas: tuple[complex, ...] = (0.5, 0.5j, 0.3 + 0.4j, -0.25 - 0.35j),
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Ladder commutator on the interior plus both displacement oracles.

    Checks that the interior of [a, a^dag] is the identity (to rounding),
    that the production displacement (:func:`~ionqrm.algebra.displacement`)
    is unitary and matches the generator exponential on the full matrix
    within the identity tolerance, and that it agrees elementwise with the
    Laguerre closed form on the interior block within the oracle tolerance.
    """
    a = annihilation(trunc)
    comm = interior_block(commutator(a, dagger(a)), trunc)
    comm_dev = float(np.max(np.abs(comm - np.eye(trunc.interior_dim))))

    unit_dev = 0.0
    oracle_dev = 0.0
    gen_dev = 0.0
    eye = np.eye(trunc.n_max)
    for alpha in alphas:
        disp = displacement(alpha, trunc)
        lag = displacement_laguerre(alpha, trunc)
        unit_dev = max(unit_dev, float(np.max(np.abs(disp @ dagger(disp) - eye))))
        oracle_dev = max(
            oracle_dev,
            float(np.max(np.abs(interior_block(disp, trunc) - interior_block(lag, trunc)))),
        )
        gen_dev = max(
            gen_dev, float(np.max(np.abs(disp - displacement_generator(alpha, trunc))))
        )
    passed = (
        comm_dev <= 1e-13
        and unit_dev <= tol.identity
        and gen_dev <= tol.identity
        and oracle_dev <= tol.oracle
    )
    return VerificationReport(
        name="operator-algebra",
        passed=passed,
        tolerance=tol.oracle,
        metrics={
            "commutator_interior_dev": comm_dev,
            "displacement_unitarity_dev": unit_dev,
            "displacement_oracle_dev": oracle_dev,
            "displacement_generator_dev": gen_dev,
        },
        trunc=trunc,
        notes="commutator compared at 1e-13 (rounding of sqrt products); "
        "unitarity at the identity tolerance 1e-10",
    )


def qrm_transform_check(
    p: IonParams,
    trunc: TruncationSpec = DEFAULT_TRUNC,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Interior agreement of the transformed resonant model with the Rabi form.

    Builds Delta = interior(T H T^dag) - interior(H_rabi + constant) and
    passes iff its Frobenius norm is below spectral_tol * interior_dim.
    Requires phi_l = 0 and delta = 0.

    Both sides are taken in the Fock-parity gauge P = diag(i^n), where they
    are exactly real, so the comparison runs in real arithmetic: the
    ``gauged`` form of :func:`~ionqrm.models.h_resonant` feeds
    :func:`~ionqrm.models.qrm_conjugate`, and the Rabi side is the ``gauged``
    :func:`~ionqrm.models.h_qrm` at the interior cutoff
    ``TruncationSpec(interior_dim)``, entry for entry the interior block of
    the one at ``trunc``. P is diagonal and unitary: Delta's Frobenius norm,
    largest entry and diagonal are those of the ungauged difference, up to
    rounding.
    """
    if p.phi_l != 0.0:
        raise ValueError("qrm_transform_check requires phi_l = 0")
    if p.delta != 0.0:
        raise ValueError("qrm_transform_check requires delta = 0")
    transformed = qrm_conjugate(h_resonant(p, trunc, gauged=True), p.eta, trunc)
    constant = p.nu * p.eta**2 / 4.0
    rabi = h_qrm(p, TruncationSpec(trunc.interior_dim), gauged=True)
    shift = transformed - rabi
    delta = shift - constant * np.eye(shift.shape[0])
    diag_dev = float(np.max(np.abs(np.diag(shift) - constant)))
    norm = _frobenius(delta)
    threshold = tol.spectral * trunc.interior_dim
    return VerificationReport(
        name="qrm-transform",
        passed=norm < threshold,
        tolerance=tol.spectral,
        metrics={
            "frobenius_norm": norm,
            "max_entry": float(np.max(np.abs(delta))),
            "diag_offset_dev": diag_dev,
            "threshold": threshold,
        },
        params=p,
        trunc=trunc,
        notes="pass iff ||Delta||_F < tol * (n_max - guard)",
    )


def qrm_transform_property(
    n_draws: int = 50,
    trunc: TruncationSpec = DEFAULT_TRUNC,
    seed: int = DEFAULT_SEED,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Transform identity over seeded random draws of (nu, Omega, eta).

    Draw ranges: nu in [0.5, 2], Omega in [0, 2], eta in [0, 0.6]. Every
    draw must pass the interior Frobenius check and reproduce the diagonal
    offset nu*eta^2/4 within the spectral tolerance.
    """
    rng = np.random.default_rng(seed)
    worst_norm = 0.0
    worst_diag = 0.0
    n_failed = 0
    for _ in range(n_draws):
        p = IonParams(
            nu=float(rng.uniform(0.5, 2.0)),
            Omega=float(rng.uniform(0.0, 2.0)),
            eta=float(rng.uniform(0.0, 0.6)),
        )
        rep = qrm_transform_check(p, trunc, tol)
        worst_norm = max(worst_norm, rep.metrics["frobenius_norm"])
        worst_diag = max(worst_diag, rep.metrics["diag_offset_dev"])
        if not rep.passed or rep.metrics["diag_offset_dev"] > tol.spectral:
            n_failed += 1
    return VerificationReport(
        name="qrm-transform-draws",
        passed=n_failed == 0,
        tolerance=tol.spectral,
        metrics={
            "draws": float(n_draws),
            "failed": float(n_failed),
            "worst_frobenius_norm": worst_norm,
            "worst_diag_offset_dev": worst_diag,
            "threshold": tol.spectral * trunc.interior_dim,
        },
        trunc=trunc,
        seed=seed,
        notes="nu in [0.5,2], Omega in [0,2], eta in [0,0.6]",
    )


def guard_necessity_check(
    p: IonParams | None = None,
    n_max: int = 64,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Demonstrate that the transform identity breaks without a guard band.

    Runs the same comparison at guard = 0 and passes iff the identity FAILS
    there, i.e. the truncation edge pollutes the full-matrix comparison.
    """
    p = p or IonParams(Omega=0.7, eta=0.3)
    if p.eta < 0.3:
        raise ValueError("guard demonstration needs eta >= 0.3")
    bare = TruncationSpec(n_max=n_max, guard=0)
    rep = qrm_transform_check(p, bare, tol)
    edge_norm = rep.metrics["frobenius_norm"]
    threshold = tol.spectral * n_max
    return VerificationReport(
        name="guard-necessity",
        passed=edge_norm >= threshold,
        tolerance=tol.spectral,
        metrics={"edge_norm": edge_norm, "threshold": threshold},
        params=p,
        trunc=bare,
        notes="pass means the guard=0 comparison FAILS, demonstrating edge pollution",
    )


def lamb_dicke_remainder_scan(
    p_base: IonParams | None = None,
    etas: tuple[float, ...] = (0.04, 0.02, 0.01),
    trunc: TruncationSpec | None = None,
    interior_levels: int = 8,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Scaling of the first-order expansion remainder with the Lamb-Dicke parameter.

    On a fixed low-Fock interior the Frobenius norm of
    (h_resonant - h_lamb_dicke) must shrink with measured order >= 1.8 in
    eta (the remainder is second order in the displacement expansion).
    """
    p_base = p_base or IonParams(Omega=0.7, eta=0.0)
    trunc = trunc or TruncationSpec(n_max=64, guard=64 - interior_levels)
    if trunc.interior_dim > interior_levels:
        raise ValueError("guard too small for the requested fixed interior")
    if len(etas) < 2 or any(e <= 0 for e in etas) or any(np.diff(etas) >= 0):
        raise ValueError("etas must be positive and strictly decreasing")
    norms = []
    rel_norms = []
    for eta in etas:
        p = IonParams(Omega=p_base.Omega, eta=eta, nu=p_base.nu, phi_l=p_base.phi_l)
        h_exact = h_resonant(p, trunc)
        norms.append(_frobenius(interior_block(h_exact - h_lamb_dicke(p, trunc), trunc)))
        rel_norms.append(norms[-1] / _frobenius(interior_block(h_exact, trunc)))
    order = _fit_order(list(etas), norms)
    metrics = {f"norm_eta_{e}": n for e, n in zip(etas, norms)}
    metrics["order"] = order
    metrics["relative_order"] = _fit_order(list(etas), rel_norms)
    return VerificationReport(
        name="lamb-dicke-remainder",
        passed=order >= tol.min_scaling_order,
        tolerance=tol.min_scaling_order,
        metrics=metrics,
        params=p_base,
        trunc=trunc,
        notes=f"fixed {trunc.interior_dim}-level interior",
    )


def dispersive_error_scan(
    p_base: IonParams,
    etas: tuple[float, ...] = (0.08, 0.04, 0.02),
    trunc: TruncationSpec = DEFAULT_TRUNC,
    k_lowest: int = 10,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Spectral error of the dispersive reduction against the conjugated Rabi model.

    For each eta the Rabi Hamiltonian is conjugated by the two small
    rotations and its lowest eigenvalues are compared (sorted) with the
    diagonal dispersive Hamiltonian; the scan fits the scaling order of the
    error in eta and passes iff it reaches min_scaling_order. Raises before
    computing when a small-rotation angle exceeds max_small_rotation (the
    first-order premise breaks near the 2*Omega = nu pole).
    """
    if len(etas) < 2 or any(e <= 0 for e in etas) or any(np.diff(etas) >= 0):
        raise ValueError("etas must be positive and strictly decreasing")
    if k_lowest < 1 or k_lowest > 2 * trunc.interior_dim:
        raise ValueError("k_lowest outside the interior spectrum")
    for eta in etas:
        p = IonParams(Omega=p_base.Omega, eta=eta, nu=p_base.nu)
        cpl = derived_couplings(p)
        if max(abs(cpl.eps_counter), abs(cpl.eps_co)) > tol.max_small_rotation:
            raise ValueError(
                f"small-rotation angle {max(abs(cpl.eps_counter), abs(cpl.eps_co)):.3g} "
                f"exceeds {tol.max_small_rotation} at eta={eta}; too close to the "
                "2*Omega = nu pole"
            )
    distances = []
    for eta in etas:
        p = IonParams(Omega=p_base.Omega, eta=eta, nu=p_base.nu)
        cpl = derived_couplings(p)
        u_counter = small_rotation("counter", cpl.eps_counter, trunc)
        u_co = small_rotation("co", cpl.eps_co, trunc)
        h = h_qrm(p, trunc, include_constant=True)
        conj = u_co @ u_counter @ h @ dagger(u_counter) @ dagger(u_co)
        w_full = block_eigh(conj, vectors=False).eigenvalues[:k_lowest]
        w_disp = block_eigh(h_dispersive(p, trunc), vectors=False).eigenvalues[:k_lowest]
        distances.append(float(np.max(np.abs(w_full - w_disp))))
    order = _fit_order(list(etas), distances)
    metrics = {f"distance_eta_{e}": d for e, d in zip(etas, distances)}
    metrics["order"] = order
    metrics["k_lowest"] = float(k_lowest)
    return VerificationReport(
        name="dispersive-error-scan",
        passed=order >= tol.min_scaling_order,
        tolerance=tol.min_scaling_order,
        metrics=metrics,
        params=p_base,
        trunc=trunc,
        notes="sorted lowest interior eigenvalues; order fit of log(distance) vs log(eta)",
    )


def chi_identity_check(
    n_draws: int = 100,
    seed: int = DEFAULT_SEED,
    rtol: float = 1e-12,
) -> VerificationReport:
    """Algebraic cross-check chi = nu*eta*(eps_counter + eps_co).

    Equivalently chi = 2*g*(eps_counter + eps_co) with g = eta*nu/2; holds
    exactly for every parameter set away from the sideband pole.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    count = 0
    while count < n_draws:
        nu = float(rng.uniform(0.5, 2.0))
        omega = float(rng.uniform(0.05, 2.0))
        if abs(2 * omega - nu) < 0.05:
            continue
        eta = float(rng.uniform(0.01, 1.0))
        cpl = derived_couplings(IonParams(Omega=omega, eta=eta, nu=nu))
        lhs = cpl.chi
        rhs = nu * eta * (cpl.eps_counter + cpl.eps_co)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
        count += 1
    return VerificationReport(
        name="chi-identity",
        passed=worst <= rtol,
        tolerance=rtol,
        metrics={"draws": float(n_draws), "worst_relative_dev": worst},
        seed=seed,
        notes="chi = nu*eta*(eps_counter+eps_co) = 2*g*(eps_counter+eps_co)",
    )


def jc_rabi_experiment(
    p: IonParams,
    n0: int = 0,
    trunc: TruncationSpec = TruncationSpec(n_max=32, guard=8),
    periods: int = 8,
    points_per_period: int = 64,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Sideband Rabi oscillations: JC interaction against the full model.

    Evolves |e,n0> under (i) the bare JC interaction and (ii) the full
    first-order model rotated into its Rabi frame, then extracts the
    dominant oscillation frequency of P_e from each run. Population records
    are invariant under the diagonal interaction-picture phases, so plain
    evolution under the rotated Hamiltonian measures the same line.

    The analytic population frequency is 2*eta*Omega*sqrt(n0+1) (twice the
    amplitude Rabi rate). Pass requires the full-model line within
    jc_freq_rtol of that value and the JC run to match its closed-form
    cos^2 oracle pointwise at 1e-8.
    """
    if not is_sideband_resonant(p):
        raise ValueError("jc_rabi_experiment requires the resonance nu = 2*Omega")
    if p.phi_l != 0.0:
        raise ValueError("jc_rabi_experiment uses the phi_l = 0 branch")
    if p.eta <= 0 or p.Omega <= 0:
        raise ValueError("eta and Omega must be positive for an oscillation frequency")
    if n0 >= trunc.n_max - trunc.guard:
        raise ValueError(f"n0={n0} reaches into the guard band")

    rabi_rate = p.eta * p.Omega * math.sqrt(n0 + 1)
    freq_analytic = 2.0 * rabi_rate
    period = 2.0 * math.pi / freq_analytic
    times = np.linspace(0.0, periods * period, periods * points_per_period, endpoint=False)
    psi0 = fock_state("e", n0, trunc)

    run_jc = propagate(h_jc(p, trunc), psi0, times)
    oracle = np.cos(rabi_rate * times) ** 2
    pointwise_dev = float(np.max(np.abs(run_jc.p_excited - oracle)))
    freq_jc = dominant_frequency(times, run_jc.p_excited)

    rot = spin_tensor_osc(y_rotation("standard"), osc_identity(trunc))
    h_full = rot @ h_lamb_dicke(p, trunc) @ dagger(rot)
    run_full = propagate(h_full, psi0, times)
    freq_full = dominant_frequency(times, run_full.p_excited)

    rel_dev_full = abs(freq_full - freq_analytic) / freq_analytic
    rel_dev_jc = abs(freq_jc - freq_analytic) / freq_analytic
    passed = rel_dev_full <= tol.jc_freq_rtol and pointwise_dev <= 1e-8
    return VerificationReport(
        name="jc-rabi",
        passed=passed,
        tolerance=tol.jc_freq_rtol,
        metrics={
            "freq_analytic": freq_analytic,
            "freq_jc": freq_jc,
            "freq_full": freq_full,
            "rel_dev_jc": rel_dev_jc,
            "rel_dev_full": rel_dev_full,
            "jc_pointwise_dev": pointwise_dev,
            "lamb_dicke_warning": float(p.eta > 0.1),
        },
        params=p,
        trunc=trunc,
        notes="population frequency convention: twice the amplitude Rabi rate",
    )


def ajc_dynamics_check(
    p: IonParams,
    trunc: TruncationSpec = TruncationSpec(n_max=32, guard=8),
    periods: int = 4,
    points_per_period: int = 64,
) -> VerificationReport:
    """Anti-JC oscillation |g,0> <-> |e,1> against its two-level oracle.

    P_e(t) must equal sin^2(eta*Omega*t) pointwise at 1e-8; the same state
    is dark under the JC interaction, which is checked alongside.
    """
    if p.eta <= 0 or p.Omega <= 0:
        raise ValueError("eta and Omega must be positive for an oscillation")
    rate = p.eta * p.Omega
    period = math.pi / rate
    times = np.linspace(0.0, periods * period, periods * points_per_period, endpoint=False)
    psi0 = fock_state("g", 0, trunc)
    run = propagate(h_ajc(p, trunc), psi0, times)
    dev = float(np.max(np.abs(run.p_excited - np.sin(rate * times) ** 2)))
    dark = propagate(h_jc(p, trunc), psi0, times)
    dark_dev = float(np.max(dark.p_excited))
    return VerificationReport(
        name="ajc-dynamics",
        passed=dev <= 1e-8 and dark_dev <= 1e-12,
        tolerance=1e-8,
        metrics={"pointwise_dev": dev, "jc_dark_state_dev": dark_dev},
        params=p,
        trunc=trunc,
    )


def truncation_convergence(
    builder: str,
    p: IonParams,
    n_list: tuple[int, ...] = (16, 32, 64),
    k_lowest: int = 8,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Convergence of the lowest eigenvalues with the Fock cutoff.

    Diagonalizes the named Hamiltonian at each cutoff and reports the
    successive max eigenvalue shifts; passes iff the final shift is below
    the convergence tolerance.
    """
    if builder not in HAMILTONIAN_BUILDERS:
        raise ValueError(f"unknown builder {builder!r}")
    if len(n_list) < 2 or any(np.diff(n_list) <= 0):
        raise ValueError("n_list must be strictly increasing with >= 2 entries")
    if k_lowest < 1 or 2 * n_list[0] < k_lowest:
        raise ValueError("k_lowest exceeds the smallest space")
    build = HAMILTONIAN_BUILDERS[builder]
    prev = None
    shifts: list[float] = []
    for n_max in n_list:
        h = build(p, TruncationSpec(n_max=n_max))
        w = block_eigh(h, vectors=False).eigenvalues[:k_lowest]
        if prev is not None:
            shifts.append(float(np.max(np.abs(w - prev))))
        prev = w
    metrics = {
        f"shift_{a}_to_{b}": s for (a, b), s in zip(zip(n_list[:-1], n_list[1:]), shifts)
    }
    metrics["final_shift"] = shifts[-1]
    metrics["k_lowest"] = float(k_lowest)
    return VerificationReport(
        name=f"truncation-convergence-{builder}",
        passed=shifts[-1] < tol.convergence,
        tolerance=tol.convergence,
        metrics=metrics,
        params=p,
        notes=f"n_list={list(n_list)}",
    )


def speed_comparison(
    p: IonParams,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Coupling-scale ratios and the characteristic gate time of the scheme.

    Reports g/nu, Omega/nu and, when the coupling is nonzero, the gate time
    2*pi/g in units of 1/nu. Flagged fast iff g/nu >= fast_min_g_ratio and
    Omega/nu >= fast_min_omega_ratio (the single-beam scheme reaches
    couplings of the order of the trap frequency).
    """
    g = p.eta * p.nu / 2.0
    metrics = {"g_ratio": g / p.nu, "omega_ratio": p.Omega / p.nu}
    if g > 0:
        metrics["gate_time"] = 2.0 * math.pi / g * p.nu  # in units of 1/nu
    fast = (
        metrics["g_ratio"] >= tol.fast_min_g_ratio
        and metrics["omega_ratio"] >= tol.fast_min_omega_ratio
    )
    return VerificationReport(
        name="speed-comparison",
        passed=fast,
        tolerance=tol.fast_min_g_ratio,
        metrics=metrics,
        params=p,
        notes="pass flag means 'fast'; gate_time omitted when g = 0",
    )


def regime_check(
    n_draws: int = 100,
    seed: int = DEFAULT_SEED,
    thresholds: RegimeThresholds | None = None,
) -> VerificationReport:
    """Fixture labels plus scale invariance of the regime classifier.

    The three fixture points must classify as JC-resonant, decoupling and
    deep-strong; over seeded random draws, rescaling nu and Omega by a
    common positive factor (eta fixed) must never change the label.
    """
    t = thresholds or RegimeThresholds()
    fixtures = [
        (IonParams(Omega=0.5, eta=0.02, nu=1.0), Regime.JC_RESONANT),
        (IonParams(Omega=0.0005, eta=0.2, nu=1.0), Regime.DECOUPLING),
        (IonParams(Omega=1.0, eta=2.5, nu=1.0), Regime.DEEP_STRONG),
    ]
    fixture_failures = sum(
        1 for p, expected in fixtures if classify_regime(p, t) is not expected
    )
    rng = np.random.default_rng(seed)
    invariance_failures = 0
    for _ in range(n_draws):
        p = IonParams(
            nu=float(rng.uniform(0.1, 10.0)),
            Omega=float(rng.uniform(0.0, 3.0)),
            eta=float(rng.uniform(0.0, 3.0)),
            phi_l=float(rng.choice([0.0, math.pi])),
        )
        scale = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        scaled = IonParams(
            nu=p.nu * scale, Omega=p.Omega * scale, eta=p.eta, phi_l=p.phi_l
        )
        if classify_regime(p, t) is not classify_regime(scaled, t):
            invariance_failures += 1
    passed = fixture_failures == 0 and invariance_failures == 0
    return VerificationReport(
        name="regime-classifier",
        passed=passed,
        tolerance=0.0,
        metrics={
            "fixture_failures": float(fixture_failures),
            "invariance_failures": float(invariance_failures),
            "draws": float(n_draws),
        },
        seed=seed,
    )


def rotation_diagnostic_check(
    p: IonParams | None = None,
    trunc: TruncationSpec = TruncationSpec(n_max=32, guard=8),
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Report which sigma_y convention reproduces the rotated Rabi form.

    Passes iff at least one (convention, phase) combination matches a Rabi
    form exactly at the identity tolerance; all measured distances are kept
    as metrics so the convention question stays decided by numbers.
    """
    p = p or IonParams(Omega=0.7, eta=0.2)
    metrics = rotation_diagnostic(p, trunc)
    best = min(v for k, v in metrics.items() if k.endswith(("_to_minus", "_to_plus")))
    metrics["best_distance"] = best
    return VerificationReport(
        name="rotation-diagnostic",
        passed=best <= tol.identity,
        tolerance=tol.identity,
        metrics=metrics,
        params=p,
        trunc=trunc,
        notes="standard convention maps phi_l=pi onto the minus-sign Rabi form "
        "and phi_l=0 onto the plus-sign form",
    )


def propagator_conservation_check(
    p: IonParams | None = None,
    trunc: TruncationSpec = TruncationSpec(n_max=32, guard=8),
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Norm and energy conservation plus the composition property.

    Runs the JC and anti-JC trajectories used by the dynamics checks,
    requiring |norm - 1| < 1e-10 and |<H>(t) - <H>(0)| < 1e-9 * ||H||_F at
    every record, and verifies that splitting the evolution at a random
    intermediate time reproduces the direct evolution within 1e-10.
    """
    p = p or IonParams(Omega=0.5, eta=0.02)
    rng = np.random.default_rng(seed)
    rate = p.eta * p.Omega
    times = np.linspace(0.0, 4.0 * math.pi / rate, 512)
    worst_norm = 0.0
    worst_energy = 0.0
    runs = []
    for h, spin in ((h_jc(p, trunc), "e"), (h_ajc(p, trunc), "g")):
        psi0 = fock_state(spin, 0, trunc)
        run = propagate(h, psi0, times, store_states=True)
        runs.append((h, psi0, run.states))
        worst_norm = max(worst_norm, float(np.max(run.norm_residual)))
        energies = np.einsum("td,td->t", run.states.conj(), run.states @ h.T).real
        h_scale = float(np.linalg.norm(h))
        worst_energy = max(worst_energy, float(np.max(np.abs(energies - energies[0]))) / h_scale)
    # composition across a random split point, against the JC run above
    h, psi0, direct = runs[0]
    split = int(rng.integers(1, times.size - 1))
    first = propagate(h, psi0, times[: split + 1], store_states=True).states
    resumed = propagate(
        h, first[-1], times[split:] - times[split], store_states=True
    ).states
    comp_dev = float(np.max(np.abs(resumed - direct[split:])))
    passed = worst_norm < 1e-10 and worst_energy < 1e-9 and comp_dev < 1e-10
    return VerificationReport(
        name="propagator-conservation",
        passed=passed,
        tolerance=1e-10,
        metrics={
            "worst_norm_residual": worst_norm,
            "worst_energy_drift_rel": worst_energy,
            "composition_dev": comp_dev,
            "split_index": float(split),
        },
        params=p,
        trunc=trunc,
        seed=seed,
    )


def run_all_checks(
    trunc: TruncationSpec = DEFAULT_TRUNC,
    seed: int = DEFAULT_SEED,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[VerificationReport]:
    """Run the full verification suite in order and return every report."""
    p_ref = IonParams(Omega=0.7, eta=0.3)
    p_res = IonParams(Omega=0.5, eta=0.02)
    return [
        operator_algebra_check(trunc, tol=tol),
        qrm_transform_property(50, trunc, seed=seed, tol=tol),
        guard_necessity_check(p_ref, n_max=trunc.n_max, tol=tol),
        lamb_dicke_remainder_scan(IonParams(Omega=0.7, eta=0.0), tol=tol),
        jc_rabi_experiment(p_res, 0, tol=tol),
        ajc_dynamics_check(p_res),
        dispersive_error_scan(IonParams(Omega=1.0, eta=0.08), trunc=trunc, tol=tol),
        chi_identity_check(100, seed=seed),
        regime_check(100, seed=seed),
        propagator_conservation_check(p_res, seed=seed),
        rotation_diagnostic_check(tol=tol),
        speed_comparison(p_ref, tol=tol),
        truncation_convergence("qrm", p_ref),
    ]
