"""Executable verification experiments for the engineered Rabi model.

Each experiment returns a :class:`VerificationReport` whose pass flag is
derived from its declared gate rows, with every measured quantity in
``metrics``. Random draws always come from a seeded stream recorded in the
report, so reports are deterministic given (params, trunc, seed); the stream is
``np.random.default_rng(seed)``'s, drawn without loading ``numpy.random``.
"""
from __future__ import annotations

import math
import operator

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
    SCHEMA_VERSION,
    IonParams,
    Record,
    Regime,
    Tolerances,
    TruncationSpec,
    classify_regime,
    derived_couplings,
    is_sideband_resonant,
    laser_phase_sign,
    qrm_coupling,
    transform_offset,
)

_COMPARISONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge}
# the parameter points run_all_checks reads: the reference point of the guard, speed and
# truncation checks, and the sideband resonance nu = 2*Omega of the dynamics checks
_REFERENCE_POINT = IonParams(Omega=0.7, eta=0.3)
_RESONANT_POINT = IonParams(Omega=0.5, eta=0.02)

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _SeededStream:
    """The draws of ``np.random.default_rng(seed)`` that the checks make, bit for bit,
    without loading ``numpy.random``.

    numpy's SeedSequence mixes the seed's 32-bit words (least significant first) into
    a pool of four and hashes that pool into PCG64's 128-bit state and increment; each
    64-bit draw steps the state and outputs its XSL-RR value (O'Neill,
    HMC-CS-2014-0905, 2014). NEP 19 keeps these bit streams stable across numpy
    releases; the three call forms below follow numpy 2's ``Generator``.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
        hash_const = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * 0x931E8875 & _MASK32
            value = value * hash_const & _MASK32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return result ^ result >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): eight 32-bit words, paired low word first
        hash_const, state = 0x8B51F9DD, 0
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * 0x58F38DED & _MASK32
            value = value * hash_const & _MASK32
            state |= (value ^ value >> 16) << (32 * (i & 1) + 64 * (3 - i // 2))
        # PCG's srandom: the high 128 bits of state are the initial state, the low
        # 128 the sequence that sets the increment
        self._inc = (state << 1 | 1) & _MASK128
        self._state = (self._inc + (state >> 128)) * _PCG64_MULT + self._inc & _MASK128
        self._half: int | None = None  # the high half of a 64-bit draw split by _next32

    def _next64(self) -> int:
        self._state = self._state * _PCG64_MULT + self._inc & _MASK128
        x, rot = (self._state >> 64 ^ self._state) & _MASK64, self._state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def uniform(self, lo: float, hi: float) -> float:
        """``Generator.uniform(lo, hi)``: lo + (hi - lo) times a 53-bit fraction."""
        return lo + (hi - lo) * ((self._next64() >> 11) * 2.0**-53)

    def integers(self, lo: int, hi: int) -> int:
        """``Generator.integers(lo, hi)`` (hi excluded) for 1 <= hi - lo < 2**32: Lemire's
        bounded method (arXiv:1805.10941) on 32-bit draws."""
        n = hi - lo
        if not 1 <= n < 1 << 32:
            raise ValueError(f"integers({lo}, {hi}) needs 1 <= hi - lo < 2**32")
        if n == 1:
            return lo
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = (1 << 32) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return lo + (m >> 32)


def gates_hold(metrics: dict[str, float], gates) -> bool:
    """True iff every ``(metric, comparison, bound)`` row holds over ``metrics``.

    A row holds only when its comparison is True, so a NaN fails every row. Every row
    is read: one naming an absent metric raises KeyError, and no rows raise ValueError.
    """
    if not gates:
        raise ValueError("no gate rows: the report has no verdict")
    return all([_COMPARISONS[op](metrics[name], bound) for name, op, bound in gates])


class VerificationReport(Record):
    """Outcome of one experiment: metrics, the tolerance used, and the gate rows
    ``(metric, comparison, bound)`` that derive its pass flag (not serialized)."""

    name: str
    tolerance: float
    gates: tuple[tuple[str, str, float], ...] = ()
    metrics: dict[str, float] = {}
    params: IonParams | None = None
    trunc: TruncationSpec | None = None
    seed: int | None = None
    notes: str = ""

    @property
    def passed(self) -> bool:
        return gates_hold(self.metrics, self.gates)

    def to_dict(self) -> dict:
        params = None
        if self.params is not None:
            params = {k: float(v) for k, v in self.params.asdict().items()}
        trunc = None
        if self.trunc is not None:
            trunc = {k: int(v) for k, v in self.trunc.asdict().items()}
        return {
            "schema_version": SCHEMA_VERSION,
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


def dominant_frequency(times: np.ndarray, signal: np.ndarray) -> float:
    """Angular frequency of the dominant spectral line of a uniformly sampled signal.

    Hann-windowed FFT zero-padded to 8 times the signal length, with
    quadratic interpolation around the peak bin, which resolves the line
    well below the bin spacing.
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
    n_fft = 8 * signal.size
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
    tol: Tolerances = Tolerances(),
) -> VerificationReport:
    """Ladder commutator on the interior plus both displacement oracles.

    Checks that the interior of [a, a^dag] is the identity (to rounding),
    that the production displacement (:func:`~ionqrm.algebra.displacement`)
    at each of the four displacements 0.5, 0.5i, 0.3+0.4i and -0.25-0.35i
    is unitary and matches the generator exponential on the full matrix
    within the identity tolerance, and that it agrees elementwise with the
    Laguerre closed form on the interior block within the oracle tolerance.
    """
    a = annihilation(trunc)
    comm = interior_block(commutator(a, dagger(a)), trunc)
    comm_dev = float(np.max(np.abs(comm - np.eye(trunc.interior_dim))))

    unit_devs, oracle_devs, gen_devs = [], [], []
    eye = np.eye(trunc.n_max)
    for alpha in (0.5, 0.5j, 0.3 + 0.4j, -0.25 - 0.35j):
        disp = displacement(alpha, trunc)
        lag = displacement_laguerre(alpha, trunc)
        unit_devs.append(np.max(np.abs(disp @ dagger(disp) - eye)))
        oracle_devs.append(np.max(np.abs(interior_block(disp, trunc) - interior_block(lag, trunc))))
        gen_devs.append(np.max(np.abs(disp - displacement_generator(alpha, trunc))))
    # np.max keeps a NaN, which then fails every gate row
    return VerificationReport(
        name="operator-algebra",
        gates=(("commutator_interior_dev", "<=", 1e-13),
               ("displacement_unitarity_dev", "<=", tol.identity),
               ("displacement_generator_dev", "<=", tol.identity),
               ("displacement_oracle_dev", "<=", tol.oracle)),
        tolerance=tol.oracle,
        metrics={
            "commutator_interior_dev": comm_dev,
            "displacement_unitarity_dev": float(np.max(unit_devs)),
            "displacement_oracle_dev": float(np.max(oracle_devs)),
            "displacement_generator_dev": float(np.max(gen_devs)),
        },
        trunc=trunc,
        notes="commutator compared at 1e-13 (rounding of sqrt products); "
        f"unitarity at the identity tolerance {tol.identity!r}",
    )


def qrm_transform_check(
    p: IonParams,
    trunc: TruncationSpec = DEFAULT_TRUNC,
    tol: Tolerances = Tolerances(),
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
    if laser_phase_sign(p.phi_l) != 1.0:
        raise ValueError("qrm_transform_check requires phi_l = 0")
    if p.delta != 0.0:
        raise ValueError("qrm_transform_check requires delta = 0")
    transformed = qrm_conjugate(h_resonant(p, trunc, gauged=True), p.eta, trunc)
    constant = transform_offset(p)
    rabi = h_qrm(p, TruncationSpec(trunc.interior_dim), gauged=True)
    shift = transformed - rabi
    delta = shift - constant * np.eye(shift.shape[0])
    diag_dev = float(np.max(np.abs(np.diag(shift) - constant)))
    norm = _frobenius(delta)
    threshold = tol.spectral * trunc.interior_dim
    return VerificationReport(
        name="qrm-transform",
        gates=(("frobenius_norm", "<", threshold),),
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
    tol: Tolerances = Tolerances(),
) -> VerificationReport:
    """Transform identity over seeded random draws of (nu, Omega, eta).

    Draw ranges: nu in [0.5, 2], Omega in [0, 2], eta in [0, 0.6]. Every
    draw must pass the interior Frobenius check and reproduce the diagonal
    offset nu*eta^2/4 within the spectral tolerance.
    """
    rng = _SeededStream(seed)
    norms, diags = [], []
    n_failed = 0
    for _ in range(n_draws):
        p = IonParams(
            nu=rng.uniform(0.5, 2.0),
            Omega=rng.uniform(0.0, 2.0),
            eta=rng.uniform(0.0, 0.6),
        )
        rep = qrm_transform_check(p, trunc, tol)
        norms.append(rep.metrics["frobenius_norm"])
        diags.append(rep.metrics["diag_offset_dev"])
        if not gates_hold(rep.metrics, (*rep.gates, ("diag_offset_dev", "<=", tol.spectral))):
            n_failed += 1
    return VerificationReport(
        name="qrm-transform-draws",
        gates=(("failed", "<=", 0.0),),
        tolerance=tol.spectral,
        metrics={
            "draws": float(n_draws),
            "failed": float(n_failed),
            "worst_frobenius_norm": float(np.max(norms, initial=0.0)),
            "worst_diag_offset_dev": float(np.max(diags, initial=0.0)),
            "threshold": tol.spectral * trunc.interior_dim,
        },
        trunc=trunc,
        seed=seed,
        notes="nu in [0.5,2], Omega in [0,2], eta in [0,0.6]",
    )


def guard_necessity_check(
    p: IonParams = _REFERENCE_POINT,
    n_max: int = 64,
    tol: Tolerances = Tolerances(),
) -> VerificationReport:
    """Demonstrate that the transform identity breaks without a guard band.

    Runs the same comparison at guard = 0 and passes iff the identity FAILS
    there, i.e. the truncation edge pollutes the full-matrix comparison.
    """
    if p.eta < 0.3:
        raise ValueError("guard demonstration needs eta >= 0.3")
    bare = TruncationSpec(n_max=n_max, guard=0)
    edge_norm = qrm_transform_check(p, bare, tol).metrics["frobenius_norm"]
    threshold = tol.spectral * n_max
    return VerificationReport(
        name="guard-necessity",
        gates=(("edge_norm", ">=", threshold),),
        tolerance=tol.spectral,
        metrics={"edge_norm": edge_norm, "threshold": threshold},
        params=p,
        trunc=bare,
        notes="pass means the guard=0 comparison FAILS, demonstrating edge pollution",
    )


def lamb_dicke_remainder_scan(
    p_base: IonParams = IonParams(Omega=0.7, eta=0.0),
    etas: tuple[float, ...] = (0.04, 0.02, 0.01),
    tol: Tolerances = Tolerances(),
) -> VerificationReport:
    """Scaling of the first-order expansion remainder with the Lamb-Dicke parameter.

    On the fixed 8-level interior of ``TruncationSpec(n_max=64, guard=56)``
    the Frobenius norm of (h_resonant - h_lamb_dicke) must shrink with
    measured order >= min_scaling_order in eta (the remainder is second
    order in the displacement expansion).
    """
    trunc = TruncationSpec(n_max=64, guard=56)
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
        gates=(("order", ">=", tol.min_scaling_order),),
        tolerance=tol.min_scaling_order,
        metrics=metrics,
        params=p_base,
        trunc=trunc,
        notes=f"fixed {trunc.interior_dim}-level interior",
    )


_MAX_SMALL_ROTATION = 0.2  # the dispersive premise is first order in these angles


def dispersive_error_scan(
    p_base: IonParams,
    etas: tuple[float, ...] = (0.08, 0.04, 0.02),
    trunc: TruncationSpec = DEFAULT_TRUNC,
    k_lowest: int = 10,
    tol: Tolerances = Tolerances(),
) -> VerificationReport:
    """Spectral error of the dispersive reduction against the conjugated Rabi model.

    For each eta the Rabi Hamiltonian is conjugated by the two small
    rotations and its lowest eigenvalues are compared (sorted) with the
    diagonal dispersive Hamiltonian; the scan fits the scaling order of the
    error in eta and passes iff it reaches ``tol.min_scaling_order``. Raises
    ValueError before computing when a small-rotation angle exceeds 0.2 (the
    first-order premise breaks near the 2*Omega = nu pole).
    """
    if len(etas) < 2 or any(e <= 0 for e in etas) or any(np.diff(etas) >= 0):
        raise ValueError("etas must be positive and strictly decreasing")
    if k_lowest < 1 or k_lowest > 2 * trunc.interior_dim:
        raise ValueError("k_lowest outside the interior spectrum")
    points = []
    for eta in etas:
        p = IonParams(Omega=p_base.Omega, eta=eta, nu=p_base.nu)
        cpl = derived_couplings(p)
        angle = max(abs(cpl.eps_counter), abs(cpl.eps_co))
        if angle > _MAX_SMALL_ROTATION:
            raise ValueError(
                f"small-rotation angle {angle:.3g} exceeds {_MAX_SMALL_ROTATION} at "
                f"eta={eta}; too close to the 2*Omega = nu pole"
            )
        points.append((p, cpl))
    distances = []
    for p, cpl in points:
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
        gates=(("order", ">=", tol.min_scaling_order),),
        tolerance=tol.min_scaling_order,
        metrics=metrics,
        params=p_base,
        trunc=trunc,
        notes="sorted lowest interior eigenvalues; order fit of log(distance) vs log(eta)",
    )


def chi_identity_check(n_draws: int = 100, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Algebraic cross-check chi = nu*eta*(eps_counter + eps_co).

    Equivalently chi = 2*g*(eps_counter + eps_co) with g = eta*nu/2; holds
    exactly for every parameter set away from the sideband pole, so every
    draw must agree to 1e-12 relative (rounding).
    """
    rng = _SeededStream(seed)
    devs = []
    while len(devs) < n_draws:
        nu = rng.uniform(0.5, 2.0)
        omega = rng.uniform(0.05, 2.0)
        if abs(2 * omega - nu) < 0.05:
            continue
        eta = rng.uniform(0.01, 1.0)
        cpl = derived_couplings(IonParams(Omega=omega, eta=eta, nu=nu))
        lhs = cpl.chi
        rhs = nu * eta * (cpl.eps_counter + cpl.eps_co)
        devs.append(abs(lhs - rhs) / abs(lhs))
    return VerificationReport(
        name="chi-identity",
        gates=(("worst_relative_dev", "<=", 1e-12),),
        tolerance=1e-12,
        metrics={"draws": float(n_draws), "worst_relative_dev": float(np.max(devs, initial=0.0))},
        seed=seed,
        notes="chi = nu*eta*(eps_counter+eps_co) = 2*g*(eps_counter+eps_co)",
    )


_DYNAMICS_TRUNC = TruncationSpec(n_max=32, guard=8)  # of the JC, AJC and conservation runs
_JC_FREQ_RTOL = 0.05  # relative deviation of the full model's Rabi line


def jc_rabi_experiment(
    p: IonParams,
    n0: int = 0,
    trunc: TruncationSpec = _DYNAMICS_TRUNC,
) -> VerificationReport:
    """Sideband Rabi oscillations: JC interaction against the full model.

    Evolves |e,n0> under (i) the bare JC interaction and (ii) the full
    first-order model rotated into its Rabi frame, then extracts the
    dominant oscillation frequency of P_e from each run. Population records
    are invariant under the diagonal interaction-picture phases, so plain
    evolution under the rotated Hamiltonian measures the same line.

    The analytic population frequency is 2*eta*Omega*sqrt(n0+1) (twice the
    amplitude Rabi rate). Both runs take 64 samples per analytic period over
    8 periods. Pass requires the full-model line within 5% of that value
    (the report's tolerance, 0.05) and the JC run to match its closed-form
    cos^2 oracle pointwise at 1e-8.
    """
    if not is_sideband_resonant(p):
        raise ValueError("jc_rabi_experiment requires the resonance nu = 2*Omega")
    if laser_phase_sign(p.phi_l) != 1.0:
        raise ValueError("jc_rabi_experiment uses the phi_l = 0 branch")
    if p.eta <= 0 or p.Omega <= 0:
        raise ValueError("eta and Omega must be positive for an oscillation frequency")
    if n0 < 0:
        raise ValueError(f"n0={n0} is not a Fock level")
    if n0 >= trunc.n_max - trunc.guard:
        raise ValueError(f"n0={n0} reaches into the guard band")

    rabi_rate = p.eta * p.Omega * math.sqrt(n0 + 1)
    freq_analytic = 2.0 * rabi_rate
    period = 2.0 * math.pi / freq_analytic
    times = np.linspace(0.0, 8 * period, 8 * 64, endpoint=False)
    psi0 = fock_state("e", n0, trunc)

    run_jc = propagate(h_jc(p, trunc), psi0, times)
    oracle = np.cos(rabi_rate * times) ** 2
    pointwise_dev = float(np.max(np.abs(run_jc.p_excited - oracle)))
    freq_jc = dominant_frequency(times, run_jc.p_excited)

    rot = spin_tensor_osc(y_rotation(), osc_identity(trunc))
    h_full = rot @ h_lamb_dicke(p, trunc) @ dagger(rot)
    run_full = propagate(h_full, psi0, times)
    freq_full = dominant_frequency(times, run_full.p_excited)

    return VerificationReport(
        name="jc-rabi",
        gates=(("rel_dev_full", "<=", _JC_FREQ_RTOL), ("jc_pointwise_dev", "<=", 1e-8)),
        tolerance=_JC_FREQ_RTOL,
        metrics={
            "freq_analytic": freq_analytic,
            "freq_jc": freq_jc,
            "freq_full": freq_full,
            "rel_dev_jc": abs(freq_jc - freq_analytic) / freq_analytic,
            "rel_dev_full": abs(freq_full - freq_analytic) / freq_analytic,
            "jc_pointwise_dev": pointwise_dev,
            "lamb_dicke_warning": float(p.eta > 0.1),
        },
        params=p,
        trunc=trunc,
        notes="population frequency convention: twice the amplitude Rabi rate",
    )


def ajc_dynamics_check(p: IonParams) -> VerificationReport:
    """Anti-JC oscillation |g,0> <-> |e,1> against its two-level oracle.

    Over 4 periods at 64 samples each, at n_max = 32 with guard 8, P_e(t)
    must equal sin^2(eta*Omega*t) pointwise at 1e-8; the same state is dark
    under the JC interaction, which is checked alongside.
    """
    trunc = _DYNAMICS_TRUNC
    if p.eta <= 0 or p.Omega <= 0:
        raise ValueError("eta and Omega must be positive for an oscillation")
    rate = p.eta * p.Omega
    period = math.pi / rate
    times = np.linspace(0.0, 4 * period, 4 * 64, endpoint=False)
    psi0 = fock_state("g", 0, trunc)
    run = propagate(h_ajc(p, trunc), psi0, times)
    dev = float(np.max(np.abs(run.p_excited - np.sin(rate * times) ** 2)))
    dark = propagate(h_jc(p, trunc), psi0, times)
    dark_dev = float(np.max(dark.p_excited))
    return VerificationReport(
        name="ajc-dynamics",
        gates=(("pointwise_dev", "<=", 1e-8), ("jc_dark_state_dev", "<=", 1e-12)),
        tolerance=1e-8,
        metrics={"pointwise_dev": dev, "jc_dark_state_dev": dark_dev},
        params=p,
        trunc=trunc,
    )


_CONVERGENCE_TOL = 1e-9  # eigenvalue shift between the last two cutoffs


def truncation_convergence(
    builder: str,
    p: IonParams,
    n_list: tuple[int, ...] = (16, 32, 64),
    k_lowest: int = 8,
) -> VerificationReport:
    """Convergence of the lowest eigenvalues with the Fock cutoff.

    Diagonalizes the named Hamiltonian at each cutoff and reports the
    successive max eigenvalue shifts; passes iff the final shift is below
    1e-9 (the report's tolerance).
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
        gates=(("final_shift", "<", _CONVERGENCE_TOL),),
        tolerance=_CONVERGENCE_TOL,
        metrics=metrics,
        params=p,
        notes=f"n_list={list(n_list)}",
    )


_FAST_MIN_G_RATIO = 0.01  # the smallest g/nu and Omega/nu flagged fast
_FAST_MIN_OMEGA_RATIO = 0.1


def speed_comparison(p: IonParams) -> VerificationReport:
    """Coupling-scale ratios and the characteristic gate time of the scheme.

    Reports g/nu, Omega/nu and, when the coupling is nonzero, the gate time
    2*pi/g in units of 1/nu. Flagged fast iff g/nu >= 0.01 (the report's
    tolerance) and Omega/nu >= 0.1 (the single-beam scheme reaches
    couplings of the order of the trap frequency).
    """
    g = qrm_coupling(p)
    metrics = {"g_ratio": g / p.nu, "omega_ratio": p.Omega / p.nu}
    if g > 0:
        metrics["gate_time"] = 2.0 * math.pi / g * p.nu  # in units of 1/nu
    return VerificationReport(
        name="speed-comparison",
        gates=(("g_ratio", ">=", _FAST_MIN_G_RATIO),
               ("omega_ratio", ">=", _FAST_MIN_OMEGA_RATIO)),
        tolerance=_FAST_MIN_G_RATIO,
        metrics=metrics,
        params=p,
        notes="pass flag means 'fast'; gate_time omitted when g = 0",
    )


def regime_check(n_draws: int = 100, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Fixture labels plus scale invariance of the regime classifier.

    At the default :class:`~ionqrm.params.RegimeThresholds`, the three
    fixture points must classify as JC-resonant, decoupling and deep-strong;
    over seeded random draws, rescaling nu and Omega by a common positive
    factor (eta fixed) must never change the label.
    """
    fixtures = [
        (IonParams(Omega=0.5, eta=0.02, nu=1.0), Regime.JC_RESONANT),
        (IonParams(Omega=0.0005, eta=0.2, nu=1.0), Regime.DECOUPLING),
        (IonParams(Omega=1.0, eta=2.5, nu=1.0), Regime.DEEP_STRONG),
    ]
    fixture_failures = sum(1 for p, expected in fixtures if classify_regime(p) is not expected)
    rng = _SeededStream(seed)
    invariance_failures = 0
    for _ in range(n_draws):
        p = IonParams(
            nu=rng.uniform(0.1, 10.0),
            Omega=rng.uniform(0.0, 3.0),
            eta=rng.uniform(0.0, 3.0),
            phi_l=(0.0, math.pi)[rng.integers(0, 2)],
        )
        scale = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        scaled = IonParams(
            nu=p.nu * scale, Omega=p.Omega * scale, eta=p.eta, phi_l=p.phi_l
        )
        if classify_regime(p) is not classify_regime(scaled):
            invariance_failures += 1
    return VerificationReport(
        name="regime-classifier",
        gates=(("fixture_failures", "<=", 0.0), ("invariance_failures", "<=", 0.0)),
        tolerance=0.0,
        metrics={
            "fixture_failures": float(fixture_failures),
            "invariance_failures": float(invariance_failures),
            "draws": float(n_draws),
        },
        seed=seed,
    )


def rotation_diagnostic_check(
    p: IonParams = IonParams(Omega=0.7, eta=0.2),
    trunc: TruncationSpec = _DYNAMICS_TRUNC,
    tol: Tolerances = Tolerances(),
) -> VerificationReport:
    """The spin Y rotation turns the Lamb-Dicke model into the Rabi form of its phase.

    Passes iff, at phi_l = 0 and at phi_l = pi, R h_lamb_dicke R^dag equals
    ``h_rabi_rotated`` at that phase within the identity tolerance (the two
    "_to_rabi_rotated" metrics of :func:`~ionqrm.models.rotation_diagnostic`).
    Its "_to_other_form" metrics show that each gate tells the two forms apart.
    """
    return VerificationReport(
        name="rotation-diagnostic",
        gates=(("phi0_to_rabi_rotated", "<=", tol.identity),
               ("phipi_to_rabi_rotated", "<=", tol.identity)),
        tolerance=tol.identity,
        metrics=rotation_diagnostic(p, trunc),
        params=p,
        trunc=trunc,
        notes="exp(i*pi/4*sigma_y) maps h_lamb_dicke onto h_rabi_rotated at phi_l = 0 "
        "(the +Omega*sigma_z form) and at phi_l = pi (the -Omega*sigma_z form)",
    )


def propagator_conservation_check(
    p: IonParams = _RESONANT_POINT,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Norm and energy conservation plus the composition property.

    Runs the JC and anti-JC trajectories used by the dynamics checks, at
    their truncation n_max = 32 with guard 8, requiring |norm - 1| < 1e-10
    and |<H>(t) - <H>(0)| < 1e-9 * ||H||_F at every record, and verifies
    that splitting the evolution at a random intermediate time reproduces
    the direct evolution within 1e-10.
    """
    trunc = _DYNAMICS_TRUNC
    rng = _SeededStream(seed)
    rate = p.eta * p.Omega
    times = np.linspace(0.0, 4.0 * math.pi / rate, 512)
    norm_devs, energy_devs = [], []
    runs = []
    for h, spin in ((h_jc(p, trunc), "e"), (h_ajc(p, trunc), "g")):
        psi0 = fock_state(spin, 0, trunc)
        run = propagate(h, psi0, times, store_states=True)
        runs.append((h, psi0, run.states))
        norm_devs.append(np.max(run.norm_residual))
        energies = np.einsum("td,td->t", run.states.conj(), run.states @ h.T).real
        h_scale = float(np.linalg.norm(h))
        energy_devs.append(float(np.max(np.abs(energies - energies[0]))) / h_scale)
    # composition across a random split point, against the JC run above
    h, psi0, direct = runs[0]
    split = rng.integers(1, times.size - 1)
    first = propagate(h, psi0, times[: split + 1], store_states=True).states
    resumed = propagate(
        h, first[-1], times[split:] - times[split], store_states=True
    ).states
    return VerificationReport(
        name="propagator-conservation",
        gates=(("worst_norm_residual", "<", 1e-10), ("worst_energy_drift_rel", "<", 1e-9),
               ("composition_dev", "<", 1e-10)),
        tolerance=1e-10,
        metrics={
            "worst_norm_residual": float(np.max(norm_devs)),
            "worst_energy_drift_rel": float(np.max(energy_devs)),
            "composition_dev": float(np.max(np.abs(resumed - direct[split:]))),
            "split_index": float(split),
        },
        params=p,
        trunc=trunc,
        seed=seed,
    )


def run_all_checks(
    trunc: TruncationSpec = DEFAULT_TRUNC,
    seed: int = DEFAULT_SEED,
    tol: Tolerances = Tolerances(),
) -> list[VerificationReport]:
    """Run the full verification suite in order and return every report."""
    return [
        operator_algebra_check(trunc, tol=tol),
        qrm_transform_property(50, trunc, seed=seed, tol=tol),
        guard_necessity_check(_REFERENCE_POINT, n_max=trunc.n_max, tol=tol),
        lamb_dicke_remainder_scan(tol=tol),
        jc_rabi_experiment(_RESONANT_POINT, 0),
        ajc_dynamics_check(_RESONANT_POINT),
        dispersive_error_scan(IonParams(Omega=1.0, eta=0.08), trunc=trunc, tol=tol),
        chi_identity_check(100, seed=seed),
        regime_check(100, seed=seed),
        propagator_conservation_check(_RESONANT_POINT, seed=seed),
        rotation_diagnostic_check(tol=tol),
        speed_comparison(_REFERENCE_POINT),
        truncation_convergence("qrm", _REFERENCE_POINT),
    ]
