"""Hamiltonians and unitary transformations for the single-beam resonant scheme.

Everything is assembled as an explicit matrix on the truncated composite
space (spin outer, oscillator inner; hbar = 1, ion mass = 1, the vacuum
shift nu/2 dropped). Frequencies are dimensionless multiples of a reference
frequency and time is measured in its inverse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import (
    Spin,
    TruncationSpec,
    annihilation,
    number_op,
    osc_identity,
    pauli,
    sigma_y,
    spin_tensor_osc,
    displacement,
)

_PHASE_ATOL = 1e-12


class ResonancePoleError(ValueError):
    """Raised when a formula hits the 2*Omega = nu (or 2*Omega = -nu) pole."""


@dataclass(frozen=True)
class IonParams:
    """Physical parameters of the resonant ion-laser interaction.

    Omega is the laser Rabi coupling, eta the Lamb-Dicke parameter, nu the
    trap frequency, phi_l the laser phase and delta the atom-laser detuning
    (zero under the resonant condition; only the detuned Rabi builder
    accepts a nonzero value).
    """

    Omega: float
    eta: float
    nu: float = 1.0
    phi_l: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("Omega", "eta", "nu", "phi_l", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.nu <= 0:
            raise ValueError(f"nu > 0 violated (got {self.nu})")
        if self.eta < 0:
            raise ValueError(f"eta >= 0 violated (got {self.eta})")
        if self.Omega < 0:
            raise ValueError(f"Omega >= 0 violated (got {self.Omega})")


@dataclass(frozen=True)
class DerivedCouplings:
    """Coupling constants derived from :class:`IonParams`.

    g_qrm is the Rabi-model coupling eta*nu/2; eps_counter and eps_co are
    the small-rotation angles multiplying the counter-rotating and
    co-rotating pair generators; chi is the dispersive interaction constant.
    """

    g_qrm: float
    eps_counter: float
    eps_co: float
    chi: float


class Regime(Enum):
    JC_RESONANT = "JC-resonant"
    AJC_RESONANT = "AJC-resonant"
    DISPERSIVE = "dispersive"
    DECOUPLING = "decoupling"
    ULTRASTRONG = "ultrastrong"
    DEEP_STRONG = "deep-strong"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class RegimeThresholds:
    """Configurable ratio thresholds for :func:`classify_regime`.

    ordering_factor is the ratio read for a "much greater than" ordering,
    ultrastrong_onset the g/nu value where the ultrastrong regime starts,
    dispersive_factor the margin below every transition scale required of
    the coupling, and resonant_max_g_ratio the largest g/nu still labelled
    as a sideband resonance.
    """

    ordering_factor: float = 10.0
    ultrastrong_onset: float = 0.1
    dispersive_factor: float = 0.1
    resonant_max_g_ratio: float = 0.1

    def __post_init__(self) -> None:
        for name in ("ordering_factor", "ultrastrong_onset", "dispersive_factor",
                     "resonant_max_g_ratio"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite")


def derived_couplings(p: IonParams) -> DerivedCouplings:
    """Evaluate g = eta*nu/2, the small-rotation angles and the chi shift.

    eps_counter = eta*nu / (2*(nu + 2*Omega))
    eps_co      = eta*nu / (2*(2*Omega - nu))
    chi         = 2*eta^2*nu^2*Omega / (4*Omega^2 - nu^2)

    Raises :class:`ResonancePoleError` at the sideband pole 2*Omega = nu
    (the 2*Omega = -nu pole is unreachable for valid parameters).
    """
    scale = max(p.nu, 2.0 * p.Omega)
    if abs(2.0 * p.Omega - p.nu) <= 1e-12 * scale:
        raise ResonancePoleError(
            f"2*Omega = nu pole (nu={p.nu}, Omega={p.Omega}); "
            "small-rotation angles are undefined at the sideband resonance"
        )
    g = p.eta * p.nu / 2.0
    eps_counter = p.eta * p.nu / (2.0 * (p.nu + 2.0 * p.Omega))
    eps_co = p.eta * p.nu / (2.0 * (2.0 * p.Omega - p.nu))
    chi = 2.0 * p.eta**2 * p.nu**2 * p.Omega / (4.0 * p.Omega**2 - p.nu**2)
    return DerivedCouplings(g_qrm=g, eps_counter=eps_counter, eps_co=eps_co, chi=chi)


def is_sideband_resonant(p: IonParams) -> bool:
    """True at the sideband resonance nu = 2*Omega, to 1e-9 relative."""
    return abs(p.nu - 2.0 * p.Omega) <= 1e-9 * (p.nu + 2.0 * p.Omega)


def phase_is_zero_or_pi(phi_l: float) -> bool:
    """True when the laser phase is 0 or pi modulo 2*pi, to _PHASE_ATOL."""
    phase = math.remainder(phi_l, 2.0 * math.pi)
    return abs(phase) <= _PHASE_ATOL or abs(abs(phase) - math.pi) <= _PHASE_ATOL


def h_resonant(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Resonant ion-laser Hamiltonian in the laser-rotating frame.

    H = nu*n + Omega*[e^(i*phi_l) sigma_+ D(i*eta) + e^(-i*phi_l) sigma_- D^dag(i*eta)]

    Exact in the Lamb-Dicke parameter; requires delta = 0.
    """
    if p.delta != 0.0:
        raise ValueError("h_resonant requires delta = 0 (resonant condition)")
    n = number_op(trunc)
    disp = displacement(1j * p.eta, trunc)
    return (
        p.nu * spin_tensor_osc(pauli(Spin.IDENTITY), n)
        + p.Omega * np.exp(1j * p.phi_l) * spin_tensor_osc(pauli(Spin.PLUS), disp)
        + p.Omega * np.exp(-1j * p.phi_l) * spin_tensor_osc(pauli(Spin.MINUS), disp.conj().T)
    )


def h_lamb_dicke(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """First-order Lamb-Dicke expansion of :func:`h_resonant`.

    H = nu*n + Omega*[e^(i*phi_l) sigma_+ + h.c.]
        + i*eta*Omega*(a^dag + a)*[e^(i*phi_l) sigma_+ - e^(-i*phi_l) sigma_-]

    Valid as an approximation when eta*sqrt(mean n) << 1; the construction
    itself is unconditional.
    """
    n = number_op(trunc)
    a = annihilation(trunc)
    x = a + a.conj().T
    drive = np.exp(1j * p.phi_l) * pauli(Spin.PLUS) + np.exp(-1j * p.phi_l) * pauli(Spin.MINUS)
    chiral = np.exp(1j * p.phi_l) * pauli(Spin.PLUS) - np.exp(-1j * p.phi_l) * pauli(Spin.MINUS)
    return (
        p.nu * spin_tensor_osc(pauli(Spin.IDENTITY), n)
        + p.Omega * spin_tensor_osc(drive, osc_identity(trunc))
        + 1j * p.eta * p.Omega * spin_tensor_osc(chiral, x)
    )


def y_rotation(convention: str = "standard") -> np.ndarray:
    """The 2x2 spin rotation exp(i*(pi/4)*sigma_y) under the chosen convention.

    With the standard (Hermitian) sigma_y this is the real rotation
    [[c, s], [-s, c]] with c = s = 1/sqrt(2), and it maps sigma_x -> sigma_z
    while leaving sigma_+ - sigma_- invariant. The "alt" convention
    exponentiates the non-Hermitian i*sigma_- - sigma_+ literally, which is
    not unitary; it is kept for the rotation diagnostics.
    """
    # local import: only this 2x2 rotation needs scipy, so `import ionqrm` stays numpy-only
    from scipy.linalg import expm

    return expm(1j * (np.pi / 4.0) * sigma_y(convention))


def h_rabi_rotated(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Rabi-form Hamiltonian after the spin Y rotation, assembled directly.

    H = nu*n - Omega*sigma_z - i*eta*Omega*(a^dag + a)*(sigma_+ - sigma_-)

    Only the phases phi_l in {0, pi} are supported. The same expression is
    returned for both; see :func:`rotation_diagnostic` for the numerically
    determined conjugation relation between this form and
    :func:`h_lamb_dicke` under each sigma_y convention.
    """
    if not phase_is_zero_or_pi(p.phi_l):
        raise ValueError(f"unsupported phase phi_l={p.phi_l!r}; expected 0 or pi")
    n = number_op(trunc)
    a = annihilation(trunc)
    x = a + a.conj().T
    flip = pauli(Spin.PLUS) - pauli(Spin.MINUS)
    return (
        p.nu * spin_tensor_osc(pauli(Spin.IDENTITY), n)
        - p.Omega * spin_tensor_osc(pauli(Spin.Z), osc_identity(trunc))
        - 1j * p.eta * p.Omega * spin_tensor_osc(flip, x)
    )


def h_jc(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Jaynes-Cummings interaction H = i*eta*Omega*(a sigma_+ - sigma_- a^dag).

    Couples |e,n> with |g,n+1>; conserves the excitation number
    n + (sigma_z + 1)/2.
    """
    a = annihilation(trunc)
    return 1j * p.eta * p.Omega * (
        spin_tensor_osc(pauli(Spin.PLUS), a) - spin_tensor_osc(pauli(Spin.MINUS), a.conj().T)
    )


def h_ajc(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Anti-Jaynes-Cummings interaction H = -i*eta*Omega*(a sigma_- - sigma_+ a^dag).

    Couples |g,n> with |e,n+1>; conserves n - (sigma_z + 1)/2.
    """
    a = annihilation(trunc)
    return -1j * p.eta * p.Omega * (
        spin_tensor_osc(pauli(Spin.MINUS), a) - spin_tensor_osc(pauli(Spin.PLUS), a.conj().T)
    )


def qrm_transform(eta: float, trunc: TruncationSpec) -> np.ndarray:
    """Block unitary of half displacements mapping the resonant model to Rabi form.

    T = (1/sqrt(2)) * [[D^dag(i*eta/2), D(i*eta/2)], [-D^dag(i*eta/2), D(i*eta/2)]]

    Built from the cached-basis :func:`~ionqrm.algebra.displacement`, so T is
    exactly unitary on the truncated space. :func:`qrm_conjugate` computes
    T H T^dag without forming T.
    """
    half = displacement(1j * eta / 2.0, trunc)
    half_dag = half.conj().T
    top = np.hstack([half_dag, half])
    bottom = np.hstack([-half_dag, half])
    return np.vstack([top, bottom]) / np.sqrt(2.0)


def qrm_conjugate(h: np.ndarray, eta: float, trunc: TruncationSpec) -> np.ndarray:
    """T H T^dag for T = :func:`qrm_transform` (eta, trunc), computed blockwise.

    With B = D(i*eta/2), A = B^dag and s = (+1, -1), block (i, j) of the
    result is

        (1/2) * (s_i s_j A H00 A^dag + s_i A H01 B^dag + s_j B H10 A^dag + B H11 B^dag)

    which takes eight n_max-sized products instead of two 2*n_max-sized ones.
    """
    n = trunc.n_max
    if h.shape != (2 * n, 2 * n):
        raise ValueError(f"H must be {2 * n}x{2 * n}, got {h.shape}")
    b = displacement(1j * eta / 2.0, trunc)
    a = b.conj().T
    p00 = a @ h[:n, :n] @ b
    p01 = a @ h[:n, n:] @ a
    p10 = b @ h[n:, :n] @ b
    p11 = b @ h[n:, n:] @ a
    out = np.empty((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = p00 + p01 + p10 + p11
    out[:n, n:] = -p00 + p01 - p10 + p11
    out[n:, :n] = -p00 - p01 + p10 + p11
    out[n:, n:] = p00 - p01 - p10 + p11
    out *= 0.5
    return out


def h_qrm(p: IonParams, trunc: TruncationSpec, include_constant: bool = False) -> np.ndarray:
    """Quantum Rabi Hamiltonian on the composite space.

    H = nu*n + Omega*sigma_z + (i*eta*nu/2)*(sigma_+ + sigma_-)*(a - a^dag)
        [+ nu*eta^2/4 if include_constant]

    The constant offset matches the exact image of :func:`h_resonant` under
    :func:`qrm_transform`; it is unobservable in populations, so dynamics
    callers usually leave it off.
    """
    n = number_op(trunc)
    a = annihilation(trunc)
    h = (
        p.nu * spin_tensor_osc(pauli(Spin.IDENTITY), n)
        + p.Omega * spin_tensor_osc(pauli(Spin.Z), osc_identity(trunc))
        + (1j * p.eta * p.nu / 2.0) * spin_tensor_osc(pauli(Spin.X), a - a.conj().T)
    )
    if include_constant:
        h = h + (p.nu * p.eta**2 / 4.0) * np.eye(2 * trunc.n_max, dtype=complex)
    return h


def h_qrm_detuned(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Quantum Rabi Hamiltonian with the delta/2 detuning on the spin-flip blocks.

    Assembled directly as the block matrix

        [[nu*n + Omega + nu*eta^2/4,  (i*eta*nu/2)(a - a^dag) + delta/2],
         [(i*eta*nu/2)(a - a^dag) + delta/2,  nu*n - Omega + nu*eta^2/4]]

    and Hermitian for real delta. Reduces to ``h_qrm(include_constant=True)``
    at delta = 0.
    """
    n = number_op(trunc)
    a = annihilation(trunc)
    eye = osc_identity(trunc)
    diag = p.nu * n + (p.nu * p.eta**2 / 4.0) * eye
    off = (1j * p.eta * p.nu / 2.0) * (a - a.conj().T) + (p.delta / 2.0) * eye
    top = np.hstack([diag + p.Omega * eye, off])
    bottom = np.hstack([off, diag - p.Omega * eye])
    return np.vstack([top, bottom])


_ROTATION_KINDS = ("counter", "co")


def small_rotation(kind: str, eps: float, trunc: TruncationSpec) -> np.ndarray:
    """Small spin-oscillator rotation used for the dispersive reduction.

    kind "counter": exp(eps * (a^dag sigma_+ - a sigma_-)), pairing with
    eps_counter; kind "co": exp(eps * (a sigma_+ - a^dag sigma_-)), pairing
    with eps_co.

    Each generator only couples the pairs |e,k+1> <-> |g,k> ("counter") or
    |e,k> <-> |g,k+1> ("co"), k = 0..n_max-2, acting there as
    sqrt(k+1) * (|e><g| - |g><e|). The exponential is therefore a rotation by
    eps*sqrt(k+1) on each pair and the identity on the two unpaired states,
    written in closed form and exactly unitary on the truncated space.
    """
    if kind not in _ROTATION_KINDS:
        raise ValueError(f"kind must be one of {_ROTATION_KINDS}, got {kind!r}")
    n = trunc.n_max
    k = np.arange(n - 1)
    angle = eps * np.sqrt(k + 1.0)
    e_idx, g_idx = (k + 1, n + k) if kind == "counter" else (k, n + k + 1)
    u = np.eye(2 * n, dtype=complex)
    u[e_idx, e_idx] = u[g_idx, g_idx] = np.cos(angle)
    u[e_idx, g_idx] = np.sin(angle)
    u[g_idx, e_idx] = -np.sin(angle)
    return u


def h_dispersive(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Dispersive Hamiltonian H = nu*n + Omega*sigma_z - chi*sigma_z*(n + 1/2).

    Diagonal in the product basis; the eigenvalue of |e,n> is
    nu*n + Omega - chi*(n + 1/2). Propagates the pole error of
    :func:`derived_couplings`.
    """
    chi = derived_couplings(p).chi
    n = number_op(trunc)
    eye = osc_identity(trunc)
    return (
        p.nu * spin_tensor_osc(pauli(Spin.IDENTITY), n)
        + p.Omega * spin_tensor_osc(pauli(Spin.Z), eye)
        - chi * spin_tensor_osc(pauli(Spin.Z), n + 0.5 * eye)
    )


def classify_regime(p: IonParams, thresholds: RegimeThresholds | None = None) -> Regime:
    """Classify the coupling regime of the engineered Rabi model.

    Uses g = eta*nu/2 and ratio thresholds only, so the label is invariant
    under a common rescaling of nu and Omega. Precedence: deep-strong,
    decoupling (nu >> g >> 2*Omega, which can sit exactly on the
    ultrastrong onset), ultrastrong, sideband resonance (nu = 2*Omega; the
    laser phase selects the JC or AJC branch), dispersive, unclassified.
    """
    t = thresholds or RegimeThresholds()
    g = p.eta * p.nu / 2.0
    if g / p.nu >= 1.0:
        return Regime.DEEP_STRONG
    if g > 0 and p.nu >= t.ordering_factor * g and g >= t.ordering_factor * 2.0 * p.Omega:
        return Regime.DECOUPLING
    if g / p.nu >= t.ultrastrong_onset:
        return Regime.ULTRASTRONG
    if is_sideband_resonant(p):
        if g / p.nu < t.resonant_max_g_ratio:
            phase = math.remainder(p.phi_l, 2.0 * math.pi)
            if abs(abs(phase) - math.pi) <= 1e-9:
                return Regime.AJC_RESONANT
            return Regime.JC_RESONANT
    scales = min(p.nu, 2.0 * p.Omega, abs(2.0 * p.Omega - p.nu), 2.0 * p.Omega + p.nu)
    if g < t.dispersive_factor * scales:
        return Regime.DISPERSIVE
    return Regime.UNCLASSIFIED


def rotation_diagnostic(p: IonParams, trunc: TruncationSpec) -> dict[str, float]:
    """Measure what conjugating the Lamb-Dicke Hamiltonian by the Y rotation yields.

    For each sigma_y convention and each phase phi_l in {0, pi}, reports the
    max-entry distance of R H R^dag from the two candidate Rabi forms:

    * "minus": nu*n - Omega*sigma_z - i*eta*Omega*(a^dag+a)(sigma_+ - sigma_-),
      which is :func:`h_rabi_rotated`
    * "plus": the same with both spin-dependent signs reversed

    plus a unitarity defect for each rotation. The numbers arbitrate which
    convention makes the derivation chain consistent instead of baking a
    guess into the builders.
    """
    n = number_op(trunc)
    a = annihilation(trunc)
    x = a + a.conj().T
    eye = osc_identity(trunc)
    flip = pauli(Spin.PLUS) - pauli(Spin.MINUS)
    minus_form = h_rabi_rotated(IonParams(Omega=p.Omega, eta=p.eta, nu=p.nu), trunc)
    plus_form = (
        p.nu * spin_tensor_osc(pauli(Spin.IDENTITY), n)
        + p.Omega * spin_tensor_osc(pauli(Spin.Z), eye)
        + 1j * p.eta * p.Omega * spin_tensor_osc(flip, x)
    )
    metrics: dict[str, float] = {}
    for convention in ("standard", "alt"):
        rot = y_rotation(convention)
        metrics[f"{convention}_unitarity_defect"] = float(
            np.max(np.abs(rot @ rot.conj().T - np.eye(2)))
        )
        full_rot = spin_tensor_osc(rot, eye)
        for tag, phase in (("phi0", 0.0), ("phipi", math.pi)):
            h_ld = h_lamb_dicke(
                IonParams(Omega=p.Omega, eta=p.eta, nu=p.nu, phi_l=phase), trunc
            )
            conj = full_rot @ h_ld @ full_rot.conj().T
            metrics[f"{convention}_{tag}_to_minus"] = float(np.max(np.abs(conj - minus_form)))
            metrics[f"{convention}_{tag}_to_plus"] = float(np.max(np.abs(conj - plus_form)))
    return metrics


#: Named Hamiltonian constructors with the uniform signature (params, trunc).
HAMILTONIAN_BUILDERS = {
    "resonant": h_resonant,
    "lamb-dicke": h_lamb_dicke,
    "rabi-rotated": h_rabi_rotated,
    "jc": h_jc,
    "ajc": h_ajc,
    "qrm": h_qrm,
    "qrm-detuned": h_qrm_detuned,
    "dispersive": h_dispersive,
    "zero": lambda p, trunc: np.zeros((2 * trunc.n_max, 2 * trunc.n_max), dtype=complex),
}
