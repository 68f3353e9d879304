"""Hamiltonians and unitary transformations for the single-beam resonant scheme.

Everything is assembled as an explicit matrix on the truncated composite
space (spin outer, oscillator inner; hbar = 1, ion mass = 1, the vacuum
shift nu/2 dropped). Frequencies are dimensionless multiples of a reference
frequency and time is measured in its inverse.

Every Hamiltonian builder has the block form [[diag(d_e), B], [B^dag, diag(d_g)]]:
its spin-diagonal blocks are diagonal in Fock space and its spin-flip blocks
are one n_max x n_max coupling B and its adjoint. :func:`_spin_blocks` writes
that form, so each builder is Hermitian by construction and no entry is -0.0.

The two builders the transform identity reads, :func:`h_resonant` and
:func:`h_qrm`, have a real form (``gauged=True``): P H P^dag, P = diag(i^n) on
both spin blocks, written from the real gauged coupling P B P^dag. It equals
``fock_gauge(H, n_max)`` entry for entry.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .algebra import (
    annihilation,
    displacement,
    displacement_gauged,
    gauge_parts,
    osc_identity,
    sigma_y,
    spin_tensor_osc,
)
from .params import (  # noqa: F401 - the scalar definitions are re-exported from here
    DerivedCouplings,
    IonParams,
    Regime,
    RegimeThresholds,
    ResonancePoleError,
    TruncationSpec,
    classify_regime,
    derived_couplings,
    is_sideband_resonant,
    phase_is_zero_or_pi,
)


def _spin_blocks(
    d_e: np.ndarray, d_g: np.ndarray, b: np.ndarray | None = None, *, gauged: bool = False
) -> np.ndarray:
    """The composite-space matrix [[diag(d_e), b], [b^dag, diag(d_g)]].

    d_e and d_g are the real Fock diagonals of the spin-diagonal blocks and b
    the n_max x n_max spin-flip block (e, g), or None for none. Block (g, e)
    is always b^dag, so the result is Hermitian by construction. With
    ``gauged`` b is the real gauged coupling P B P^dag, and the result is the
    real array P H P^dag (block (g, e) is b^T).
    """
    n = len(d_e)
    h = np.zeros((2 * n, 2 * n), dtype=float if gauged else complex)
    if b is not None:
        h[:n, n:] = b
        h[n:, :n] = b.conj().T
    np.fill_diagonal(h, np.concatenate([d_e, d_g]))
    # a product leaves -0.0 where an entry vanishes, and build prints every entry
    h += 0.0
    return h


def _levels(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """The Fock diagonal of nu*n as a real vector."""
    return p.nu * np.arange(trunc.n_max, dtype=float)


def h_resonant(p: IonParams, trunc: TruncationSpec, *, gauged: bool = False) -> np.ndarray:
    """Resonant ion-laser Hamiltonian in the laser-rotating frame.

    H = nu*n + Omega*[e^(i*phi_l) sigma_+ D(i*eta) + e^(-i*phi_l) sigma_- D^dag(i*eta)]

    Exact in the Lamb-Dicke parameter; requires delta = 0. The real form
    (``gauged``) needs a real drive factor Omega*e^(i*phi_l), else
    ValueError: every phi_l but 0 at a nonzero Omega, pi included, whose
    float e^(i*pi) has an imaginary part of 1.2e-16.
    """
    if p.delta != 0.0:
        raise ValueError("h_resonant requires delta = 0 (resonant condition)")
    level = _levels(p, trunc)
    drive = p.Omega * np.exp(1j * p.phi_l)
    if gauged:
        if drive.imag != 0.0:
            raise ValueError("H is not exactly real in the Fock-parity gauge diag(i^n)")
        disp = displacement_gauged(p.eta, trunc)
        return _spin_blocks(level, level, drive.real * disp, gauged=True)
    disp = displacement(1j * p.eta, trunc)
    return _spin_blocks(level, level, drive * disp)


def h_lamb_dicke(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """First-order Lamb-Dicke expansion of :func:`h_resonant`.

    H = nu*n + Omega*[e^(i*phi_l) sigma_+ + h.c.]
        + i*eta*Omega*(a^dag + a)*[e^(i*phi_l) sigma_+ - e^(-i*phi_l) sigma_-]

    Valid as an approximation when eta*sqrt(mean n) << 1; the construction
    itself is unconditional.
    """
    level = _levels(p, trunc)
    a = annihilation(trunc)
    phase = np.exp(1j * p.phi_l)
    coupling = (
        p.Omega * phase * osc_identity(trunc)
        + 1j * p.eta * p.Omega * (phase * (a + a.conj().T))
    )
    return _spin_blocks(level, level, coupling)


def y_rotation(convention: str = "standard") -> np.ndarray:
    """The 2x2 spin rotation exp(i*(pi/4)*sigma_y) under the chosen convention.

    With the standard (Hermitian) sigma_y this is the real rotation
    [[c, s], [-s, c]] with c = s = 1/sqrt(2), and it maps sigma_x -> sigma_z
    while leaving sigma_+ - sigma_- invariant. The "alt" convention
    exponentiates the non-Hermitian i*sigma_- - sigma_+ literally, which is
    not unitary; it is kept for the rotation diagnostics.

    Closed form, no matrix exponential: under both conventions the exponent
    x = i*(pi/4)*sigma_y has a zero diagonal, so x @ x = c*1 with
    c = x_01 x_10, and exp(x) = cosh(sqrt(c))*1 + (sinh(sqrt(c))/sqrt(c))*x.
    The standard result equals ``scipy.linalg.expm`` bit for bit; "alt"
    agrees with it to within 3e-16.
    """
    x = 1j * (np.pi / 4.0) * sigma_y(convention)
    root = cmath.sqrt(x[0, 1] * x[1, 0])
    return cmath.cosh(root) * np.eye(2) + (cmath.sinh(root) / root) * x


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
    level = _levels(p, trunc)
    a = annihilation(trunc)
    coupling = -1j * p.eta * p.Omega * (a + a.conj().T)
    return _spin_blocks(level - p.Omega, level + p.Omega, coupling)


def h_jc(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Jaynes-Cummings interaction H = i*eta*Omega*(a sigma_+ - sigma_- a^dag).

    Couples |e,n> with |g,n+1>; conserves the excitation number
    n + (sigma_z + 1)/2.
    """
    zero = np.zeros(trunc.n_max)
    return _spin_blocks(zero, zero, 1j * p.eta * p.Omega * annihilation(trunc))


def h_ajc(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Anti-Jaynes-Cummings interaction H = -i*eta*Omega*(a sigma_- - sigma_+ a^dag).

    Couples |g,n> with |e,n+1>; conserves n - (sigma_z + 1)/2.
    """
    zero = np.zeros(trunc.n_max)
    return _spin_blocks(zero, zero, 1j * p.eta * p.Omega * annihilation(trunc).conj().T)


def qrm_transform(eta: float, trunc: TruncationSpec) -> np.ndarray:
    """Block unitary of half displacements mapping the resonant model to Rabi form.

    T = (1/sqrt(2)) * [[D^dag(i*eta/2), D(i*eta/2)], [-D^dag(i*eta/2), D(i*eta/2)]]

    Built from the cached-basis :func:`~ionqrm.algebra.displacement`, so T is
    exactly unitary on the truncated space. :func:`qrm_conjugate` computes
    the interior of T H T^dag in the Fock-parity gauge without forming T;
    this dense form is its test oracle.
    """
    half = displacement(1j * eta / 2.0, trunc)
    half_dag = half.conj().T
    return np.block([[half_dag, half], [-half_dag, half]]) / np.sqrt(2.0)


def qrm_conjugate(g: np.ndarray, eta: float, trunc: TruncationSpec) -> np.ndarray:
    """Interior of P T H T^dag P^dag, T = :func:`qrm_transform` (eta, trunc), in real arithmetic.

    P = diag(i^n) on both spin blocks is the Fock-parity gauge of
    :func:`~ionqrm.algebra.fock_gauge`, and g = P H P^dag must be given as a
    real 2n x 2n array, such as the ``gauged`` form of :func:`h_resonant`
    at phi_l = 0, else ValueError. With b = P D(i*eta/2) P^dag from
    :func:`~ionqrm.algebra.displacement_gauged` (real, so P D^dag P^dag = b^T)
    and s = (+1, -1), block (i, j) of the result is

        (1/2) * (s_i s_j b^T G00 b + s_i b^T G01 b^T + s_j b G10 b + b G11 b^T)

    restricted to the interior rows and columns (Fock index below
    n_max - guard) of each spin block, the layout of
    :func:`~ionqrm.algebra.interior_block`: eight real products, none larger
    than n_max. Returns a real 2k x 2k array, k = ``trunc.interior_dim``.
    The dense :func:`qrm_transform` is its test oracle.
    """
    n, k = trunc.n_max, trunc.interior_dim
    if g.shape != (2 * n, 2 * n) or np.iscomplexobj(g):
        raise ValueError(f"G must be a real {2 * n}x{2 * n} array, got {g.dtype} {g.shape}")
    b = displacement_gauged(eta / 2.0, trunc)
    bt = b.T
    # only interior rows of a left factor and interior columns of a right one are kept
    p00 = bt[:k] @ g[:n, :n] @ b[:, :k]
    p01 = bt[:k] @ g[:n, n:] @ bt[:, :k]
    p10 = b[:k] @ g[n:, :n] @ b[:, :k]
    p11 = b[:k] @ g[n:, n:] @ bt[:, :k]
    out = np.empty((2 * k, 2 * k))
    out[:k, :k] = p00 + p01 + p10 + p11
    out[:k, k:] = -p00 + p01 - p10 + p11
    out[k:, :k] = -p00 - p01 + p10 + p11
    out[k:, k:] = p00 - p01 - p10 + p11
    out *= 0.5
    return out


def h_qrm(
    p: IonParams, trunc: TruncationSpec, include_constant: bool = False, *, gauged: bool = False
) -> np.ndarray:
    """Quantum Rabi Hamiltonian on the composite space.

    H = nu*n + Omega*sigma_z + (i*eta*nu/2)*(sigma_+ + sigma_-)*(a - a^dag)
        [+ nu*eta^2/4 if include_constant]

    The constant offset matches the exact image of :func:`h_resonant` under
    :func:`qrm_transform`; it is unobservable in populations, so dynamics
    callers usually leave it off. The real form (``gauged``) exists at every
    parameter: the coupling is imaginary where m - n is odd.
    """
    constant = p.nu * p.eta**2 / 4.0 if include_constant else 0.0
    level = _levels(p, trunc)
    a = annihilation(trunc)
    coupling = (1j * p.eta * p.nu / 2.0) * (a - a.conj().T)
    d_e, d_g = level + p.Omega + constant, level - p.Omega + constant
    if not gauged:
        return _spin_blocks(d_e, d_g, coupling)
    real = gauge_parts(coupling.real, coupling.imag, trunc.n_max)
    return _spin_blocks(d_e, d_g, real, gauged=True)


def h_qrm_detuned(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Quantum Rabi Hamiltonian with the delta/2 detuning on the spin-flip blocks.

    The block matrix

        [[nu*n + Omega + nu*eta^2/4,  (i*eta*nu/2)(a - a^dag) + delta/2],
         [(i*eta*nu/2)(a - a^dag) + delta/2,  nu*n - Omega + nu*eta^2/4]]

    Reduces to ``h_qrm(include_constant=True)`` at delta = 0.
    """
    level = _levels(p, trunc) + p.nu * p.eta**2 / 4.0
    a = annihilation(trunc)
    coupling = (1j * p.eta * p.nu / 2.0) * (a - a.conj().T) + (p.delta / 2.0) * osc_identity(trunc)
    return _spin_blocks(level + p.Omega, level - p.Omega, coupling)


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
    level = _levels(p, trunc)
    half = np.arange(trunc.n_max) + 0.5
    return _spin_blocks(level + p.Omega - chi * half, level - p.Omega + chi * half)


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
    level = _levels(p, trunc)
    a = annihilation(trunc)
    eye = osc_identity(trunc)
    minus_form = h_rabi_rotated(IonParams(Omega=p.Omega, eta=p.eta, nu=p.nu), trunc)
    plus_form = _spin_blocks(
        level + p.Omega, level - p.Omega, 1j * p.eta * p.Omega * (a + a.conj().T)
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
    "zero": lambda p, trunc: _spin_blocks(np.zeros(trunc.n_max), np.zeros(trunc.n_max)),
}
