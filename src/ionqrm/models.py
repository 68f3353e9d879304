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
both spin blocks, written from the real gauged coupling P B P^dag, entry for
entry the map :func:`~ionqrm.algebra.gauge_parts` makes of the complex form.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .algebra import (
    displacement,
    displacement_gauged,
    gauge_parts,
    osc_identity,
    sigma_y,
    spin_tensor_osc,
)
from .params import (
    IonParams,
    TruncationSpec,
    derived_couplings,
    laser_phase_sign,
    qrm_coupling,
    transform_offset,
)


def _spin_blocks(d_e: np.ndarray, d_g: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """The composite-space matrix [[diag(d_e), b], [b^dag, diag(d_g)]].

    d_e and d_g are the real Fock diagonals of the spin-diagonal blocks and b
    the n_max x n_max spin-flip block (e, g), or None for none. Block (g, e)
    is always b^dag, so the result is Hermitian by construction. Its dtype
    is that of b: a real b (the gauged coupling P B P^dag of a ``gauged``
    builder) gives the real array P H P^dag, with block (g, e) b^T; a
    complex b, or none, gives a complex H.
    """
    n = len(d_e)
    real = b is not None and not np.iscomplexobj(b)
    h = np.zeros((2 * n, 2 * n), dtype=float if real else complex)
    if b is not None:
        h[:n, n:] = b
        np.conjugate(b.T, out=h[n:, :n])
    np.fill_diagonal(h, np.concatenate([d_e, d_g]))
    # a product leaves -0.0 where an entry vanishes, and build prints every entry
    h += 0.0
    return h


def _band(n: int, diagonal, upper, lower) -> np.ndarray:
    """The n x n complex matrix with the given diagonal and first off-diagonals, each a
    scalar or a vector: every banded coupling, entry for entry as the dense sum of ladder
    operators gives it, without that sum's n x n temporaries."""
    b = np.zeros((n, n), dtype=complex)
    b.flat[::n + 1] = diagonal
    b.flat[1::n + 1] = upper
    b.flat[n::n + 1] = lower
    return b


def _ladder_roots(trunc: TruncationSpec) -> np.ndarray:
    """sqrt(k), k = 1 .. n_max - 1, as complex: the band of a, where a + a^dag is sqrt(k) + 0j."""
    return np.sqrt(np.arange(1, trunc.n_max, dtype=float)).astype(complex)


def _levels(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """The Fock diagonal of nu*n as a real vector."""
    return p.nu * np.arange(trunc.n_max, dtype=float)


def _phase_factor(phi_l: float) -> complex:
    """e^(i*phi_l), exactly +1 or -1 at the phases :func:`laser_phase_sign` names."""
    sign = laser_phase_sign(phi_l)
    return np.exp(1j * phi_l) if sign is None else complex(sign)


def h_resonant(p: IonParams, trunc: TruncationSpec, *, gauged: bool = False) -> np.ndarray:
    """Resonant ion-laser Hamiltonian in the laser-rotating frame.

    H = nu*n + Omega*[e^(i*phi_l) sigma_+ D(i*eta) + e^(-i*phi_l) sigma_- D^dag(i*eta)]

    Exact in the Lamb-Dicke parameter; requires delta = 0. The real form
    (``gauged``) needs a real drive factor Omega*e^(i*phi_l), else
    ValueError: it exists at phi_l in {0, pi}, where the factor is exactly
    +-Omega, and at Omega = 0.
    """
    if p.delta != 0.0:
        raise ValueError("h_resonant requires delta = 0 (resonant condition)")
    level = _levels(p, trunc)
    drive = p.Omega * _phase_factor(p.phi_l)
    if gauged:
        if drive.imag != 0.0:
            raise ValueError("H is not exactly real in the Fock-parity gauge diag(i^n)")
        disp = displacement_gauged(p.eta, trunc)
        return _spin_blocks(level, level, drive.real * disp)
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
    phase = _phase_factor(p.phi_l)
    # the band of Omega e^(i phi_l) 1 + i eta Omega e^(i phi_l) (a + a^dag)
    off = 1j * p.eta * p.Omega * (phase * _ladder_roots(trunc))
    return _spin_blocks(level, level, _band(trunc.n_max, p.Omega * phase, off, off))


def y_rotation() -> np.ndarray:
    """The 2x2 spin rotation R = exp(i*(pi/4)*sigma_y).

    The real rotation [[c, s], [-s, c]] with c = s = 1/sqrt(2): it maps
    sigma_x -> sigma_z and leaves sigma_+ - sigma_- invariant, so it turns
    :func:`h_lamb_dicke` into :func:`h_rabi_rotated` at phi_l in {0, pi}.

    Closed form, no matrix exponential: the exponent x = i*(pi/4)*sigma_y has
    a zero diagonal, so x @ x = c*1 with c = x_01 x_10, and
    exp(x) = cosh(sqrt(c))*1 + (sinh(sqrt(c))/sqrt(c))*x. The result equals
    ``scipy.linalg.expm`` bit for bit.
    """
    x = 1j * (np.pi / 4.0) * sigma_y()
    root = cmath.sqrt(x[0, 1] * x[1, 0])
    return cmath.cosh(root) * np.eye(2) + (cmath.sinh(root) / root) * x


def h_rabi_rotated(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Rabi-form Hamiltonian after the spin Y rotation, assembled directly.

    H = nu*n + s*[Omega*sigma_z + i*eta*Omega*(a^dag + a)*(sigma_+ - sigma_-)]

    with s = e^(i*phi_l) = :func:`laser_phase_sign`: +1 at phi_l = 0 and -1 at
    pi, the only phases supported (ValueError otherwise). It is
    R h_lamb_dicke R^dag, R = :func:`y_rotation`, which
    :func:`rotation_diagnostic` measures at both phases.
    """
    sign = laser_phase_sign(p.phi_l)
    if sign is None:
        raise ValueError(f"unsupported phase phi_l={p.phi_l!r}; expected 0 or pi")
    level = _levels(p, trunc)
    off = sign * 1j * p.eta * p.Omega * _ladder_roots(trunc)
    coupling = _band(trunc.n_max, 0.0, off, off)
    return _spin_blocks(level + sign * p.Omega, level - sign * p.Omega, coupling)


def h_jc(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Jaynes-Cummings interaction H = i*eta*Omega*(a sigma_+ - sigma_- a^dag).

    Couples |e,n> with |g,n+1>; conserves the excitation number
    n + (sigma_z + 1)/2.
    """
    zero = np.zeros(trunc.n_max)
    off = 1j * p.eta * p.Omega * _ladder_roots(trunc)
    return _spin_blocks(zero, zero, _band(trunc.n_max, 0.0, off, 0.0))


def h_ajc(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Anti-Jaynes-Cummings interaction H = -i*eta*Omega*(a sigma_- - sigma_+ a^dag).

    Couples |g,n> with |e,n+1>; conserves n - (sigma_z + 1)/2.
    """
    zero = np.zeros(trunc.n_max)
    off = 1j * p.eta * p.Omega * _ladder_roots(trunc)
    return _spin_blocks(zero, zero, _band(trunc.n_max, 0.0, 0.0, off))


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
    :func:`~ionqrm.algebra.fock_phases`, and g = P H P^dag must be given as a
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
    constant = transform_offset(p) if include_constant else 0.0
    level = _levels(p, trunc)
    # the band of (i g)(a - a^dag)
    root, scale = _ladder_roots(trunc), 1j * qrm_coupling(p)
    coupling = _band(trunc.n_max, 0.0, scale * root, scale * -root)
    d_e, d_g = level + p.Omega + constant, level - p.Omega + constant
    if not gauged:
        return _spin_blocks(d_e, d_g, coupling)
    real = gauge_parts(coupling.real, coupling.imag, trunc.n_max)
    return _spin_blocks(d_e, d_g, real)


def h_qrm_detuned(p: IonParams, trunc: TruncationSpec) -> np.ndarray:
    """Quantum Rabi Hamiltonian with the delta/2 detuning on the spin-flip blocks.

    The block matrix

        [[nu*n + Omega + nu*eta^2/4,  (i*eta*nu/2)(a - a^dag) + delta/2],
         [(i*eta*nu/2)(a - a^dag) + delta/2,  nu*n - Omega + nu*eta^2/4]]

    Reduces to ``h_qrm(include_constant=True)`` at delta = 0.
    """
    level = _levels(p, trunc) + transform_offset(p)
    root, scale = _ladder_roots(trunc), 1j * qrm_coupling(p)
    coupling = _band(trunc.n_max, p.delta / 2.0, scale * root, scale * -root)
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
    """Measure R h_lamb_dicke(phi_l) R^dag against h_rabi_rotated(phi_l) at phi_l in {0, pi}.

    R = :func:`y_rotation` on the spin. For each phase ("phi0", "phipi") it
    reports the max-entry distance of the conjugated Lamb-Dicke model from
    :func:`h_rabi_rotated` at that phase ("_to_rabi_rotated", zero to rounding)
    and from the form of the other phase ("_to_other_form", of order Omega,
    so each comparison tells the two forms apart), plus the unitarity defect
    of R. Omega, eta and nu come from p; the phase is set to each of the two.
    """
    rot = y_rotation()
    full_rot = spin_tensor_osc(rot, osc_identity(trunc))
    phases = {tag: p.replace(phi_l=phase, delta=0.0)
              for tag, phase in (("phi0", 0.0), ("phipi", math.pi))}
    forms = {tag: h_rabi_rotated(q, trunc) for tag, q in phases.items()}
    metrics = {}
    for tag, other in (("phi0", "phipi"), ("phipi", "phi0")):
        conj = full_rot @ h_lamb_dicke(phases[tag], trunc) @ full_rot.conj().T
        metrics[f"{tag}_to_rabi_rotated"] = float(np.max(np.abs(conj - forms[tag])))
        metrics[f"{tag}_to_other_form"] = float(np.max(np.abs(conj - forms[other])))
    metrics["unitarity_defect"] = float(np.max(np.abs(rot @ rot.conj().T - np.eye(2))))
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
