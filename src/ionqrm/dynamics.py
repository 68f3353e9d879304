"""Schrodinger evolution under a constant Hermitian Hamiltonian.

Propagation uses one Hermitian eigendecomposition reused for every time
point, so there is no integrator error to confound approximation-validity
studies. States are plain complex vectors on the composite space with the
spin factor outer (|e> block first).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import TruncationSpec, displacement

_HERMITIAN_TOL = 1e-10
_NORM_TOL = 1e-10
_RECORD_NORM_TOL = 1e-8


@dataclass
class EvolutionResult:
    """Per-time observable records of one trajectory.

    fidelity is populated only when a reference trajectory was supplied;
    states only when requested.
    """

    times: np.ndarray
    p_excited: np.ndarray
    mean_n: np.ndarray
    norm_residual: np.ndarray
    fidelity: np.ndarray | None = None
    states: np.ndarray | None = None


def fock_state(spin: str, n: int, trunc: TruncationSpec) -> np.ndarray:
    """Product state |spin, n> with spin "e" or "g"."""
    if spin not in ("e", "g"):
        raise ValueError(f"spin must be 'e' or 'g', got {spin!r}")
    if not 0 <= n < trunc.n_max:
        raise ValueError(f"Fock index {n} outside [0, {trunc.n_max})")
    psi = np.zeros(2 * trunc.n_max, dtype=complex)
    psi[(0 if spin == "e" else trunc.n_max) + n] = 1.0
    return psi


def coherent_state(spin: str, alpha: complex, trunc: TruncationSpec) -> np.ndarray:
    """Product state |spin> (x) |alpha>, the coherent state from a displacement column.

    The amplitudes are column 0 of the cached-basis displacement, so the
    state is normalized exactly on the truncated space.
    """
    if spin not in ("e", "g"):
        raise ValueError(f"spin must be 'e' or 'g', got {spin!r}")
    psi = np.zeros(2 * trunc.n_max, dtype=complex)
    offset = 0 if spin == "e" else trunc.n_max
    psi[offset:offset + trunc.n_max] = displacement(alpha, trunc)[:, 0]
    return psi


def expectation(op: np.ndarray, psi: np.ndarray) -> complex:
    """<psi| op |psi>; real up to rounding when op is Hermitian."""
    op = np.asarray(op)
    psi = np.asarray(psi)
    if op.shape != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: op {op.shape} vs state {psi.shape}")
    return complex(np.vdot(psi, op @ psi))


def fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """|<psi|phi>|^2 between two normalized states."""
    psi = np.asarray(psi)
    phi = np.asarray(phi)
    if psi.shape != phi.shape:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {phi.shape}")
    for name, v in (("psi", psi), ("phi", phi)):
        if abs(np.linalg.norm(v) - 1.0) > _NORM_TOL:
            raise ValueError(f"{name} is not normalized")
    return float(abs(np.vdot(psi, phi)) ** 2)


def propagate(
    h: np.ndarray,
    psi0: np.ndarray,
    times: np.ndarray,
    reference: np.ndarray | None = None,
    store_states: bool = False,
) -> EvolutionResult:
    """Evolve psi0 under exp(-i*H*t) and record observables at each time.

    Parameters
    ----------
    h : Hermitian matrix on the composite space (dimension 2*n_osc).
    psi0 : normalized initial state.
    times : strictly increasing time points.
    reference : optional array of states, shape (len(times), dim); when
        given, per-time fidelities |<ref|psi>|^2 are recorded.
    store_states : keep the full trajectory in the result.

    The Hamiltonian is diagonalized once; the eigendecomposition residual
    and the norm of every evolved state are checked so a violation fails
    loudly instead of polluting downstream records.
    """
    h = np.asarray(h, dtype=complex)
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    dim = psi0.size
    if h.shape != (dim, dim):
        raise ValueError(f"dimension mismatch: H {h.shape} vs state {dim}")
    if dim % 2 != 0:
        raise ValueError("state dimension must be 2*n_osc (spin outer)")
    if np.max(np.abs(h - h.conj().T)) > _HERMITIAN_TOL * max(1.0, np.max(np.abs(h))):
        raise ValueError("H is not Hermitian within tolerance")
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-d array")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    if abs(np.linalg.norm(psi0) - 1.0) > _NORM_TOL:
        raise ValueError("initial state is not normalized")
    if reference is not None:
        reference = np.asarray(reference, dtype=complex)
        if reference.shape != (times.size, dim):
            raise ValueError(
                f"reference trajectory shape {reference.shape} != {(times.size, dim)}"
            )

    w, v = np.linalg.eigh(h)
    h_norm = np.linalg.norm(h)
    if h_norm > 0:
        residual = np.linalg.norm(h @ v - v * w)
        if residual > 1e-9 * h_norm:
            raise ArithmeticError(f"eigendecomposition residual {residual:.3e} too large")

    n_osc = dim // 2
    n_diag = np.concatenate([np.arange(n_osc), np.arange(n_osc)])
    coeffs = v.conj().T @ psi0
    # all times at once: states[t] = V exp(-i w t) V^dag psi0
    phases = np.exp(-1j * np.outer(times, w))
    states = (phases * coeffs[None, :]) @ v.T

    norms = np.linalg.norm(states, axis=1)
    norm_residual = np.abs(norms - 1.0)
    if np.max(norm_residual) > _RECORD_NORM_TOL:
        raise ArithmeticError(f"norm drift {np.max(norm_residual):.3e} exceeds tolerance")

    probs = np.abs(states) ** 2
    p_excited = probs[:, :n_osc].sum(axis=1)
    if np.max(p_excited) > 1.0 + _NORM_TOL or np.min(p_excited) < -_NORM_TOL:
        raise ArithmeticError("excited-state population outside [0, 1]")
    mean_n = probs @ n_diag

    fid = None
    if reference is not None:
        fid = np.abs(np.einsum("td,td->t", reference.conj(), states)) ** 2

    return EvolutionResult(
        times=times,
        p_excited=p_excited,
        mean_n=mean_n,
        norm_residual=norm_residual,
        fidelity=fid,
        states=states if store_states else None,
    )
