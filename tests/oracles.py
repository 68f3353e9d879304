"""Operators and predicates that only the tests use.

The package builds every Hamiltonian from Fock diagonals and one coupling
block, so it needs neither a number operator nor a table of spin operators.
The tests still write the models' docstring formulas as dense sums of
``spin_tensor_osc`` terms and check Hermiticity, unitarity and expectation
values; those helpers live here. So do the dense Fock-parity gauge of a whole
matrix, which the package applies only inside ``dynamics.block_eigh``, and
the fidelity of two states, and the pass rule of a report's gate rows.
"""
from enum import Enum

import numpy as np

from ionqrm.algebra import _require_square, annihilation, gauge_is_real, gauge_parts
from ionqrm.params import TruncationSpec


class Spin(Enum):
    """Names for the elementary two-level operators."""

    Z = "z"
    PLUS = "+"
    MINUS = "-"
    X = "x"
    Y = "y"
    IDENTITY = "1"


_SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
_SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
_SPIN_TABLE = {
    Spin.Z: np.diag([1.0, -1.0]).astype(complex),
    Spin.PLUS: _SIGMA_PLUS,
    Spin.MINUS: _SIGMA_MINUS,
    Spin.X: _SIGMA_PLUS + _SIGMA_MINUS,
    Spin.Y: 1j * _SIGMA_MINUS - _SIGMA_PLUS,
    Spin.IDENTITY: np.eye(2, dtype=complex),
}


def pauli(s: Spin) -> np.ndarray:
    """Two-level operator in the (|e>, |g>) basis.

    ``Spin.Y`` is the literal ``i*sigma_- - sigma_+``, test data for the
    embedding tests; it is NOT Hermitian and differs from the package's
    Pauli-Y (``algebra.sigma_y()``).
    """
    return _SPIN_TABLE[s].copy()


def creation(trunc: TruncationSpec) -> np.ndarray:
    """Ladder operator a^dagger on the truncated Fock space."""
    return annihilation(trunc).conj().T


def number_op(trunc: TruncationSpec) -> np.ndarray:
    """Number operator diag(0, 1, ..., n_max-1).

    Equals dagger(a) @ a at every entry including the truncation edge
    (the edge defect of the truncated algebra sits in a @ dagger(a)).
    """
    return np.diag(np.arange(trunc.n_max, dtype=float)).astype(complex)


def is_hermitian(a: np.ndarray, tol: float = 1e-12) -> bool:
    a = _require_square(a)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_unitary(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = _require_square(a)
    return bool(np.max(np.abs(a @ a.conj().T - np.eye(a.shape[0]))) <= tol)


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
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValueError(f"{name} is not normalized")
    return float(abs(np.vdot(psi, phi)) ** 2)


def fock_gauge(h: np.ndarray, n_osc: int) -> np.ndarray | None:
    """P h P^dagger for the Fock-parity gauge P = diag(i^n), or None when it is not exactly real.

    Index k of h has Fock index k mod n_osc: pass n_osc = dim(h) for an
    oscillator operator, and dim(h)/2 for a composite one, where P acts on
    both spin blocks. The exactness test is
    :func:`~ionqrm.algebra.gauge_is_real` and the map
    :func:`~ionqrm.algebra.gauge_parts`. D(i*r) passes it (see
    ``algebra.displacement``), and so does every builder at phi_l = 0.

    Returns the real matrix P h P^dagger, whose entries are those of h up to
    sign: the one nonzero part of each entry keeps its magnitude.
    """
    h = np.ascontiguousarray(h, dtype=complex)
    dim = h.shape[0]
    if h.shape != (dim, dim) or n_osc < 1 or dim % n_osc:
        raise ValueError(f"h must be square with a multiple of {n_osc} rows, got {h.shape}")
    if not gauge_is_real(h.view(np.float64) != 0, n_osc):
        return None
    return gauge_parts(h.real, h.imag, n_osc)


def rows_hold(report) -> bool:
    """Every ``(metric, comparison, bound)`` row of ``report`` holds, written out here
    apart from ``analysis.gates_hold``: a comparison with a NaN is False."""
    holds = {"<=": lambda x, b: x <= b, "<": lambda x, b: x < b, ">=": lambda x, b: x >= b}
    return all(holds[op](report.metrics[metric], bound) for metric, op, bound in report.gates)
