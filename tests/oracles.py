"""Operators and predicates that only the tests use.

The package builds every Hamiltonian from Fock diagonals and one coupling
block, so it needs neither a number operator nor a table of spin operators.
The tests still write the models' docstring formulas as dense sums of
``spin_tensor_osc`` terms and check Hermiticity, unitarity and expectation
values; those helpers live here.
"""
from enum import Enum

import numpy as np

from ionqrm.algebra import _require_square, annihilation, sigma_y
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
    Spin.Y: sigma_y("alt"),
    Spin.IDENTITY: np.eye(2, dtype=complex),
}


def pauli(s: Spin) -> np.ndarray:
    """Two-level operator in the (|e>, |g>) basis.

    ``Spin.Y`` returns the ``i*sigma_- - sigma_+`` variant that appears in
    some trapped-ion derivations; note it is NOT Hermitian and differs from
    the conventional Pauli-Y (``sigma_y("standard")``).
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
