"""Elementary operators on truncated spin and oscillator Hilbert spaces.

Conventions used throughout the package:

* Fock states are indexed from 0; an oscillator space with cutoff ``n_max``
  has dimension ``n_max``.
* The two-level (spin) basis is (|e>, |g>) = (index 0, index 1), so
  sigma_z = diag(1, -1), sigma_+ = |e><g|, sigma_- = |g><e|.
* Composite operators put the spin factor on the outer (slow) index:
  block (i, j) of ``spin_tensor_osc(s, m)`` equals ``s[i, j] * m``, so a
  2x2 block matrix written over the spin states is literally the block
  structure of the assembled array.
* Operators are plain complex ``numpy.ndarray`` matrices.

The displacement operator has one production construction and two oracles:

* :func:`displacement`, used by every builder, diagonalizes the truncated
  quadrature X = (a + a^dagger)/sqrt(2) once per ``n_max`` (its eigenvectors
  are the Gauss-Hermite node/weight basis of Golub & Welsch, Math. Comp. 23,
  221 (1969)) and writes D(i*r) = exp(i*sqrt(2)*r*X) in that cached basis.
  A general alpha is a diagonal Fock phase away from D(i*|alpha|). The
  result is exactly unitary on the truncated space, and D(i*r) keeps the
  exact Fock parity of the operator: its real part is exactly zero where
  m - n is odd and its imaginary part exactly zero where m - n is even.
* :func:`displacement_generator` exponentiates the generator directly (also
  exactly unitary on the truncated space, one complex ``eigh`` per call).
* :func:`displacement_laguerre` evaluates the closed-form Fock matrix
  elements in terms of associated Laguerre polynomials (exact
  infinite-dimensional elements, not unitary at the truncation edge).

The checks compare all three.

``import ionqrm`` needs numpy only: the Laguerre oracle imports
``scipy.special`` on first use, and so does ``models.y_rotation`` with
``scipy.linalg``. Of the CLI commands only ``all-checks`` and ``verify``
with the ``jc-rabi`` or ``rotation`` check load scipy.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np


class Spin(Enum):
    """Names for the elementary two-level operators."""

    Z = "z"
    PLUS = "+"
    MINUS = "-"
    X = "x"
    Y = "y"
    IDENTITY = "1"


@dataclass(frozen=True)
class TruncationSpec:
    """Oscillator Fock cutoff plus an interior guard band.

    ``guard`` is the number of top Fock levels excluded from interior
    comparisons, so truncation artifacts at the edge do not pollute
    operator-identity checks.
    """

    n_max: int
    guard: int = 0

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max >= 1 violated (got {self.n_max})")
        if not 0 <= self.guard < self.n_max:
            raise ValueError(
                f"0 <= guard < n_max violated (got guard={self.guard}, n_max={self.n_max})"
            )

    @property
    def interior_dim(self) -> int:
        return self.n_max - self.guard


#: Default truncation for verification tasks.
DEFAULT_TRUNC = TruncationSpec(n_max=64, guard=16)


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def annihilation(trunc: TruncationSpec) -> np.ndarray:
    """Ladder operator a on the truncated Fock space: a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, trunc.n_max, dtype=float)), 1).astype(complex)


def creation(trunc: TruncationSpec) -> np.ndarray:
    """Ladder operator a^dagger on the truncated Fock space."""
    return annihilation(trunc).conj().T


def number_op(trunc: TruncationSpec) -> np.ndarray:
    """Number operator diag(0, 1, ..., n_max-1).

    Equals dagger(a) @ a at every entry including the truncation edge
    (the edge defect of the truncated algebra sits in a @ dagger(a)).
    """
    return np.diag(np.arange(trunc.n_max, dtype=float)).astype(complex)


def osc_identity(trunc: TruncationSpec) -> np.ndarray:
    return np.eye(trunc.n_max, dtype=complex)


_SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
_SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
_SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
_SIGMA_X = _SIGMA_PLUS + _SIGMA_MINUS
_SIGMA_Y_STANDARD = 1j * (_SIGMA_MINUS - _SIGMA_PLUS)
_SIGMA_Y_ALT = 1j * _SIGMA_MINUS - _SIGMA_PLUS
_SPIN_IDENTITY = np.eye(2, dtype=complex)


def pauli(s: Spin) -> np.ndarray:
    """Two-level operator in the (|e>, |g>) basis.

    ``Spin.Y`` returns the ``i*sigma_- - sigma_+`` variant that appears in
    some trapped-ion derivations; note it is NOT Hermitian and differs from
    the conventional Pauli-Y (``sigma_y("standard")``).
    """
    table = {
        Spin.Z: _SIGMA_Z,
        Spin.PLUS: _SIGMA_PLUS,
        Spin.MINUS: _SIGMA_MINUS,
        Spin.X: _SIGMA_X,
        Spin.Y: _SIGMA_Y_ALT,
        Spin.IDENTITY: _SPIN_IDENTITY,
    }
    return table[s].copy()


def sigma_y(convention: str = "standard") -> np.ndarray:
    """Pauli-Y under the chosen convention.

    "standard": i*(sigma_- - sigma_+), the Hermitian Pauli matrix.
    "alt":      i*sigma_- - sigma_+, the non-Hermitian variant; kept so the
                rotation diagnostics can arbitrate between the two.
    """
    if convention == "standard":
        return _SIGMA_Y_STANDARD.copy()
    if convention == "alt":
        return _SIGMA_Y_ALT.copy()
    raise ValueError(f"unknown sigma_y convention: {convention!r}")


def dagger(a: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return np.asarray(a).conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = _require_square(a, "a")
    b = _require_square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def is_hermitian(a: np.ndarray, tol: float = 1e-12) -> bool:
    a = _require_square(a)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_unitary(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = _require_square(a)
    return bool(np.max(np.abs(a @ a.conj().T - np.eye(a.shape[0]))) <= tol)


def unitary_expm(generator: np.ndarray) -> np.ndarray:
    """exp(G) for an anti-Hermitian generator G.

    Computed through the eigendecomposition of the Hermitian matrix i*G, so
    the result is unitary to machine precision on the truncated space (a
    property downstream transformation identities rely on).
    """
    g = _require_square(generator, "generator")
    herm = 1j * g
    if np.max(np.abs(herm - herm.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(herm))):
        raise ValueError("generator must be anti-Hermitian")
    w, v = np.linalg.eigh(herm)
    return (v * np.exp(-1j * w)) @ v.conj().T


@lru_cache(maxsize=8)
def displacement_basis(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (x_k, V) of the truncated quadrature (a + a^dagger)/sqrt(2).

    X is real symmetric tridiagonal with off-diagonal sqrt(k/2), so one real
    ``eigh`` per cutoff gives real nodes x_k (the Gauss-Hermite nodes) and a
    real orthogonal V. Cached per ``n_max``; both arrays are read-only.
    """
    if n_max < 1:
        raise ValueError(f"n_max >= 1 violated (got {n_max})")
    off = np.sqrt(np.arange(1, n_max, dtype=float) / 2.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    x.setflags(write=False)
    v.setflags(write=False)
    return x, v


def displacement(alpha: complex, trunc: TruncationSpec) -> np.ndarray:
    """Displacement operator exp(alpha*a^dagger - conj(alpha)*a) in the cached X basis.

    D(i*r) = V diag(exp(i*sqrt(2)*r*x_k)) V^T with (x_k, V) from
    :func:`displacement_basis`. A general alpha uses the Fock phase
    P = diag(u^k), u = -i*alpha/|alpha|, which maps a -> conj(u)*a, so
    D(alpha) = P D(i*|alpha|) P^dagger. Exactly unitary on the truncated
    space; no diagonalization after the first call per ``n_max``.

    D(i*r) has the exact Fock parity of the infinite-dimensional operator:
    <m|D(i*r)|n> is real where m - n is even and imaginary where it is odd,
    with the other part exactly zero, not rounding noise. So i^(m-n) D_mn is
    exactly real, which lets :func:`~ionqrm.dynamics.block_eigh` treat the
    resonant Hamiltonian as a real symmetric matrix.
    """
    alpha = complex(alpha)
    x, v = displacement_basis(trunc.n_max)
    r = alpha.imag if alpha.real == 0.0 else abs(alpha)
    theta = np.sqrt(2.0) * r * x
    # V is real: two real products instead of one complex one
    cos_part = (v * np.cos(theta)) @ v.T
    sin_part = (v * np.sin(theta)) @ v.T
    # X links n only to n +- 1, so cos(sqrt2 r X) vanishes where m - n is odd and
    # sin(sqrt2 r X) where it is even: write those zeros exactly, not as rounding
    cos_part[::2, 1::2] = 0.0
    cos_part[1::2, ::2] = 0.0
    sin_part[::2, ::2] = 0.0
    sin_part[1::2, 1::2] = 0.0
    out = cos_part + 1j * sin_part
    if alpha.real != 0.0:
        phase = np.exp(1j * (np.angle(alpha) - np.pi / 2.0) * np.arange(trunc.n_max))
        out *= np.outer(phase, phase.conj())
    return out


def displacement_generator(alpha: complex, trunc: TruncationSpec) -> np.ndarray:
    """Displacement operator exp(alpha*a^dagger - conj(alpha)*a), the generator oracle.

    Exactly unitary on the truncated space by construction; one complex
    ``eigh`` per call, so production code uses :func:`displacement`.
    """
    a = annihilation(trunc)
    return unitary_expm(alpha * a.conj().T - np.conj(alpha) * a)


def displacement_laguerre(alpha: complex, trunc: TruncationSpec) -> np.ndarray:
    """Displacement operator from its closed-form Fock matrix elements.

    <m|D(alpha)|n> = sqrt(n!/m!) alpha^(m-n) e^(-|alpha|^2/2) L_n^(m-n)(|alpha|^2)
    for m >= n, and the adjoint-symmetric expression below the diagonal.
    These are the exact infinite-dimensional matrix elements, truncated, so
    the result is NOT unitary at the truncation edge; it serves as an
    independent cross-check of :func:`displacement`.
    """
    # local import: only this oracle needs scipy, so `import ionqrm` stays numpy-only
    from scipy.special import eval_genlaguerre, gammaln

    n_max = trunc.n_max
    aa = abs(alpha) ** 2
    out = np.zeros((n_max, n_max), dtype=complex)
    m_idx = np.arange(n_max)
    for n in range(n_max):
        # upper-left to diagonal: rows m >= n
        rows = m_idx[n:]
        pref = np.exp(0.5 * (gammaln(n + 1) - gammaln(rows + 1)) - aa / 2.0)
        out[rows, n] = pref * alpha ** (rows - n) * eval_genlaguerre(n, rows - n, aa)
        rows = m_idx[:n]
        pref = np.exp(0.5 * (gammaln(rows + 1) - gammaln(n + 1)) - aa / 2.0)
        out[rows, n] = pref * (-np.conj(alpha)) ** (n - rows) * eval_genlaguerre(rows, n - rows, aa)
    return out


def spin_tensor_osc(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Embed a 2x2 spin operator and an oscillator operator in the composite space.

    Spin is the outer (slow) index: the result has dimension 2*dim(m) and
    block (i, j) equals s[i, j] * m.
    """
    s = _require_square(s, "spin operator")
    m = _require_square(m, "oscillator operator")
    if s.shape != (2, 2):
        raise ValueError(f"spin operator must be 2x2, got {s.shape}")
    n = m.shape[0]
    # same single product per entry as np.kron, without its generic axis shuffling
    return (s[:, None, :, None] * m[None, :, None, :]).reshape(2 * n, 2 * n)


def interior_block(a: np.ndarray, trunc: TruncationSpec) -> np.ndarray:
    """Strip guarded top Fock levels from an oscillator or composite matrix.

    Rows/columns with Fock index >= n_max - guard are removed; for a
    composite (2*n_max) matrix the guard strips the top of each spin block.
    """
    a = _require_square(a)
    k = trunc.interior_dim
    if a.shape[0] == trunc.n_max:
        return a[:k, :k].copy()
    if a.shape[0] == 2 * trunc.n_max:
        idx = np.r_[0:k, trunc.n_max:trunc.n_max + k]
        return a[np.ix_(idx, idx)].copy()
    raise ValueError(
        f"matrix dimension {a.shape[0]} matches neither n_max={trunc.n_max} "
        f"nor 2*n_max={2 * trunc.n_max}"
    )
