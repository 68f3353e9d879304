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
* Operators are plain complex ``numpy.ndarray`` matrices; gauge-real forms (below) are real.

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

The Fock-parity gauge P = diag(i^n) is defined once, here: :func:`fock_phases`
is its diagonal and :func:`gauge_parts` the sign map from the real and
imaginary parts of M to the real array P M P^dagger. :func:`fock_gauge` maps a
built complex H (the eigensolver in ``dynamics``); :func:`displacement_gauged`
maps D(i*r)'s cos and sin parts, so the transform identity in ``models`` never
forms a complex displacement.

``import ionqrm`` loads nothing heavy: the package resolves each public name
on first use, and the ``regime`` command never loads numpy. Only the
Laguerre oracle loads scipy: it imports ``scipy.special`` on first use, so
of the CLI commands only ``all-checks`` loads scipy, and none loads
``scipy.linalg``.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .params import DEFAULT_TRUNC, TruncationSpec  # noqa: F401 - re-exported from here


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def annihilation(trunc: TruncationSpec) -> np.ndarray:
    """Ladder operator a on the truncated Fock space: a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, trunc.n_max, dtype=float)), 1).astype(complex)


def osc_identity(trunc: TruncationSpec) -> np.ndarray:
    return np.eye(trunc.n_max, dtype=complex)


_SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
_SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
_SIGMA_Y_STANDARD = 1j * (_SIGMA_MINUS - _SIGMA_PLUS)
_SIGMA_Y_ALT = 1j * _SIGMA_MINUS - _SIGMA_PLUS


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


def _displacement_parts(r: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(sqrt(2)*r*X) and sin(sqrt(2)*r*X): the real and imaginary parts of D(i*r)."""
    x, v = displacement_basis(n_max)
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
    return cos_part, sin_part


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
    exactly real: :func:`fock_gauge` finds it so in a complex H built from
    D (``dynamics.block_eigh``), and :func:`displacement_gauged` writes it
    as a real array directly (``h_resonant``'s real form, ``qrm_conjugate``).
    """
    alpha = complex(alpha)
    r = alpha.imag if alpha.real == 0.0 else abs(alpha)
    cos_part, sin_part = _displacement_parts(r, trunc.n_max)
    out = cos_part + 1j * sin_part
    if alpha.real != 0.0:
        phase = np.exp(1j * (np.angle(alpha) - np.pi / 2.0) * np.arange(trunc.n_max))
        out *= np.outer(phase, phase.conj())
    return out


def displacement_gauged(r: float, trunc: TruncationSpec) -> np.ndarray:
    """P D(i*r) P^dagger as a real array, P = diag(i^n) the Fock-parity gauge.

    Equals ``fock_gauge(displacement(1j * r, trunc), trunc.n_max)`` entry for
    entry, written from the same cos and sin parts without a complex array.
    """
    return gauge_parts(*_displacement_parts(r, trunc.n_max), trunc.n_max)


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

    m = np.arange(trunc.n_max)[:, None]
    n = np.arange(trunc.n_max)[None, :]
    lo, hi = np.minimum(m, n), np.maximum(m, n)
    aa = abs(alpha) ** 2
    # on and below the diagonal (m >= n) the base is alpha, above it -conj(alpha)
    base = np.where(m >= n, complex(alpha), -np.conj(alpha))
    pref = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)) - aa / 2.0)
    return pref * base ** (hi - lo) * eval_genlaguerre(lo, hi - lo, aa)


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


def _gauge_is_real(h: np.ndarray, n_osc: int) -> bool:
    """Whether h is exactly real for even m - n and imaginary for odd m - n (see fock_gauge)."""
    dim = h.shape[0]
    # axis 4 of the float view splits each entry into (Re, Im)
    nz = (h.view(np.float64) != 0).reshape((dim // n_osc, n_osc) * 2 + (2,))
    parts = ((0, 0, 1), (1, 1, 1), (0, 1, 0), (1, 0, 0))  # (row parity, column parity, Re/Im)
    return not any(nz[:, a::2, :, b::2, c].any() for a, b, c in parts)


def fock_phases(dim: int, n_osc: int) -> np.ndarray:
    """Diagonal of the Fock-parity gauge P = diag(i^n): i^(k mod n_osc) at each index k < dim."""
    return np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(dim) % n_osc % 4]


def gauge_parts(re: np.ndarray, im: np.ndarray, n_osc: int) -> np.ndarray:
    """P (re + i*im) P^dagger as a real array, for parts that make it exactly real.

    It does not test exactness; :func:`fock_gauge` does, before it calls this.
    """
    # i^(m-n) h_kl = t_k t_l (re h_kl + s_k im h_kl) with s_k = (-1)^m and, from
    # p_k = i^m, t_k = Re p_k + Im p_k = (-1)^(m//2) and t_k s_k = Re p_k - Im p_k
    p = fock_phases(re.shape[0], n_osc)
    t = p.real + p.imag
    real = im * (p.real - p.imag)[:, None]
    real += re * t[:, None]
    real *= t
    return real


def fock_gauge(h: np.ndarray, n_osc: int) -> np.ndarray | None:
    """P h P^dagger for the Fock-parity gauge P = diag(i^n), or None when it is not exactly real.

    Index k of h has Fock index k mod n_osc (:func:`fock_phases`): pass
    n_osc = dim(h) for an oscillator operator, and dim(h)/2 for a composite
    one, where P acts on both spin blocks. Entry (k, l) of P h P^dagger is
    i^(m-n) h_kl for the Fock indices m, n of k and l. It is exactly real when
    h_kl is real for even m - n and imaginary for odd m - n; the test reads
    exact zeros, not a tolerance. D(i*r) passes it (see :func:`displacement`),
    and so does every builder at phi_l = 0.

    Returns the real matrix P h P^dagger, whose entries are those of h up to
    sign: the one nonzero part of each entry keeps its magnitude.
    """
    h = np.ascontiguousarray(h, dtype=complex)
    dim = h.shape[0]
    if h.shape != (dim, dim) or n_osc < 1 or dim % n_osc:
        raise ValueError(f"h must be square with a multiple of {n_osc} rows, got {h.shape}")
    if not _gauge_is_real(h, n_osc):
        return None
    return gauge_parts(h.real, h.imag, n_osc)
