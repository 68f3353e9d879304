"""Elementary operators on truncated spin and oscillator Hilbert spaces.

Conventions used throughout the package:

* Fock states are indexed from 0; an oscillator space with cutoff ``n_max``
  has dimension ``n_max``.
* The two-level (spin) basis is (|e>, |g>) = (index 0, index 1), so
  sigma_z = diag(1, -1), sigma_+ = |e><g|, sigma_- = |g><e|, and
  sigma_y = i*(sigma_- - sigma_+) is the Hermitian Pauli-Y (the one
  convention: ``models.y_rotation`` exponentiates it).
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
  m - n is odd and its imaginary part exactly zero where m - n is even. It
  is exactly symmetric too. :func:`displacement_column` gives its column 0,
  the coherent state, from two matrix-vector products in the same basis.
* :func:`displacement_generator` exponentiates the generator directly (also
  exactly unitary on the truncated space, one complex ``eigh`` per call).
* :func:`displacement_laguerre` evaluates the closed-form Fock matrix
  elements in terms of associated Laguerre polynomials (exact
  infinite-dimensional elements, not unitary at the truncation edge).

The checks compare all three.

The Fock-parity gauge P = diag(i^n) is defined once, here: :func:`fock_phases`
is its diagonal, :func:`gauge_is_real` tests from the exact nonzero pattern of
M whether P M P^dagger is real, and :func:`gauge_parts` is the sign map from
the real and imaginary parts of M to that real array. ``dynamics.block_eigh``
applies both to the blocks of a complex H; :func:`displacement_gauged` maps D(i*r)'s
cos and sin parts, so the transform identity in ``models`` never forms a
complex displacement.

``import ionqrm`` loads nothing heavy: the package resolves each public name
on first use, and the ``regime`` command never loads numpy. The package
needs numpy and the standard library only; the Laguerre oracle computes its
polynomials by recurrence, so no command, ``all-checks`` included, loads scipy.
A run loads numpy's core, ``numpy.linalg`` and, for the frequency checks,
``numpy.fft``; never ``numpy.random`` or ``numpy.ma``. The seeded checks draw
from ``analysis``'s own PCG64 stream, equal to ``np.random.default_rng(seed)``.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .params import TruncationSpec


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


def sigma_y() -> np.ndarray:
    """The Hermitian Pauli-Y, i*(sigma_- - sigma_+) = [[0, -i], [i, 0]] in the (|e>, |g>) basis."""
    return np.array([[0, -1j], [1j, 0]])


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
    # written "not <=" so that a NaN fails the test
    if not np.max(np.abs(herm - herm.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(herm))):
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


@lru_cache(maxsize=8)
def _upper_triangle(n_max: int) -> np.ndarray:
    """Read-only mask of the entries above the diagonal of an n_max x n_max matrix."""
    mask = np.triu(np.ones((n_max, n_max), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


def _displacement_parts(r: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(sqrt(2)*r*X) and sin(sqrt(2)*r*X): the real and imaginary parts of D(i*r).

    Both are exactly symmetric, and both vanish exactly where X's parity says so.
    """
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
    # a product is symmetric only up to rounding: mirror the lower triangle, so
    # column 0 (the coherent state) keeps its bits and D(i*r) = D(i*r)^T exactly
    upper = _upper_triangle(n_max)
    np.copyto(cos_part, cos_part.T, where=upper)
    np.copyto(sin_part, sin_part.T, where=upper)
    return cos_part, sin_part


def _radius_and_phase(alpha: complex, n_max: int) -> tuple[float, np.ndarray | None]:
    """r and the Fock phase diag(u^k), u = -i*alpha/|alpha|, with D(alpha) = P D(i*r) P^dagger.

    An imaginary alpha = i*r needs no phase (None), and r keeps its sign.
    """
    alpha = complex(alpha)
    if alpha.real == 0.0:
        return alpha.imag, None
    return abs(alpha), np.exp(1j * (np.angle(alpha) - np.pi / 2.0) * np.arange(n_max))


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
    exactly real: :func:`gauge_is_real` finds it so in a complex H built from
    D (``dynamics.block_eigh``), and :func:`displacement_gauged` writes it
    as a real array directly (``h_resonant``'s real form, ``qrm_conjugate``).

    D(i*r) is also exactly symmetric, D_mn = D_nm bit for bit, as
    exp(i*sqrt(2)*r*X) is for the real symmetric X: the upper triangle is
    the mirror of the lower one, whose column 0 (the coherent state) is the
    product as computed. So P D(i*r) P = D(i*r)^dagger holds exactly for
    P = diag((-1)^n), and H of ``h_resonant`` at phi_l in {0, pi} commutes
    exactly with sigma_x (x) P, the symmetry ``dynamics.block_eigh`` splits by.
    """
    r, phase = _radius_and_phase(alpha, trunc.n_max)
    cos_part, sin_part = _displacement_parts(r, trunc.n_max)
    out = cos_part + 1j * sin_part
    if phase is not None:
        out *= np.outer(phase, phase.conj())
    return out


def displacement_column(alpha: complex, trunc: TruncationSpec) -> np.ndarray:
    """Column 0 of :func:`displacement` (alpha, trunc): the coherent state |alpha>.

    Column 0 of V diag(f(x_k)) V^T is V (f(x_k) V_0k), so two matrix-vector
    products give it, with the exact zeros of the Fock parity; it agrees
    with the column of the two matrix products to rounding.
    """
    r, phase = _radius_and_phase(alpha, trunc.n_max)
    x, v = displacement_basis(trunc.n_max)
    theta = np.sqrt(2.0) * r * x
    col = np.empty(trunc.n_max, dtype=complex)
    col.real = v @ (np.cos(theta) * v[0])
    col.imag = v @ (np.sin(theta) * v[0])
    col.real[1::2] = 0.0
    col.imag[::2] = 0.0
    if phase is not None:
        col *= phase
    return col


def displacement_gauged(r: float, trunc: TruncationSpec) -> np.ndarray:
    """P D(i*r) P^dagger as a real array, P = diag(i^n) the Fock-parity gauge.

    Equals :func:`gauge_parts` of the real and imaginary parts of
    ``displacement(1j * r, trunc)`` entry for entry, written from the same
    cos and sin parts without a complex array.
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
    for m >= n, and the adjoint-symmetric expression below the diagonal
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)). The Laguerre values come
    from the three-term recurrence in the degree j (Abramowitz & Stegun 22.7.12),
    (j+1) L_(j+1)^(k)(x) = (2j+k+1-x) L_j^(k)(x) - (j+k) L_(j-1)^(k)(x),
    run for every order k at once; it shares nothing with :func:`displacement`
    or :func:`displacement_basis`. These are the exact infinite-dimensional
    matrix elements, truncated, so the result is NOT unitary at the truncation
    edge; it serves as an independent cross-check of :func:`displacement`.
    """
    n_max = trunc.n_max
    aa = abs(alpha) ** 2
    k = np.arange(n_max, dtype=float)
    # table[j, k] = L_j^(k)(|alpha|^2)
    table = np.empty((n_max, n_max))
    table[0] = 1.0
    if n_max > 1:
        table[1] = 1.0 + k - aa
    for j in range(1, n_max - 1):
        table[j + 1] = ((2 * j + 1 + k - aa) * table[j] - (j + k) * table[j - 1]) / (j + 1)

    m = np.arange(n_max)[:, None]
    n = np.arange(n_max)[None, :]
    lo, hi = np.minimum(m, n), np.maximum(m, n)
    log_fact = np.array([math.lgamma(i + 1) for i in range(n_max)])
    # on and below the diagonal (m >= n) the base is alpha, above it -conj(alpha)
    base = np.where(m >= n, complex(alpha), -np.conj(alpha))
    pref = np.exp(0.5 * (log_fact[lo] - log_fact[hi]) - aa / 2.0)
    return pref * base ** (hi - lo) * table[lo, hi - lo]


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


def gauge_is_real(nonzero: np.ndarray, n_osc: int) -> bool:
    """Whether P h P^dagger is exactly real, P = diag(i^n), from ``h.view(np.float64) != 0``.

    Index k of h has Fock index k mod n_osc (:func:`fock_phases`), and entry
    (k, l) of P h P^dagger is i^(m-n) h_kl for the Fock indices m, n of k and
    l. It is exactly real when h_kl is real for even m - n and imaginary for
    odd m - n; the test reads exact zeros, not a tolerance.
    """
    dim = nonzero.shape[0]
    nz = nonzero.reshape((dim // n_osc, n_osc) * 2 + (2,))  # axis 4: (Re, Im)
    parts = ((0, 0, 1), (1, 1, 1), (0, 1, 0), (1, 0, 0))  # (row parity, column parity, Re/Im)
    return not any(nz[:, a::2, :, b::2, c].any() for a, b, c in parts)


def fock_phases(dim: int, n_osc: int) -> np.ndarray:
    """Diagonal of the Fock-parity gauge P = diag(i^n): i^(k mod n_osc) at each index k < dim."""
    return np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(dim) % n_osc % 4]


def gauge_parts(re: np.ndarray, im: np.ndarray, n_osc: int, index=None) -> np.ndarray:
    """P (re + i*im) P^dagger as a real array, for parts that make it exactly real.

    re and im are a square matrix's parts, or with ``index`` those of a composite
    matrix M (dimension 2*n_osc) at ``M[index]``, for an index pair of integer
    arrays (rows, columns) that broadcast against them: each entry takes the
    phases of its own row and column. It does not test exactness;
    :func:`gauge_is_real` does, before this is called.
    """
    # i^(m-n) h_kl = t_k t_l (re h_kl + s_k im h_kl) with s_k = (-1)^m and, from
    # p_k = i^m, t_k = Re p_k + Im p_k = (-1)^(m//2) and t_k s_k = Re p_k - Im p_k
    p = fock_phases(re.shape[0] if index is None else 2 * n_osc, n_osc)
    rows, cols = (p[:, None], p) if index is None else (p[index[0]], p[index[1]])
    real = im * (rows.real - rows.imag)
    real += re * (rows.real + rows.imag)
    real *= cols.real + cols.imag
    return real
