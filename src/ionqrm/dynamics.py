"""Schrodinger evolution under a constant Hermitian Hamiltonian.

Propagation diagonalizes H once and reuses the eigenpairs for every time
point, so there is no integrator error to confound approximation-validity
studies. States are plain complex vectors on the composite space with the
spin factor outer (|e> block first).

:func:`block_eigh` is the one reader of H, and diagonalizes it using only
structure that H has exactly. No tolerance enters the structure: an entry
counts as zero only when it is exactly zero, so the result is the dense
decomposition up to rounding.

* Gauge. When P H P^dagger, P = diag(i^n) on both spin blocks, is exactly
  real (:func:`~ionqrm.algebra.gauge_is_real`; every builder at phi_l = 0), that
  real array is read in place of H: its blocks are real symmetric, and the
  eigenvectors map back with P^dagger.
* Blocks. The array read splits into the connected components of its exact
  nonzero pattern: the two parity blocks of the QRM (Braak, PRL 107, 100401
  (2011)), the 2x2 excitation blocks of JC and AJC, the 1x1 blocks of the
  diagonal dispersive model. Same-size blocks share one stacked
  ``np.linalg.eigh`` call; 1x1 blocks need none.
* Parity sectors. When the pattern gives one block spanning H and the array
  read commutes exactly with Pi = sigma_x (x) S, S = diag((-1)^n), that is
  H_ee = S H_gg S and H_eg = S H_ge S, its two Pi sectors
  H_+- = H_ee +- H_eg S go to one stacked ``eigh`` of shape (2, n, n), and
  the eigenvectors come back as one group, V = [[U_+, U_-], [S U_+, -S U_-]]
  / sqrt(2). This is the QRM parity sigma_z (x) S carried back through the
  map T of ``models.qrm_transform``: P D(i eta) P = D(i eta)^dagger for
  P = S, so T^dagger (sigma_z (x) S) T = sigma_x (x) S, and the resonant and
  Lamb-Dicke models at phi_l = 0 commute with it although their nonzero
  pattern is one block. The test compares entries exactly, since a sign flip
  is exact: D(i r) is exactly symmetric (``algebra.displacement``), and so
  the built H is exactly Pi-symmetric. An H one ulp off takes the dense path.
* Hermiticity. max|H - H^dagger| must not exceed 1e-10 max(1, max|H|), else
  ValueError, also when only eigenvalues are asked for. It is checked on the
  blocks: H is zero between them, and the gauge changes only the sign of an
  entry's one nonzero part, so the blocks give the dense values exactly.

The residual bound of a dense decomposition stays: ||H V - V W||_F summed
over the blocks must be below 1e-9 ||H||_F. Entries of H between blocks are
exactly zero, so this is the residual of the whole matrix; for the parity
sectors it is summed over H_+ and H_-, whose basis change is orthogonal.
Hermiticity is checked on the whole spanning block, not on the sectors.

:func:`propagate` evolves only the blocks on which the initial state is not
identically zero; the others stay exactly zero. A Fock start on JC or AJC
touches one 2x2 block.
"""
from __future__ import annotations

from itertools import repeat

import numpy as np

from .algebra import TruncationSpec, displacement, fock_phases, gauge_is_real, gauge_parts
from .params import Record

_HERMITIAN_TOL = 1e-10
_NORM_TOL = 1e-10
_RECORD_NORM_TOL = 1e-8
_RESIDUAL_TOL = 1e-9


class EvolutionResult(Record):
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


def _spin_offset(spin: str, trunc: TruncationSpec) -> int:
    """Composite index of |spin, 0>: the |e> block comes first."""
    if spin not in ("e", "g"):
        raise ValueError(f"spin must be 'e' or 'g', got {spin!r}")
    return 0 if spin == "e" else trunc.n_max


def fock_state(spin: str, n: int, trunc: TruncationSpec) -> np.ndarray:
    """Product state |spin, n> with spin "e" or "g"."""
    offset = _spin_offset(spin, trunc)
    if not 0 <= n < trunc.n_max:
        raise ValueError(f"Fock index {n} outside [0, {trunc.n_max})")
    psi = np.zeros(2 * trunc.n_max, dtype=complex)
    psi[offset + n] = 1.0
    return psi


def coherent_state(spin: str, alpha: complex, trunc: TruncationSpec) -> np.ndarray:
    """Product state |spin> (x) |alpha>, the coherent state from a displacement column.

    The amplitudes are column 0 of the cached-basis displacement, so the
    state is normalized exactly on the truncated space.
    """
    offset = _spin_offset(spin, trunc)
    psi = np.zeros(2 * trunc.n_max, dtype=complex)
    psi[offset:offset + trunc.n_max] = displacement(alpha, trunc)[:, 0]
    return psi


class BlockEigensystem(Record):
    """Eigenpairs of a Hermitian H, grouped by block size.

    Each group is ``(idx, w, v)`` for k blocks of size s: ``idx`` (k, s) holds
    the composite indices of each block in ascending order, ``w`` (k, s) its
    eigenvalues and ``v`` (k, s, s) its eigenvectors as columns (``None``
    when only values were asked for). When ``gauge`` is set, H was
    diagonalized as the real matrix P H P^dagger with P = diag(gauge), so
    ``v`` is real and the eigenvectors of H are P^dagger applied to it.
    """

    gauge: np.ndarray | None
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray | None], ...]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Every eigenvalue of H, ascending."""
        return np.sort(np.concatenate([w.ravel() for _, w, _ in self.groups]))


def _block_labels(nz: np.ndarray) -> np.ndarray:
    """Connected-component label of each index of a nonzero pattern.

    An index with no nonzero off the diagonal, in its row or its column, is a
    block of its own and needs no search. The others are found by
    breadth-first search with each row of the symmetrized pattern as one
    Python integer bit set, so every linked index is visited once.
    """
    dim = nz.shape[0]
    nz = nz | nz.T
    np.fill_diagonal(nz, False)
    linked = nz.any(axis=1)
    rows = list(map(int.from_bytes, np.packbits(nz, axis=1, bitorder="little"),
                    repeat("little")))
    labels = [0] * dim
    unseen = int.from_bytes(np.packbits(linked, bitorder="little").tobytes(), "little")
    label = 0
    while unseen:
        frontier = reached = unseen & -unseen
        while frontier:
            grown = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                k = bit.bit_length() - 1
                labels[k] = label
                grown |= rows[k]
            frontier = grown & ~reached
            reached |= grown
        unseen &= ~reached
        label += 1
    labels = np.array(labels)
    labels[~linked] = label + np.arange(dim - np.count_nonzero(linked))
    return labels


def _blocks_by_size(labels: np.ndarray) -> list[np.ndarray]:
    """Index arrays (k, s) of the blocks, one per block size s, indices ascending."""
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    starts = np.cumsum(sizes) - sizes
    return [order[starts[sizes == s][:, None] + np.arange(s)] for s in np.unique(sizes)]


def _fock_signs(n: int) -> np.ndarray:
    """The diagonal (-1)^k, k < n, of S."""
    return 1.0 - 2.0 * (np.arange(n) % 2)


def _parity_sectors(a: np.ndarray) -> np.ndarray | None:
    """H_+ and H_- of a composite H as one (2, n, n) stack, or None when H does not
    commute exactly with Pi = sigma_x (x) S.

    With S = diag((-1)^n), H commutes with Pi when H_ee = S H_gg S and
    H_eg = S H_ge S, compared exactly (a sign flip is exact). On the
    eigenvectors (x, +-S x)/sqrt(2) of Pi, H then acts as H_+ (+) H_-,
    H_+- = H_ee +- H_eg S.
    """
    n = a.shape[0] // 2
    s = _fock_signs(n)
    signs = s[:, None] * s
    h_ee, h_eg = a[:n, :n], a[:n, n:]
    if not (np.array_equal(h_ee, a[n:, n:] * signs) and np.array_equal(h_eg, a[n:, :n] * signs)):
        return None
    coupling = h_eg * s
    return np.stack([h_ee + coupling, h_ee - coupling])


def _from_sectors(w: np.ndarray, u: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenpairs of H, one (1, 2n) group, from those of its two Pi sectors.

    An eigenvector u of H_+ is (u, S u)/sqrt(2) on H, one of H_- is (u, -S u)/sqrt(2).
    """
    n = w.shape[1]
    if u is None:
        return w.reshape(1, 2 * n), None
    u = u * np.sqrt(0.5)
    s = _fock_signs(n)[:, None]
    v = np.empty((2 * n, 2 * n), dtype=u.dtype)
    v[:n, :n], v[:n, n:] = u
    np.multiply(u[0], s, out=v[n:, :n])
    np.multiply(u[1], -s, out=v[n:, n:])
    return w.reshape(1, 2 * n), v[None]


def block_eigh(h: np.ndarray, vectors: bool = True) -> BlockEigensystem:
    """Diagonalize a composite Hermitian H block by block, in a real gauge when exact.

    Parameters
    ----------
    h : Hermitian matrix on the composite space (dimension 2*n_osc).
    vectors : compute eigenvectors (``np.linalg.eigh``) or only eigenvalues
        (``np.linalg.eigvalsh``).

    Each block is checked for Hermiticity (ValueError), also without
    vectors; with vectors, the residual ||H V - V W||_F over the blocks must
    stay below 1e-9 ||H||_F, else ArithmeticError. See the module docstring
    for the gauge, block, parity-sector and Hermiticity rules.
    """
    h = np.ascontiguousarray(h, dtype=complex)
    dim = h.shape[0]
    if h.shape != (dim, dim) or dim % 2 != 0:
        raise ValueError(f"H must be square with even dimension, got shape {h.shape}")
    # the (Re, Im) flags of each entry; read as one uint16, nonzero where the entry is,
    # also in the gauge, which flips the sign of an entry's one nonzero part
    nonzero = h.view(np.float64) != 0
    real = gauge_is_real(nonzero, dim // 2)
    a = gauge_parts(h.real, h.imag, dim // 2) if real else h
    blocks = _blocks_by_size(_block_labels(nonzero.view(np.uint16) != 0))
    groups = []
    deviations, scales = [], []
    residual_sq = 0.0
    for idx in blocks:
        k, s = idx.shape
        # one block spanning H is H itself: no copy
        sub = a[None] if s == dim else a[idx[:, :, None], idx[:, None, :]]
        deviations.append(np.max(np.abs(sub - sub.conj().swapaxes(1, 2))))
        scales.append(np.max(np.abs(sub)))
        sectors = _parity_sectors(a) if s == dim else None
        if sectors is not None:
            # the basis change to the sectors is orthogonal: same spectrum, same residual
            sub = sectors
            k, s = sub.shape[:2]
        if s == 1:
            w = sub[:, :, 0].real
            v = np.ones((k, 1, 1)) if vectors else None
        elif vectors:
            w, v = np.linalg.eigh(sub)
        else:
            w, v = np.linalg.eigvalsh(sub), None
        if vectors:
            residual_sq += float(np.linalg.norm(sub @ v - v * w[:, None, :])) ** 2
        if sectors is not None:
            w, v = _from_sectors(w, v)
        groups.append((idx, w, v))
    # each gate is written "not <=", so that a NaN fails it; np.max keeps a NaN
    if not np.max(deviations) <= _HERMITIAN_TOL * max(1.0, np.max(scales)):
        raise ValueError("H is not Hermitian within tolerance")
    h_norm = np.linalg.norm(h)
    if vectors and h_norm > 0:
        residual = np.sqrt(residual_sq)
        if not residual <= _RESIDUAL_TOL * h_norm:
            raise ArithmeticError(f"eigendecomposition residual {residual:.3e} too large")
    gauge = fock_phases(dim, dim // 2) if real else None
    return BlockEigensystem(gauge=gauge, groups=tuple(groups))


def _times_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex a; a real b takes two real products, not one complex one."""
    if np.iscomplexobj(b):
        return a @ b
    out = np.empty(a.shape[:-1] + b.shape[-1:], dtype=complex)
    out.real = a.real @ b
    out.imag = a.imag @ b
    return out


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

    H is read and diagonalized once, by :func:`block_eigh`: block by block
    (or by Pi parity sector when one block spans H),
    in the real gauge P = diag(i^n) when P H P^dagger is exactly real; a
    non-Hermitian H is reported before the other arguments are checked.
    Blocks on which psi0 is identically zero stay exactly zero, so only the
    other blocks are evolved. The eigendecomposition residual keeps the
    dense bound 1e-9 ||H||_F, and the norm of every evolved state is
    checked, so a violation fails loudly instead of polluting records.
    """
    h = np.asarray(h, dtype=complex)
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    dim = psi0.size
    if h.shape != (dim, dim):
        raise ValueError(f"dimension mismatch: H {h.shape} vs state {dim}")
    if dim % 2 != 0:
        raise ValueError("state dimension must be 2*n_osc (spin outer)")
    eig = block_eigh(h)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-d array")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    # each gate is written "not <=", so that a NaN fails it
    if not abs(np.linalg.norm(psi0) - 1.0) <= _NORM_TOL:
        raise ValueError("initial state is not normalized")
    if reference is not None:
        reference = np.asarray(reference, dtype=complex)
        if reference.shape != (times.size, dim):
            raise ValueError(
                f"reference trajectory shape {reference.shape} != {(times.size, dim)}"
            )

    n_osc = dim // 2
    n_diag = np.concatenate([np.arange(n_osc), np.arange(n_osc)])
    phi = psi0 if eig.gauge is None else eig.gauge * psi0
    states = np.zeros((times.size, dim), dtype=complex)
    for idx, w, v in eig.groups:
        # a block psi0 does not touch stays exactly zero; evolving every JC
        # block for a Fock start made a suite op about 12% slower
        live = np.any(phi[idx] != 0, axis=1)
        if not live.any():
            continue
        if not live.all():
            idx, w, v = idx[live], w[live], v[live]
        # per block, all times at once: V exp(-i w t) V^dag phi
        v_conj = v.conj() if np.iscomplexobj(v) else v
        coeffs = _times_matrix(phi[idx][:, None, :], v_conj)
        amplitudes = np.exp(-1j * (w[:, None, :] * times[None, :, None])) * coeffs
        block_states = _times_matrix(amplitudes, v.transpose(0, 2, 1))
        if idx.shape[1] == dim:
            states = block_states[0]
        else:
            states[:, idx] = block_states.transpose(1, 0, 2)
    if eig.gauge is not None:
        states *= eig.gauge.conj()

    norms = np.linalg.norm(states, axis=1)
    norm_residual = np.abs(norms - 1.0)
    if not np.max(norm_residual) <= _RECORD_NORM_TOL:
        raise ArithmeticError(f"norm drift {np.max(norm_residual):.3e} exceeds tolerance")

    probs = np.abs(states) ** 2
    p_excited = probs[:, :n_osc].sum(axis=1)
    if not (np.max(p_excited) <= 1.0 + _NORM_TOL and np.min(p_excited) >= -_NORM_TOL):
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
