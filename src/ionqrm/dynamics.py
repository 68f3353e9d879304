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
  real (:func:`~ionqrm.algebra.gauge_is_real`; every builder at phi_l = 0),
  the blocks or sectors that ``eigh`` reads are gauged, each entry with the
  phases of its own row and column (never the whole of H): they are real
  symmetric, and the eigenvectors map back with P^dagger.
* Blocks. H splits into the connected components of its exact
  nonzero pattern: the two parity blocks of the QRM (Braak, PRL 107, 100401
  (2011)), the 2x2 excitation blocks of JC and AJC, the 1x1 blocks of the
  diagonal dispersive model. Same-size blocks share one stacked
  ``np.linalg.eigh`` call; 1x1 blocks need none. A block of two arithmetic
  progressions of indices (each QRM parity block) is read from strided views
  of H, and its states are written by slices.
* Parity sectors. When the pattern gives one block spanning H and H
  commutes exactly with Pi = sigma_x (x) S, S = diag((-1)^n), that is
  H_ee = S H_gg S and H_eg = S H_ge S, its two Pi sectors
  H_+- = H_ee +- H_eg S go to one stacked ``eigh`` of shape (2, n, n), and
  the group keeps them as sectors: an eigenvector u of H_+- is
  (u, +-S u)/sqrt(2) on H, so the dense (2n, 2n) eigenvector matrix is never
  formed. This is the QRM parity sigma_z (x) S carried back through the
  map T of ``models.qrm_transform``: P D(i eta) P = D(i eta)^dagger for
  P = S, so T^dagger (sigma_z (x) S) T = sigma_x (x) S, and the resonant and
  Lamb-Dicke models at phi_l = 0 commute with it although their nonzero
  pattern is one block. The test compares entries exactly, since a sign flip
  is exact: D(i r) is exactly symmetric (``algebra.displacement``), and so
  the built H is exactly Pi-symmetric. An H one ulp off takes the dense path.
* Hermiticity. max|H - H^dagger| must not exceed 1e-10 max(1, max|H|), else
  ValueError, also when only eigenvalues are asked for. It is checked on
  every block before the first ``eigh``, so a NaN fails here and not in
  LAPACK. H is zero between the blocks, and the gauge changes only the sign
  of an entry's one nonzero part, so the blocks give the dense values exactly.

The residual bound of a dense decomposition stays: ||H V - V W||_F summed
over the blocks must be below 1e-9 ||H||_F. Entries of H between blocks are
exactly zero, so this is the residual of the whole matrix; for the parity
sectors it is summed over H_+ and H_-, whose basis change is orthogonal.
Hermiticity is checked on the whole spanning block, not on the sectors.

H is read in a first phase and diagonalized in a second; :func:`propagate`
drops H in between, so an H that its caller does not keep (``ionqrm evolve``)
is freed before the first ``eigh``, unless ``eigh`` reads a complex H itself.

:func:`propagate` evolves only the blocks on which the initial state is not
identically zero; the others stay exactly zero. A Fock start on JC or AJC
touches one 2x2 block. It evolves at most half of H's indices, or one
block, at a time, with one set of scratch arrays, and writes every piece
into one preallocated state array. The parity sectors are two such pieces,
the (T, n) products x and y, from which the state is e = (x + y)/sqrt(2),
g = S (x - y)/sqrt(2); the real products read contiguous real and
imaginary planes. Blocks of one or two states (the JC and AJC pairs, the
diagonal models' 1x1 blocks) evolve with the time axis innermost, so that
every elementwise pass runs over long rows; a real product of at most two
terms gives the same bits in either layout.
"""
from __future__ import annotations

from itertools import product, repeat

import numpy as np

from .algebra import displacement_column, fock_phases, gauge_is_real, gauge_parts
from .params import Record, TruncationSpec

_HERMITIAN_TOL = 1e-10
# tiles of |B - B^T| small enough that the transposed read stays in cache
_HERMITIAN_TILE = 128
_NORM_TOL = 1e-10
_RECORD_NORM_TOL = 1e-8
_RESIDUAL_TOL = 1e-9


class EvolutionResult(Record):
    """Per-time observable records of one trajectory; states only when requested."""

    times: np.ndarray
    p_excited: np.ndarray
    mean_n: np.ndarray
    norm_residual: np.ndarray
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

    The amplitudes are column 0 of the cached-basis displacement
    (:func:`~ionqrm.algebra.displacement_column`), so the state is normalized
    on the truncated space to rounding.
    """
    offset = _spin_offset(spin, trunc)
    psi = np.zeros(2 * trunc.n_max, dtype=complex)
    psi[offset:offset + trunc.n_max] = displacement_column(alpha, trunc)
    return psi


class BlockEigensystem(Record):
    """Eigenpairs of a Hermitian H, grouped by block size.

    Each group is ``(idx, w, v, sectors)``. For k blocks of size s, ``idx``
    (k, s) holds the composite indices of each block in ascending order,
    ``w`` (k, s) its eigenvalues and ``v`` (k, s, s) its eigenvectors as
    columns (``None`` when only values were asked for), and ``sectors`` is
    False. A group with ``sectors`` True is one block spanning H, ``idx``
    (1, 2n), given by its two Pi sectors: ``w`` (2, n) and ``v`` (2, n, n)
    are the eigenpairs of H_+ and H_-, and an eigenvector u of H_+- is
    (u, +-S u)/sqrt(2) on H, S = diag((-1)^n). When ``gauge`` is set, H was
    diagonalized as the real matrix P H P^dagger with P = diag(gauge), so
    ``v`` is real and the eigenvectors of H are P^dagger applied to it.
    """

    gauge: np.ndarray | None
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray | None, bool], ...]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Every eigenvalue of H, ascending."""
        return np.sort(np.concatenate([w.ravel() for _, w, _, _ in self.groups]))


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
    # the distinct sizes, ascending, from a count: np.unique would load numpy.ma
    distinct = np.flatnonzero(np.bincount(sizes))
    return [order[starts[sizes == s][:, None] + np.arange(s)] for s in distinct]


def _fock_signs(n: int) -> np.ndarray:
    """The diagonal (-1)^k, k < n, of S."""
    return 1.0 - 2.0 * (np.arange(n) % 2)


def _parity_sectors(h: np.ndarray, real: bool) -> np.ndarray | None:
    """H_+ and H_- of a composite H as one (2, n, n) stack, of P H P^dagger when ``real``,
    or None when H does not commute exactly with Pi = sigma_x (x) S.

    With S = diag((-1)^n), H commutes with Pi when H_ee = S H_gg S and
    H_eg = S H_ge S, compared exactly (a sign flip is exact). On the
    eigenvectors (x, +-S x)/sqrt(2) of Pi, H then acts as H_+ (+) H_-,
    H_+- = H_ee +- H_eg S. P commutes with Pi, so the gauged sectors are formed
    from the gauged H_ee and H_eg alone.
    """
    n = h.shape[0] // 2
    s = _fock_signs(n)
    signs = s[:, None] * s
    h_ee, h_eg = h[:n, :n], h[:n, n:]
    if not (np.array_equal(h_ee, h[n:, n:] * signs) and np.array_equal(h_eg, h[n:, :n] * signs)):
        return None
    del signs
    if real:
        h_ee, h_eg = (gauge_parts(block.real, block.imag, n) for block in (h_ee, h_eg))
    coupling = h_eg * s
    del h_eg
    sectors = np.empty((2, n, n), dtype=h_ee.dtype)
    np.add(h_ee, coupling, out=sectors[0])
    np.subtract(h_ee, coupling, out=sectors[1])
    return sectors


def _runs(idx: np.ndarray) -> list | None:
    """Each block of idx (k, s), s > 2, as at most two arithmetic progressions of one
    step, each a ``(lo, hi, slice)``: positions lo:hi in the block, indices in H; None
    unless every block has that form, as the QRM's parity blocks (e-even with g-odd) do."""
    steps = np.diff(idx, axis=1)
    breaks = steps != steps[:, :1]
    if idx.shape[1] <= 2 or np.any(np.count_nonzero(breaks, axis=1) > 1):
        return None
    cuts = np.where(breaks.any(axis=1), np.argmax(breaks, axis=1) + 1, idx.shape[1])
    return [[(lo, hi, slice(b[lo], b[hi - 1] + 1, step)) for lo, hi in ((0, c), (c, len(b)))
             if hi > lo] for b, c, step in zip(idx.tolist(), cuts, steps[:, 0])]


def _gather(h: np.ndarray, idx: np.ndarray, real: bool) -> np.ndarray:
    """The blocks idx (k, s) of H as one (k, s, s) stack, of P H P^dagger when ``real``:
    from strided views of H for blocks of two progressions, else by fancy indexing.
    Each entry is gauged with the phases of its own row and column."""
    n, runs = h.shape[0] // 2, _runs(idx)
    if runs is None:
        ix = idx[:, :, None], idx[:, None, :]
        return gauge_parts(h.real[ix], h.imag[ix], n, ix) if real else h[ix]
    sub = np.empty(idx.shape + idx.shape[-1:], dtype=float if real else complex)
    for j, parts in enumerate(runs):
        for (lo, hi, rows), (start, stop, cols) in product(parts, parts):
            view, ix = h[rows, cols], (idx[j, lo:hi, None], idx[j, start:stop])
            sub[j, lo:hi, start:stop] = gauge_parts(view.real, view.imag, n, ix) if real else view
    return sub


def _hermiticity(sub: np.ndarray) -> tuple[float, float]:
    """max|B - B^dagger| and max|B| over a stack of blocks B.

    B is read by tiles above the diagonal and their mirrors, which cover it, so
    that no temporary is larger than a tile; a NaN entry makes the deviation NaN.
    """
    s, t = sub.shape[-1], _HERMITIAN_TILE
    deviations, scales = [], []
    for i in range(0, s, t):
        for j in range(i, s, t):
            upper, lower = sub[:, i:i + t, j:j + t], sub[:, j:j + t, i:i + t]
            deviations.append(np.max(np.abs(upper - lower.conj().swapaxes(1, 2))))
            scales += [np.max(np.abs(upper)), np.max(np.abs(lower))]
    return np.max(deviations), np.max(scales)


def _read_blocks(h: np.ndarray) -> tuple:
    """The phase of :func:`block_eigh` that reads H: (blocks, the stacks to diagonalize,
    whether they are the two Pi sectors, the gauge or None, ||H||_F).

    Only blocks or sectors are gauged. Every block is checked for Hermiticity
    before any ``eigh``, so a NaN fails here and not in LAPACK: a gathered block
    as gathered (gauged, its deviation and scale are H's), a spanning one on H.
    Nothing returned refers to H unless ``eigh`` reads a complex H itself.
    """
    h = np.ascontiguousarray(h, dtype=complex)
    dim = h.shape[0]
    if h.shape != (dim, dim) or dim % 2 != 0:
        raise ValueError(f"H must be square with even dimension, got shape {h.shape}")
    # the (Re, Im) flags of each entry; read as one uint16, nonzero where the entry is,
    # also in the gauge, which flips the sign of an entry's one nonzero part
    nonzero = h.view(np.float64) != 0
    real = gauge_is_real(nonzero, dim // 2)
    blocks = _blocks_by_size(_block_labels(nonzero.view(np.uint16) != 0))
    del nonzero
    spanning = blocks[0].shape[1] == dim  # read in place: no copy
    subs = [h[None]] if spanning else [_gather(h, idx, real) for idx in blocks]
    # each gate is written "not <=", so that a NaN fails it; np.max keeps a NaN
    deviation, scale = np.max([_hermiticity(sub) for sub in subs], axis=0)
    if not deviation <= _HERMITIAN_TOL * max(1.0, scale):
        raise ValueError("H is not Hermitian within tolerance")
    sectors = _parity_sectors(h, real) if spanning else None
    if sectors is not None:
        subs = [sectors]
    elif spanning and real:
        subs = [gauge_parts(h.real, h.imag, dim // 2)[None]]
    gauge = fock_phases(dim, dim // 2) if real else None
    return blocks, subs, sectors is not None, gauge, np.linalg.norm(h)


def _diagonalize(blocks, subs, sectors, gauge, h_norm, vectors=True) -> BlockEigensystem:
    """The phase of :func:`block_eigh` after H: ``eigh`` (or ``eigvalsh``) of each stack
    that :func:`_read_blocks` returned, and the residual bound."""
    groups = []
    residual_sq = 0.0
    for idx, sub in zip(blocks, subs):
        # the basis change to the sectors is orthogonal: same spectrum, same residual
        k, s = sub.shape[:2]
        if s == 1:
            w = sub[:, :, 0].real
            v = np.ones((k, 1, 1)) if vectors else None
        elif vectors:
            w, v = np.linalg.eigh(sub)
        else:
            w, v = np.linalg.eigvalsh(sub), None
        if vectors:
            residual = sub @ v
            residual -= v * w[:, None, :]
            residual_sq += float(np.linalg.norm(residual)) ** 2
        groups.append((idx, w, v, sectors))
    if vectors and h_norm > 0:
        residual = np.sqrt(residual_sq)
        if not residual <= _RESIDUAL_TOL * h_norm:
            raise ArithmeticError(f"eigendecomposition residual {residual:.3e} too large")
    return BlockEigensystem(gauge=gauge, groups=tuple(groups))


def block_eigh(h: np.ndarray, vectors: bool = True) -> BlockEigensystem:
    """Diagonalize a composite Hermitian H block by block, in a real gauge when exact.

    Parameters
    ----------
    h : Hermitian matrix on the composite space (dimension 2*n_osc).
    vectors : compute eigenvectors (``np.linalg.eigh``) or only eigenvalues
        (``np.linalg.eigvalsh``).

    Every block is checked for Hermiticity (ValueError) before the first
    ``eigh``, also without vectors; with vectors, the residual
    ||H V - V W||_F over the blocks must stay below 1e-9 ||H||_F, else
    ArithmeticError. See the module docstring for the gauge, block,
    parity-sector and Hermiticity rules.
    """
    return _diagonalize(*_read_blocks(h), vectors)


def _times_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex a; a real b takes two real products, not one complex one."""
    if np.iscomplexobj(b):
        return a @ b
    out = np.empty(a.shape[:-1] + b.shape[-1:], dtype=complex)
    out.real = a.real @ b
    out.imag = a.imag @ b
    return out


def _place(dest: np.ndarray, out: np.ndarray, idx: np.ndarray, sector: int | None,
           small: bool) -> None:
    """Write one piece's evolved blocks into the (T, dim) array dest.

    ``out`` is (k, s, T) for small blocks, else (k, T, s). Pi sector 0 gives
    x and sector 1 then y, from which the state is e = x + y, g = S (x - y);
    z carried both 1/sqrt(2) factors.
    """
    if sector is None:
        runs = None if small else _runs(idx)
        if runs is None:
            dest[:, idx] = out.transpose(2, 0, 1) if small else out.transpose(1, 0, 2)
            return
        for block, parts in zip(out, runs):  # two progressions: slices, not a scatter
            for lo, hi, where in parts:
                dest[:, where] = block[:, lo:hi]
        return
    n = dest.shape[1] // 2
    if sector == 0:
        dest[:, :n] = dest[:, n:] = out[0]
    else:
        dest[:, :n] += out[0]
        dest[:, n:] -= out[0]
        dest[:, n + 1::2] *= -1.0


def _pieces(eig: BlockEigensystem, phi: np.ndarray):
    """(idx, w, v, z, sector) for each piece of H evolved at once: at most half its
    indices, or one block, so that the scratch arrays stay small.

    z is phi on each block, or on one Pi sector with both 1/sqrt(2) factors;
    sector is its index (0 for H_+, 1 for H_-), or None for blocks. A block
    psi0 does not touch stays exactly zero and is left out; evolving every JC
    block for a Fock start made a suite op about 12% slower.
    """
    n = phi.size // 2
    for idx, w, v, sectors in eig.groups:
        if sectors:
            flipped = _fock_signs(n) * phi[n:]
            z = 0.5 * np.stack([phi[:n] + flipped, phi[:n] - flipped])
            yield from ((idx, w[j:j + 1], v[j:j + 1], z[j:j + 1], j) for j in range(2))
            continue
        z = phi[idx]
        touched = np.flatnonzero(np.any(z != 0, axis=1))
        step = max(1, n // idx.shape[1])
        for j in range(0, touched.size, step):
            live = touched[j:j + step]
            if live[-1] - live[0] == live.size - 1:  # a run of blocks: views, not copies
                live = slice(live[0], live[-1] + 1)
            yield idx[live], w[live], v[live], z[live], None


def _evolve(eig: BlockEigensystem, phi: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i H t) phi at every time, (T, dim), in the basis H was diagonalized in."""
    pieces = list(_pieces(eig, phi))
    states = np.zeros((times.size, phi.size), dtype=complex)
    # one scratch set for every piece: complex amplitudes, a real plane, a real product
    size = times.size * max(z.size for *_, z, _ in pieces)
    scratch = np.empty(size, dtype=complex), np.empty(size), np.empty(size)
    for idx, w, v, z, sector in pieces:
        k, s = z.shape
        small = s <= 2 and sector is None
        shape = (k, s, times.size) if small else (k, times.size, s)
        amplitudes, plane, out = (a[:z.size * times.size].reshape(shape) for a in scratch)
        # per block, all times at once: v exp(-i w t) v^dag z; the phases are
        # cos(-w t) + i sin(-w t), the bits of np.exp(-1j * (w t))
        if small:
            np.multiply.outer(-w, times, out=plane)
        else:
            np.multiply(-w[:, None, :], times[:, None], out=plane)
        np.cos(plane, out=amplitudes.real)
        np.sin(plane, out=amplitudes.imag)
        coeffs = _times_matrix(z[:, None, :], v.conj())  # a real v's conj() is v itself
        amplitudes *= coeffs.reshape(k, s, 1) if small else coeffs
        if np.iscomplexobj(v):
            _place(states, v @ amplitudes if small else amplitudes @ v.transpose(0, 2, 1),
                   idx, sector, small)
            continue
        # two real products, each reading a contiguous plane
        for dest, part in ((states.real, amplitudes.real), (states.imag, amplitudes.imag)):
            plane[...] = part
            if small:
                np.matmul(v, plane, out=out)
            else:
                np.matmul(plane, v.transpose(0, 2, 1), out=out)
            _place(dest, out, idx, sector, small)
    return states


def propagate(
    h: np.ndarray,
    psi0: np.ndarray,
    times: np.ndarray,
    store_states: bool = False,
) -> EvolutionResult:
    """Evolve psi0 under exp(-i*H*t) and record observables at each time.

    Parameters
    ----------
    h : Hermitian matrix on the composite space (dimension 2*n_osc).
    psi0 : normalized initial state.
    times : strictly increasing time points.
    store_states : keep the full trajectory in the result.

    H is read and diagonalized once, by the two phases of :func:`block_eigh`:
    block by block (or by Pi parity sector when one block spans H), in the
    real gauge P = diag(i^n) when P H P^dagger is exactly real; a
    non-Hermitian H is reported before the other arguments are checked.
    Between the phases this function drops its reference to H, so an H that
    the caller does not keep is freed before the first ``eigh``.
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
    read = _read_blocks(h)
    del h  # the blocks or sectors hold what eigh needs: a caller that keeps no H frees it
    eig = _diagonalize(*read)
    del read
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-d array")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    # each gate is written "not <=", so that a NaN fails it
    if not abs(np.linalg.norm(psi0) - 1.0) <= _NORM_TOL:
        raise ValueError("initial state is not normalized")

    n_osc = dim // 2
    n_diag = np.concatenate([np.arange(n_osc), np.arange(n_osc)])
    states = _evolve(eig, psi0 if eig.gauge is None else eig.gauge * psi0, times)
    if eig.gauge is not None:
        states *= eig.gauge.conj()

    # np.linalg.norm(states, axis=1) bit for bit, with one temporary in place of two
    squares = states.conj()
    squares *= states
    norm_residual = np.abs(np.sqrt(np.add.reduce(squares.real, axis=1)) - 1.0)
    del squares
    if not np.max(norm_residual) <= _RECORD_NORM_TOL:
        raise ArithmeticError(f"norm drift {np.max(norm_residual):.3e} exceeds tolerance")

    probs = np.abs(states)
    probs *= probs
    p_excited = probs[:, :n_osc].sum(axis=1)
    if not (np.max(p_excited) <= 1.0 + _NORM_TOL and np.min(p_excited) >= -_NORM_TOL):
        raise ArithmeticError("excited-state population outside [0, 1]")
    mean_n = probs @ n_diag

    return EvolutionResult(
        times=times,
        p_excited=p_excited,
        mean_n=mean_n,
        norm_residual=norm_residual,
        states=states if store_states else None,
    )
