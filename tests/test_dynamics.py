"""Tests for the eigendecomposition propagator and observables."""
import math
import tracemalloc

import numpy as np
import pytest

from ionqrm import algebra, dynamics
from ionqrm.dynamics import block_eigh

from ionqrm import (
    HAMILTONIAN_BUILDERS,
    IonParams,
    TruncationSpec,
    coherent_state,
    displacement,
    fock_state,
    h_dispersive,
    h_jc,
    h_lamb_dicke,
    h_qrm,
    h_qrm_detuned,
    h_rabi_rotated,
    h_resonant,
    osc_identity,
    propagate,
    spin_tensor_osc,
)
from oracles import Spin, expectation, fidelity, fock_gauge, number_op, pauli

T16 = TruncationSpec(16)


def test_fock_state_layout():
    psi = fock_state("g", 2, TruncationSpec(4))
    assert psi[6] == 1.0 and np.count_nonzero(psi) == 1
    with pytest.raises(ValueError):
        fock_state("x", 0, T16)
    with pytest.raises(ValueError):
        fock_state("e", 16, T16)


def test_coherent_state_is_normalized():
    psi = coherent_state("e", 0.7 - 0.2j, TruncationSpec(48))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


@pytest.mark.parametrize("n_max", [64, 256])
def test_coherent_state_is_column_zero_of_the_displacement(n_max):
    trunc = TruncationSpec(n_max)
    rng = np.random.default_rng(n_max)
    alphas = [0.0, 0.4j, -0.7j, 1.1] + [complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(60)]
    for alpha in alphas:
        psi = coherent_state("g", alpha, trunc)
        assert not np.any(psi[:n_max])
        column = displacement(alpha, trunc)[:, 0]
        assert np.max(np.abs(psi[n_max:] - column)) <= 1e-15, alpha
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-14, alpha


def test_zero_hamiltonian_keeps_state_constant():
    h = np.zeros((8, 8), dtype=complex)
    psi0 = fock_state("e", 1, TruncationSpec(4))
    run = propagate(h, psi0, np.linspace(0, 5, 7), store_states=True)
    for state in run.states:
        np.testing.assert_allclose(state, psi0, rtol=0, atol=1e-14)
    assert np.all(run.p_excited == 1.0)


def test_stationary_fock_state_under_diagonal_hamiltonian():
    trunc = TruncationSpec(6)
    h = spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc))
    run = propagate(h, fock_state("g", 3, trunc), np.linspace(0, 20, 50))
    np.testing.assert_allclose(run.p_excited, 0.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(run.mean_n, 3.0, rtol=0, atol=1e-12)


def test_jc_two_level_oracle():
    p = IonParams(Omega=0.5, eta=0.05)
    trunc = TruncationSpec(8)
    times = np.linspace(0, 400, 1001)
    run = propagate(h_jc(p, trunc), fock_state("e", 0, trunc), times)
    np.testing.assert_allclose(
        run.p_excited, np.cos(0.025 * times) ** 2, rtol=0, atol=1e-8
    )


def test_propagate_rejects_bad_inputs():
    trunc = TruncationSpec(4)
    psi = fock_state("e", 0, trunc)
    good = spin_tensor_osc(pauli(Spin.Z), osc_identity(trunc))
    with pytest.raises(ValueError, match="Hermitian"):
        propagate(1j * good, psi, [0.0, 1.0])
    with pytest.raises(ValueError, match="dimension"):
        propagate(np.zeros((6, 6), dtype=complex), psi, [0.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        propagate(good, psi, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="normalized"):
        propagate(good, 2.0 * psi, [0.0, 1.0])


def test_norm_preservation_and_energy_conservation():
    rng = np.random.default_rng(41)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = m + m.conj().T
    psi0 = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi0 /= np.linalg.norm(psi0)
    run = propagate(h, psi0, np.linspace(0, 30, 64), store_states=True)
    assert np.max(run.norm_residual) < 1e-10
    energies = np.einsum("td,dk,tk->t", run.states.conj(), h, run.states).real
    assert np.max(np.abs(energies - energies[0])) < 1e-9 * np.linalg.norm(h)


def test_composition_of_split_evolution():
    p = IonParams(Omega=0.5, eta=0.05)
    trunc = TruncationSpec(8)
    h = h_jc(p, trunc)
    psi0 = fock_state("e", 0, trunc)
    times = np.linspace(0, 100, 41)
    split = 17
    direct = propagate(h, psi0, times, store_states=True).states
    first = propagate(h, psi0, times[: split + 1], store_states=True).states
    resumed = propagate(h, first[-1], times[split:] - times[split], store_states=True).states
    assert np.max(np.abs(resumed - direct[split:])) < 1e-10


def test_reference_trajectory_fidelity():
    p = IonParams(Omega=0.5, eta=0.05)
    trunc = TruncationSpec(8)
    h = h_jc(p, trunc)
    psi0 = fock_state("e", 0, trunc)
    times = np.linspace(0, 50, 21)
    ref = propagate(h, psi0, times, store_states=True)
    run = propagate(h, psi0, times, reference=ref.states)
    np.testing.assert_allclose(run.fidelity, 1.0, rtol=0, atol=1e-12)


def test_expectation_examples():
    trunc = TruncationSpec(6)
    psi = fock_state("e", 2, trunc)
    eye = np.eye(12, dtype=complex)
    assert expectation(eye, psi) == pytest.approx(1.0)
    sz = spin_tensor_osc(pauli(Spin.Z), osc_identity(trunc))
    assert expectation(sz, psi) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        expectation(np.eye(4, dtype=complex), psi)


def test_expectation_real_for_hermitian_operator():
    rng = np.random.default_rng(43)
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    h = m + m.conj().T
    psi = rng.normal(size=10) + 1j * rng.normal(size=10)
    psi /= np.linalg.norm(psi)
    assert abs(expectation(h, psi).imag) < 1e-12


def test_coherent_state_mean_phonon_number():
    trunc = TruncationSpec(48)
    alpha = 0.8 + 0.3j
    psi = coherent_state("g", alpha, trunc)
    n_op = spin_tensor_osc(pauli(Spin.IDENTITY), number_op(trunc))
    assert expectation(n_op, psi).real == pytest.approx(abs(alpha) ** 2, abs=1e-9)


def test_fidelity_examples():
    trunc = TruncationSpec(4)
    psi = fock_state("e", 0, trunc)
    phi = fock_state("g", 1, trunc)
    assert fidelity(psi, psi) == pytest.approx(1.0)
    assert fidelity(psi, phi) == 0.0
    with pytest.raises(ValueError, match="normalized"):
        fidelity(psi, 0.5 * phi)
    with pytest.raises(ValueError, match="dimension"):
        fidelity(psi, fock_state("e", 0, TruncationSpec(5)))


def _builder_params(name: str, phi_l: float = 0.0) -> IonParams:
    delta = 0.2 if name == "qrm-detuned" else 0.0
    return IonParams(Omega=0.35, eta=0.11, phi_l=phi_l, delta=delta)


def _start(state: str, trunc: TruncationSpec) -> np.ndarray:
    if state == "fock":
        return fock_state("g", trunc.n_max // 2, trunc)
    return coherent_state("e", 0.6 - 0.3j, trunc)


def _assert_matches_dense(h, psi0, times, dense_states):
    run = propagate(h, psi0, times, store_states=True)
    np.testing.assert_allclose(run.states, dense_states(h, psi0, times), rtol=0, atol=1e-12)


# every builder, plus two at a laser phase whose Hamiltonian has no real gauge
_BUILDER_CASES = [(name, 0.0) for name in HAMILTONIAN_BUILDERS] + [
    ("resonant", 0.4),
    ("lamb-dicke", 0.4),
]


@pytest.mark.parametrize("state", ["fock", "coherent"])
@pytest.mark.parametrize("n_max", [1, 2, 16, 64])
@pytest.mark.parametrize("name, phi_l", _BUILDER_CASES)
def test_propagate_matches_dense_oracle_for_every_builder(name, phi_l, n_max, state,
                                                          dense_states):
    trunc = TruncationSpec(n_max)
    h = HAMILTONIAN_BUILDERS[name](_builder_params(name, phi_l), trunc)
    _assert_matches_dense(h, _start(state, trunc), np.linspace(0.0, 5.0, 9), dense_states)


_HIDDEN_SIZES = (1, 2, 3, 3, 5, 1, 7, 2)  # 24 indices
_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])


def _hidden_blocks(seed: int, kind: str):
    """Hermitian H made of random blocks, its indices shuffled; also each index's block.

    kind "real-gauge": P^dag G P for a real symmetric G and P = diag(i^n), so the
    gauge test must find G again; "complex": random complex Hermitian blocks;
    "complex-diagonal": the real-gauge matrix with a rounding-size imaginary
    part on one diagonal entry. "parity-real-gauge" and "parity-complex": one
    block spanning H = [[A, C S], [S C, S A S]], S = diag((-1)^n), with A and C
    random Hermitian (real, then gauged as for "real-gauge", or complex), so H
    commutes exactly with Pi = sigma_x (x) S.
    """
    rng = np.random.default_rng(seed)
    dim = sum(_HIDDEN_SIZES)
    if kind.startswith("parity-"):
        n = dim // 2
        a, c = rng.normal(size=(2, n, n))
        if kind == "parity-complex":
            a = a + 1j * rng.normal(size=(n, n))
            c = c + 1j * rng.normal(size=(n, n))
        a, c = a + a.conj().T, c + c.conj().T
        s = (-1.0) ** np.arange(n)
        h = np.block([[a, c * s], [s[:, None] * c, s[:, None] * a * s]])
        block = np.zeros(dim, dtype=int)
    else:
        h = np.zeros((dim, dim), dtype=complex)
        block = np.repeat(np.arange(len(_HIDDEN_SIZES)), _HIDDEN_SIZES)
        start = 0
        for size in _HIDDEN_SIZES:
            m = rng.normal(size=(size, size))
            if kind == "complex":
                m = m + 1j * rng.normal(size=(size, size))
            h[start:start + size, start:start + size] = m + m.conj().T
            start += size
        perm = rng.permutation(dim)
        h = h[np.ix_(perm, perm)]
        block = block[perm]
    if kind not in ("complex", "parity-complex"):
        p = _I_POW[np.arange(dim) % (dim // 2) % 4]
        h = p.conj()[:, None] * h * p[None, :]
    if kind == "complex-diagonal":
        h[5, 5] += 1e-16j
    return h, block


def _random_state(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("vanishing", [False, True])
@pytest.mark.parametrize("kind", ["real-gauge", "complex", "complex-diagonal",
                                  "parity-real-gauge", "parity-complex"])
@pytest.mark.parametrize("seed", [3, 11])
def test_propagate_matches_dense_oracle_on_hidden_blocks(seed, kind, vanishing,
                                                         monkeypatch, dense_states):
    h, block = _hidden_blocks(seed, kind)
    parity = kind.startswith("parity-")
    psi0 = _random_state(seed + 100, h.shape[0])
    if vanishing and parity:  # psi0 in the Pi = +1 sector, zero in the other
        n = h.shape[0] // 2
        s = (-1.0) ** np.arange(n)
        psi0 += np.concatenate([s * psi0[n:], s * psi0[:n]])
        psi0 /= np.linalg.norm(psi0)
    elif vanishing:  # psi0 identically zero on three whole blocks
        psi0[np.isin(block, [0, 3, 6])] = 0.0
        psi0 /= np.linalg.norm(psi0)
    _assert_matches_dense(h, psi0, np.linspace(0.0, 3.0, 7), dense_states)

    eig = block_eigh(h)
    real = kind in ("real-gauge", "parity-real-gauge")
    assert (eig.gauge is not None) == real
    found = sorted(idx.shape[1] for idx, *_ in eig.groups for _ in idx)
    assert found == ([h.shape[0]] if parity else sorted(_HIDDEN_SIZES))
    for idx, *_ in eig.groups:
        for members in idx:
            assert np.unique(block[members]).size == 1
    for idx, _, v, sectors in eig.groups:
        assert np.isrealobj(v) == (real or idx.shape[1] == 1)
        assert sectors == parity
    if parity:  # the spanning block goes as its two Pi sectors
        n = h.shape[0] // 2
        assert _eigh_calls(monkeypatch, h, psi0) == [((2, n, n), "f" if real else "c")]


@pytest.mark.parametrize(
    "case",
    [(name, state) for name in ("resonant", "lamb-dicke") for state in ("fock", "coherent")]
    + [("hidden", seed, kind) for seed in (3, 11) for kind in ("parity-real-gauge",
                                                               "parity-complex")],
    ids=str,
)
def test_the_sector_path_matches_the_expm_oracle(case, monkeypatch):
    from scipy.linalg import expm

    if case[0] == "hidden":
        h = _hidden_blocks(case[1], case[2])[0]
        psi0 = _random_state(case[1] + 100, h.shape[0])
    else:
        h = HAMILTONIAN_BUILDERS[case[0]](_builder_params(case[0]), T16)
        psi0 = _start(case[1], T16)
    n = h.shape[0] // 2
    kind = "c" if case[-1] == "parity-complex" else "f"
    assert _eigh_calls(monkeypatch, h, psi0) == [((2, n, n), kind)]
    times = np.linspace(0.0, 5.0, 9)
    run = propagate(h, psi0, times, store_states=True)
    expected = np.array([expm(-1j * t * h) @ psi0 for t in times])
    np.testing.assert_allclose(run.states, expected, rtol=0, atol=1e-11)


def test_blocks_follow_entries_in_either_triangle(dense_states):
    # a coupling present below the diagonal only (Hermitian within tolerance) still
    # joins two blocks, as it does for a dense eigh, which reads the lower triangle
    h, block = _hidden_blocks(3, "real-gauge")
    for other in (1, 2):  # two blocks not holding index 0, each linked to it
        h[np.flatnonzero(block == (block[0] + other) % len(_HIDDEN_SIZES))[-1], 0] = 5e-11
    _assert_matches_dense(h, _random_state(7, h.shape[0]), np.linspace(0.0, 3.0, 7),
                          dense_states)


def test_block_eigh_values_match_dense_eigvalsh():
    for kind in ("real-gauge", "complex", "parity-real-gauge", "parity-complex"):
        h, _ = _hidden_blocks(5, kind)
        np.testing.assert_allclose(
            block_eigh(h, vectors=False).eigenvalues, np.linalg.eigvalsh(h), rtol=0, atol=1e-12
        )
    trunc = TruncationSpec(16)
    for name in HAMILTONIAN_BUILDERS:
        h = HAMILTONIAN_BUILDERS[name](_builder_params(name), trunc)
        np.testing.assert_allclose(
            block_eigh(h, vectors=False).eigenvalues, np.linalg.eigvalsh(h), rtol=0, atol=1e-12
        )


def test_block_eigh_rejects_odd_or_non_square_matrices():
    with pytest.raises(ValueError, match="even dimension"):
        block_eigh(np.eye(3))
    with pytest.raises(ValueError, match="even dimension"):
        block_eigh(np.zeros((4, 2)))


def _dense_hermitian(h) -> bool:
    """The dense scan propagate ran before block_eigh checked blocks: the test oracle."""
    return bool(np.max(np.abs(h - h.conj().T)) <= 1e-10 * max(1.0, np.max(np.abs(h))))


def _accepted(h) -> bool:
    """Whether H passes the Hermiticity check; block_eigh with and without vectors and
    propagate must agree."""
    psi0 = np.eye(h.shape[0], dtype=complex)[0]
    verdicts = set()
    for run in (lambda: block_eigh(h), lambda: block_eigh(h, vectors=False),
                lambda: propagate(h, psi0, [0.0, 1.0])):
        try:
            run()
            verdicts.add(True)
        except ArithmeticError:
            # the residual bound, checked after Hermiticity: an imaginary diagonal
            # below the tolerance's floor of 1e-10 can exceed it when H is that small
            verdicts.add(True)
        except ValueError as exc:
            assert str(exc) == "H is not Hermitian within tolerance"
            verdicts.add(False)
    assert len(verdicts) == 1, "block_eigh and propagate disagree"
    return verdicts.pop()


def _skewed(h, factor):
    """H with one entry moved so that max|H - H^dag| is factor times the tolerance.

    The first nonzero entry above the diagonal moves in its nonzero part, so an H
    real in the Fock-parity gauge stays so; with none, entry (0, 0) gains an
    imaginary part.
    """
    h = h.copy()
    eps = factor * 1e-10 * max(1.0, np.max(np.abs(h)))
    upper = np.argwhere(np.triu(h, 1) != 0)
    if len(upper):
        k, l = upper[0]
        h[k, l] += eps if h[k, l].real != 0 else 1j * eps
    else:
        h[0, 0] += 0.5j * eps
    return h


def _verdict_case(case):
    if case[0] == "hidden":
        return _hidden_blocks(case[1], case[2])[0]
    name, phi_l = case
    return HAMILTONIAN_BUILDERS[name](_builder_params(name, phi_l), T16)


@pytest.mark.parametrize(
    "case",
    _BUILDER_CASES + [("hidden", seed, kind) for seed in (3, 11)
                      for kind in ("real-gauge", "complex", "complex-diagonal")],
    ids=str,
)
def test_hermiticity_on_blocks_gives_the_dense_verdict(case):
    h = _verdict_case(case)
    assert _dense_hermitian(h) and _accepted(h)
    # just below and just above the tolerance
    for factor in (0.99, 1.01):
        skewed = _skewed(h, factor)
        assert _dense_hermitian(skewed) == (factor < 1)
        assert _accepted(skewed) == (factor < 1), factor


@pytest.mark.parametrize("path", ["gauged-block", "complex-block", "imaginary-diagonal"])
def test_hermiticity_check_fails_on_each_path(path):
    h, block = _hidden_blocks(3, "real-gauge" if path == "gauged-block" else "complex")
    if path == "imaginary-diagonal":
        k = np.flatnonzero(block == 0)[0]  # a 1x1 block
        h[k, k] += 1e-6j
    else:
        k, l = np.flatnonzero(block == 6)[:2]  # two indices of the 7x7 block
        h[k, l] += 1e-6 if h[k, l].real != 0 else 1e-6j
    assert (fock_gauge(h, h.shape[0] // 2) is not None) == (path == "gauged-block")
    for vectors in (True, False):
        with pytest.raises(ValueError, match="not Hermitian"):
            block_eigh(h, vectors=vectors)
    with pytest.raises(ValueError, match="not Hermitian"):
        # reported before the bad time grid
        propagate(h, np.eye(h.shape[0], dtype=complex)[0], [1.0, 0.0])


def test_a_nan_in_h_or_psi0_fails_the_gates():
    p, n = IonParams(Omega=0.5, eta=0.02), T16.n_max
    h = h_jc(p, T16)
    h[0, n + 1] = h[n + 1, 0] = np.nan  # one Hermitian pair of one 2x2 block
    for vectors in (True, False):
        with pytest.raises(ValueError, match="^H is not Hermitian within tolerance$"):
            block_eigh(h, vectors=vectors)
    times = np.linspace(0.0, 1.0, 2)
    with pytest.raises(ValueError, match="^H is not Hermitian within tolerance$"):
        propagate(h, fock_state("e", 0, T16), times)
    psi0 = fock_state("e", 0, T16)
    psi0[3] = np.nan
    with pytest.raises(ValueError, match="^initial state is not normalized$"):
        propagate(h_jc(p, T16), psi0, times)


@pytest.mark.parametrize("name", ["resonant", "qrm", "jc"])
def test_a_nan_pair_fails_the_hermiticity_gate_before_any_eigh(name, monkeypatch):
    n = 8
    trunc = TruncationSpec(n)
    h = HAMILTONIAN_BUILDERS[name](IonParams(Omega=0.5, eta=0.1), trunc)
    h[0, n + 1] = h[n + 1, 0] = np.nan  # the coupling |e,0> <-> |g,1> and its mirror
    calls = []
    for kernel in ("eigh", "eigvalsh"):
        def counting(a, *args, _kernel=getattr(np.linalg, kernel), **kwargs):
            calls.append(np.shape(a))
            return _kernel(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, kernel, counting)
    for vectors in (True, False):
        with pytest.raises(ValueError, match="^H is not Hermitian within tolerance$"):
            block_eigh(h, vectors=vectors)
    with pytest.raises(ValueError, match="^H is not Hermitian within tolerance$"):
        propagate(h, fock_state("e", 0, trunc), np.linspace(0.0, 1.0, 2))
    assert calls == []


@pytest.mark.parametrize("state", ["fock", "coherent"])
@pytest.mark.parametrize("builder", [h_jc, h_dispersive, h_resonant, h_lamb_dicke, h_qrm])
def test_propagate_allocates_less_than_one_and_a_half_dense_matrices(builder, state):
    trunc = TruncationSpec(256)
    h = builder(IonParams(Omega=0.35, eta=0.11), trunc)
    psi0 = _start(state, trunc)
    tracemalloc.start()
    try:
        propagate(h, psi0, np.linspace(0.0, 5.0, 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 6 MiB at dim 512: no dense complex temporary beside the real gauged copy
    assert peak < 1.5 * h.nbytes, peak / 2**20


def test_oracle_catches_a_flipped_gauge(monkeypatch, dense_states):
    # the real matrix formed with P^dag in place of P, its eigenvectors mapped back
    # with P^dag: the gauge's one definition flipped where gauge_parts reads it
    phases = algebra.fock_phases
    monkeypatch.setattr(algebra, "fock_phases", lambda dim, n_osc: phases(dim, n_osc).conj())
    h, _ = _hidden_blocks(3, "real-gauge")
    with pytest.raises(AssertionError):
        _assert_matches_dense(h, _random_state(7, h.shape[0]), np.linspace(0.0, 3.0, 7),
                              dense_states)


def test_oracle_catches_a_dropped_block(monkeypatch, dense_states):
    blocks_by_size = dynamics._blocks_by_size

    def drop_one(labels):
        groups = blocks_by_size(labels)
        return groups[:-1] + [groups[-1][1:]] if len(groups[-1]) > 1 else groups[:-1]

    monkeypatch.setattr(dynamics, "_blocks_by_size", drop_one)
    h, _ = _hidden_blocks(3, "real-gauge")
    with pytest.raises((AssertionError, ArithmeticError)):
        _assert_matches_dense(h, _random_state(7, h.shape[0]), np.linspace(0.0, 3.0, 7),
                              dense_states)


def _eigh_calls(monkeypatch, h, psi0):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append((np.shape(a), np.asarray(a).dtype.kind))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    propagate(h, psi0, np.linspace(0.0, 2.0, 5))
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls


def test_eigh_calls_follow_the_structure_of_each_model(monkeypatch):
    n = 16
    trunc = TruncationSpec(n)
    p = IonParams(Omega=0.35, eta=0.11)
    psi0 = coherent_state("e", 0.6 - 0.3j, trunc)
    assert _eigh_calls(monkeypatch, h_dispersive(p, trunc), psi0) == []
    # n - 1 excitation pairs in one call; |g,0> and |e,n-1> are 1x1 blocks
    assert _eigh_calls(monkeypatch, h_jc(p, trunc), psi0) == [((n - 1, 2, 2), "f")]
    # the two parity blocks of the QRM, real in the Fock-parity gauge
    assert _eigh_calls(monkeypatch, h_qrm(p, trunc), psi0) == [((2, n, n), "f")]
    # the rotated Rabi form has the same parity zero pattern
    assert _eigh_calls(monkeypatch, h_rabi_rotated(p, trunc), psi0) == [((2, n, n), "f")]
    # delta/2 sigma_x breaks the QRM parity: one dense real block
    h = h_qrm_detuned(IonParams(Omega=0.35, eta=0.11, delta=0.2), trunc)
    assert _eigh_calls(monkeypatch, h, psi0) == [((1, 2 * n, 2 * n), "f")]
    # one block spanning H that commutes with Pi = sigma_x (x) (-1)^n: its two sectors
    assert _eigh_calls(monkeypatch, h_resonant(p, trunc), psi0) == [((2, n, n), "f")]
    assert _eigh_calls(monkeypatch, h_lamb_dicke(p, trunc), psi0) == [((2, n, n), "f")]
    # off the phases 0 and pi no real gauge exists, and H does not commute with Pi
    h = h_resonant(IonParams(Omega=0.35, eta=0.11, phi_l=0.4), trunc)
    assert _eigh_calls(monkeypatch, h, psi0) == [((1, 2 * n, 2 * n), "c")]


def test_the_single_beam_models_at_phi_l_pi_are_pi_sectors_in_the_real_gauge():
    n = 16
    trunc = TruncationSpec(n)
    p = IonParams(Omega=0.35, eta=0.11, phi_l=math.pi)
    for h in (h_resonant(p, trunc), h_lamb_dicke(p, trunc)):
        eig = block_eigh(h)
        assert eig.gauge is not None
        assert [(w.shape, v.dtype.kind, sectors) for _, w, v, sectors in eig.groups] == [
            ((2, n), "f", True)]
    # the real form exists at pi and is the gauge of the complex form
    got = h_resonant(p, trunc, gauged=True)
    assert got.dtype == np.float64
    assert np.array_equal(got, fock_gauge(h_resonant(p, trunc), n))


def test_propagate_evolves_only_the_blocks_the_state_touches(monkeypatch):
    coefficients, placed = [], []
    times_matrix, place = dynamics._times_matrix, dynamics._place

    def recording_coefficients(a, b):
        coefficients.append(np.shape(a))
        return times_matrix(a, b)

    def recording_place(dest, out, idx, sector, small):
        placed.append((np.shape(out), idx.tolist(), sector, small))
        place(dest, out, idx, sector, small)

    monkeypatch.setattr(dynamics, "_times_matrix", recording_coefficients)
    monkeypatch.setattr(dynamics, "_place", recording_place)
    trunc = TruncationSpec(16)
    h = h_jc(IonParams(Omega=0.35, eta=0.11), trunc)
    # |e,3> lies in the single excitation block {|e,3>, |g,4>}; the 1x1 blocks
    # |g,0> and |e,15> and the other 14 pairs are left out
    propagate(h, fock_state("e", 3, trunc), np.linspace(0.0, 2.0, 5))
    assert coefficients == [(1, 1, 2)]
    # the real and imaginary planes of the one block, time innermost
    assert placed == [((1, 2, 5), [[3, 20]], None, True)] * 2


@pytest.mark.parametrize("n_max", [16, 17])
def test_qrm_parity_blocks_move_by_slices(n_max):
    n = n_max
    h = h_qrm(IonParams(Omega=0.35, eta=0.11), TruncationSpec(n))
    (idx, *_), = block_eigh(h).groups
    runs = dynamics._runs(idx)
    # each block is e-even with g-odd or e-odd with g-even: two progressions of step 2,
    # which join into one at an odd n_max
    for block, parts in zip(idx, runs):
        assert [where.step for *_, where in parts] == [2] * (2 if n % 2 == 0 else 1)
        np.testing.assert_array_equal(
            np.concatenate([np.arange(2 * n)[where] for *_, where in parts]), block)
    # the strided views give the fancy-indexed blocks bit for bit, gauged or not
    ix = idx[:, :, None], idx[:, None, :]
    np.testing.assert_array_equal(dynamics._gather(h, idx, True), fock_gauge(h, n)[ix])
    np.testing.assert_array_equal(dynamics._gather(h, idx, False), h[ix])
    # and the slices place what the scatter placed
    out = np.random.default_rng(n).normal(size=(len(idx), 5, idx.shape[1]))
    placed, scattered = np.zeros((2, 5, 2 * n))
    dynamics._place(placed, out, idx, None, False)
    scattered[:, idx] = out.transpose(1, 0, 2)
    np.testing.assert_array_equal(placed, scattered)
    # blocks of other forms keep the scatter
    assert dynamics._runs(block_eigh(h_jc(IonParams(Omega=0.35, eta=0.11), T16)).groups[-1][0]) is None


@pytest.mark.parametrize("name", ["resonant", "lamb-dicke"])
def test_one_ulp_off_the_parity_takes_the_dense_path(name, monkeypatch, dense_states):
    trunc = TruncationSpec(16)
    h = HAMILTONIAN_BUILDERS[name](_builder_params(name), trunc)
    psi0 = _start("coherent", trunc)
    assert _eigh_calls(monkeypatch, h, psi0) == [((2, 16, 16), "f")]
    # coupling |e,0> <-> |g,1>, imaginary, and its Hermitian mirror: one ulp up
    moved = h.copy()
    moved[0, 17] = 1j * np.nextafter(h[0, 17].imag, np.inf)
    moved[17, 0] = moved[0, 17].conj()
    assert moved[0, 17] != h[0, 17] and fock_gauge(moved, 16) is not None
    assert _eigh_calls(monkeypatch, moved, psi0) == [((1, 32, 32), "f")]
    _assert_matches_dense(moved, psi0, np.linspace(0.0, 5.0, 9), dense_states)


def test_hermiticity_is_checked_on_the_whole_block_in_the_sector_path(monkeypatch):
    # H_ee and H_gg gain one entry off the diagonal, kept out of the transposed
    # place: H still commutes with Pi exactly, but is not Hermitian
    n = 16
    h = h_resonant(IonParams(Omega=0.35, eta=0.11), TruncationSpec(n))
    psi0 = _start("coherent", TruncationSpec(n))
    for factor in (0.99, 1.01):
        skewed = h.copy()
        eps = factor * 1e-10 * max(1.0, np.max(np.abs(h)))
        skewed[0, 2] += eps
        skewed[n, n + 2] += eps  # (-1)^0 (-1)^2 = 1
        assert _dense_hermitian(skewed) == (factor < 1)
        if factor < 1:
            assert _eigh_calls(monkeypatch, skewed, psi0) == [((2, n, n), "f")]
        assert _accepted(skewed) == (factor < 1), factor


def _broken_assembly(flaw: str):
    """The sector branch of dynamics._place written out, with one flaw or none ("none")."""
    place = dynamics._place

    def assemble(dest, out, idx, sector, small):
        if sector is None:
            return place(dest, out, idx, sector, small)
        # the states start at zero: e = x + y, g = S (x - y) from sector 0 (x), then 1 (y)
        n = dest.shape[1] // 2
        dest[:, :n] += out[0]
        dest[:, n:] += out[0] if (sector == 0) != (flaw == "+- swapped") else -out[0]
        if sector == 1 and flaw != "S dropped":
            dest[:, n + 1::2] *= -1.0
    return assemble


@pytest.mark.parametrize("flaw", ["none", "S dropped", "+- swapped"])
@pytest.mark.parametrize("stage", ["sectors", "vectors"])
@pytest.mark.parametrize("name", ["resonant", "lamb-dicke"])
def test_oracle_catches_a_broken_sector_assembly(name, stage, flaw, monkeypatch,
                                                 dense_states):
    parity_sectors = dynamics._parity_sectors

    def broken_sectors(h, real):
        good = parity_sectors(h, real)
        if good is None or flaw == "none":
            return good
        if flaw == "+- swapped":
            return good[::-1].copy()
        n = h.shape[0] // 2
        a = fock_gauge(h, n) if real else h
        return np.stack([a[:n, :n] + a[:n, n:], a[:n, :n] - a[:n, n:]])

    if stage == "sectors":
        monkeypatch.setattr(dynamics, "_parity_sectors", broken_sectors)
    else:
        monkeypatch.setattr(dynamics, "_place", _broken_assembly(flaw))
    trunc = TruncationSpec(16)
    h = HAMILTONIAN_BUILDERS[name](_builder_params(name), trunc)
    args = (h, _start("coherent", trunc), np.linspace(0.0, 5.0, 9), dense_states)
    if flaw == "none":
        _assert_matches_dense(*args)
    else:
        with pytest.raises((AssertionError, ArithmeticError)):
            _assert_matches_dense(*args)
