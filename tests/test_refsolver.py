import numpy as np
import pytest
from scipy.linalg import expm

import rpsim as rp
from rpsim.protocols import _reference_problem
from rpsim.refsolver import PopulationTrace, QuantumState, _population_rows
from rpsim.spinham import build_pauli_terms, to_dense_matrix

from util import dense_hamiltonian_oracle

K = 1.0


def _hamiltonian(system):
    return to_dense_matrix(build_pauli_terms(system), system.n_sites)


def test_quantum_state_validation():
    good = np.zeros(8, dtype=complex)
    good[0] = 1.0
    QuantumState.pure(good)
    with pytest.raises(ValueError):
        QuantumState.pure(good * 2)  # not normalized
    rho = np.eye(8) / 8
    QuantumState.density(rho)
    with pytest.raises(ValueError):
        QuantumState.density(rho * 2)  # trace 2
    bad = rho.copy().astype(complex)
    bad[0, 1] = 0.5  # not Hermitian
    with pytest.raises(ValueError):
        QuantumState.density(bad)


def test_singlet_vector_amplitudes():
    v = rp.singlet_vector(3, "0")
    idx_01 = 0b010  # electrons 01, nucleus 0
    idx_10 = 0b100
    assert v[idx_01] == pytest.approx(1 / np.sqrt(2))
    assert v[idx_10] == pytest.approx(-1 / np.sqrt(2))
    assert np.count_nonzero(v) == 2
    w = rp.singlet_vector(3, "1")
    assert w[0b011] == pytest.approx(1 / np.sqrt(2))
    assert w[0b101] == pytest.approx(-1 / np.sqrt(2))
    with pytest.raises(ValueError):
        rp.singlet_vector(3, "00")


def test_projectors():
    PS = rp.singlet_projector(3)
    PT = rp.triplet_projector(3)
    assert np.allclose(PS @ PS, PS, atol=1e-14)
    assert np.allclose(PT @ PT, PT, atol=1e-14)
    assert np.allclose(PS + PT, np.eye(8), atol=1e-14)
    assert np.trace(PS).real == pytest.approx(2.0)  # one singlet per nuclear bit
    v = rp.singlet_vector(3, "0")
    assert v.conj() @ PS @ v == pytest.approx(1.0)


def test_initial_state_variants():
    up = rp.initial_state("up", 3)
    assert up.kind == "pure"
    down = rp.initial_state("down", 3, kind="density")
    assert down.kind == "density"
    mixed = rp.initial_state("mixed", 3)
    assert mixed.kind == "density"
    assert np.trace(mixed.data).real == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rp.initial_state("mixed", 3, kind="pure")
    with pytest.raises(ValueError):
        rp.initial_state("sideways", 3)


def test_evolve_exact_matches_expm(prototype):
    H = _hamiltonian(prototype)
    times = np.arange(6) * 0.05
    for state in (rp.initial_state("up", 3), rp.initial_state("mixed", 3)):
        trace = rp.evolve_exact(H, state, times)
        PS = rp.singlet_projector(3)
        rho = state.as_density_matrix()
        for i, t in enumerate(times):
            U = expm(-1j * H * t / rp.HBAR_NEV_US)
            expect = np.trace(PS @ U @ rho @ U.conj().T).real
            assert trace.populations[i] == pytest.approx(expect, abs=1e-12)


def test_evolve_exact_frozen_values(prototype):
    trace = rp.reference_trace(prototype, "mixed", t_max=1.0, dt=0.001)
    assert trace.populations[0] == pytest.approx(1.0, abs=1e-12)
    frozen = {
        100: 0.812412913,
        250: 0.423893401,
        500: 0.437253447,
        750: 0.718819427,
        1000: 0.641305614,
    }
    for idx, value in frozen.items():
        assert trace.populations[idx] == pytest.approx(value, abs=1e-9)
    decayed = rp.apply_decay(trace, K)
    frozen_decayed = {
        100: 0.735101602,
        250: 0.330128513,
        500: 0.265207622,
        750: 0.339546255,
        1000: 0.235923151,
    }
    for idx, value in frozen_decayed.items():
        assert decayed.populations[idx] == pytest.approx(value, abs=1e-9)


def test_evolve_exact_rejects_nonhermitian():
    H = np.zeros((8, 8), dtype=complex)
    H[0, 1] = 1.0
    with pytest.raises(ValueError):
        rp.evolve_exact(H, rp.initial_state("up", 3), np.array([0.0, 0.1]))
    # a non-Hermitian state gives complex populations, which must not be
    # truncated to their real part
    rho = rp.initial_state("mixed", 3).data + 1e-6j * np.eye(8)
    H = _hamiltonian(rp.prototype_system())
    with pytest.raises(FloatingPointError, match="imaginary"):
        rp.evolve_exact(H, QuantumState("density", rho, 3), np.array([0.0, 0.1]))


def test_population_trace_validation():
    with pytest.raises(ValueError):
        PopulationTrace(np.array([0.0, 0.1, 0.15]), np.ones(3))  # non-uniform
    with pytest.raises(ValueError):
        PopulationTrace(np.array([0.1, 0.0]), np.ones(2))  # decreasing
    tr = PopulationTrace(np.array([0.0, 0.5]), np.array([1.0, 0.8]))
    assert tr.dt == pytest.approx(0.5)


def test_apply_decay():
    times = np.arange(5) * 0.25
    tr = PopulationTrace(times, np.ones(5))
    dec = rp.apply_decay(tr, 2.0)
    assert np.allclose(dec.populations, np.exp(-2.0 * times))
    assert dec.decayed
    with pytest.raises(ValueError):
        rp.apply_decay(dec, 2.0)  # double decay


def test_rk4_matches_analytic_factorization(prototype):
    H = _hamiltonian(prototype)
    rho0 = rp.initial_state("mixed", 3)
    rk = rp.rk4_haberkorn(H, rho0, K, K, dt=0.001, t_max=1.0)
    assert rk.decayed
    exact = rp.apply_decay(rp.evolve_exact(H, rho0, rk.times), K)
    assert np.max(np.abs(rk.populations - exact.populations)) <= 1e-6


def test_rk4_asymmetric_rates_rejected(prototype):
    H = _hamiltonian(prototype)
    with pytest.raises(NotImplementedError):
        rp.rk4_haberkorn(H, rp.initial_state("mixed", 3), 1.0, 2.0)


def test_rk4_requires_density(prototype):
    H = _hamiltonian(prototype)
    with pytest.raises(ValueError):
        rp.rk4_haberkorn(H, rp.initial_state("up", 3), K, K)


def test_population_conservation(prototype):
    """Singlet + triplet populations trace the bare decay envelope."""
    H = _hamiltonian(prototype)
    rho0 = rp.initial_state("mixed", 3)
    times = np.arange(101) * 0.01
    s_trace = rp.apply_decay(rp.evolve_exact(H, rho0, times), K)
    evals, vecs = np.linalg.eigh(H)
    a = vecs.conj().T @ rho0.as_density_matrix() @ vecs
    phases = np.exp(-1j * np.outer(times, evals) / rp.HBAR_NEV_US)
    PT = vecs.conj().T @ rp.triplet_projector(3) @ vecs
    t_pops = np.einsum("ta,ab,tb,ba->t", phases, a, phases.conj(), PT).real
    total = s_trace.populations + t_pops * np.exp(-K * times)
    assert np.max(np.abs(total - np.exp(-K * times))) <= 1e-10


def test_evolve_exact_rejects_population_out_of_range(prototype):
    """A state whose singlet population exceeds 1 is an error, not a value."""
    H = _hamiltonian(prototype)
    rho = rp.singlet_projector(3)  # Hermitian with real populations, but trace 2
    with pytest.raises(FloatingPointError, match=r"leaves \[0, 1\]"):
        rp.evolve_exact(H, QuantumState("density", rho, 3), np.array([0.0, 0.1]))


def test_population_rows_reject_one_nonhermitian_matrix(prototype):
    """One bad matrix in the stack fails the whole stack, before any row."""
    H = np.stack([_hamiltonian(prototype.with_angles(th)) for th in (0.0, 1.0, 2.0)])
    H[1, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        _population_rows(H, rp.initial_state("up", 3), np.array([0.0, 0.1]), rp.HBAR_NEV_US)


def test_stacked_reference_matches_expm_two_nuclei():
    """Off-diagonal tensor and unequal g-factors, three angles in one stack,
    against exp(-iHt/hbar) built from the independent dense oracle."""
    system = rp.prototype_system(
        g_factors=(2.0, 2.003),
        nuclei=(
            (0, np.array([[5.0, 1.2, -0.4], [1.2, 5.5, 0.3], [-0.4, 0.3, 10.0]])),
            (1, np.diag([2.5, 2.5, 5.0])),
        ),
    )
    thetas = [0.0, 1.1, np.pi]
    times = np.arange(6) * 0.07
    PS = rp.singlet_projector(4)
    for nuclear in ("mixed", "up", "down"):
        H, state0 = _reference_problem(system, thetas, nuclear)
        rows = _population_rows(H, state0, times, system.hbar)
        rho = state0.as_density_matrix()
        for th, pops in zip(thetas, rows, strict=True):
            oracle = dense_hamiltonian_oracle(system.with_angles(th))
            for t, pop in zip(times, pops):
                U = expm(-1j * oracle * t / system.hbar)
                assert pop == pytest.approx(np.trace(PS @ U @ rho @ U.conj().T).real, abs=1e-12)
