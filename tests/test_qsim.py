import numpy as np
import pytest

import rpsim as rp
from rpsim import qsim
from rpsim.circuit import Circuit, Gate
from rpsim.refsolver import QuantumState

from util import (
    circuit_unitary_oracle,
    depolarize_oracle,
    gate_unitary_oracle,
    local_unitary_oracle,
    random_circuit,
    random_density,
    random_pure_state,
    random_unitary,
)


def test_gate_matrices_unitary():
    rng = np.random.default_rng(3)
    gates = [
        Gate("X", (0,)),
        Gate("H", (1,)),
        Gate("CNOT", (0, 2)),
        Gate("RX", (0,), 0.7),
        Gate("RY", (1,), -1.2),
        Gate("RZ", (2,), 2.9),
        Gate("PauliRot2", (0, 1), 0.4, ("Y", "Z")),
    ]
    for g in gates:
        U = qsim.gate_matrix(g)
        assert np.allclose(U @ U.conj().T, np.eye(U.shape[0]), atol=1e-12)


def test_rotation_angle_convention():
    # R_P(phi) = exp(-i phi/2 P): phi=2pi returns -I, phi=pi gives -iP
    U = qsim.gate_matrix(Gate("RZ", (0,), 2 * np.pi))
    assert np.allclose(U, -np.eye(2), atol=1e-12)
    U = qsim.gate_matrix(Gate("RX", (0,), np.pi))
    assert np.allclose(U, -1j * np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_apply_gate_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        circ = random_circuit(rng, n_qubits=3, max_depth=1)
        gate = circ.gates[0]
        psi = random_pure_state(rng)
        got = qsim.apply_gate_state(psi, gate, 3)
        want = gate_unitary_oracle(gate, 3) @ psi
        assert np.allclose(got, want, atol=1e-12)
        rho = np.outer(psi, psi.conj())
        got_rho = qsim.apply_gate_density(rho, gate, 3)
        U = gate_unitary_oracle(gate, 3)
        assert np.allclose(got_rho, U @ rho @ U.conj().T, atol=1e-12)


def test_run_statevector_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        circ = random_circuit(rng, max_depth=30)
        psi = random_pure_state(rng)
        out = qsim.run_statevector(circ, QuantumState.pure(psi))
        want = circuit_unitary_oracle(circ.gates, 3) @ psi
        assert np.allclose(out.data, want, atol=1e-10)


def test_run_statevector_step_recording(prototype):
    circ = rp.compile(prototype, 0.5, 4)
    psi0 = QuantumState.pure(rp.singlet_vector(3, "0"))
    body_only = Circuit(3, circ.body, 4, 0.5)
    final, recorded = qsim.run_statevector(body_only, psi0, record_after_each_step=True)
    assert len(recorded) == 4
    assert np.allclose(recorded[-1].data, final.data)
    # equal-prefix property: k steps of t equal the k-step compile prefix
    two = qsim.run_statevector(Circuit(3, circ.body[: 2 * 15], 2, 0.25), psi0)
    assert np.allclose(recorded[1].data, two.data, atol=1e-12)


def test_run_statevector_rejects_unequal_split():
    gates = (Gate("H", (0,)), Gate("X", (1,)), Gate("X", (2,)))
    circ = Circuit(3, gates, trotter_steps=2, target_time=1.0)
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(ValueError):
        qsim.run_statevector(circ, QuantumState.pure(psi), record_after_each_step=True)


def test_depolarize_properties():
    rng = np.random.default_rng(2)
    psi = random_pure_state(rng)
    rho = np.outer(psi, psi.conj())
    # p=0 is the identity channel
    assert np.allclose(qsim.depolarize(rho, [1], 0.0, 3), rho)
    # trace preserved for any p
    out = qsim.depolarize(rho, [0, 2], 0.37, 3)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    # p=1 fully mixes the hit qubit: its marginal becomes I/2
    out = qsim.depolarize(rho, [0], 1.0, 3)
    marg = np.einsum("iaja->ij", out.reshape(2, 4, 2, 4))
    assert np.allclose(marg, np.eye(2) / 2, atol=1e-12)
    # depolarizing commutes with which-qubit relabeling of a product state
    v = np.kron(random_pure_state(rng, 1), random_pure_state(rng, 2))
    rho_p = np.outer(v, v.conj())
    one = qsim.depolarize(rho_p, [0], 0.2, 3)
    assert np.trace(one).real == pytest.approx(1.0, abs=1e-12)


def test_depolarize_interpolation():
    rng = np.random.default_rng(8)
    psi = random_pure_state(rng)
    rho = np.outer(psi, psi.conj())
    p = 0.3
    out = qsim.depolarize(rho, [1], p, 3)
    full = qsim.depolarize(rho, [1], 1.0, 3)
    assert np.allclose(out, (1 - p) * rho + p * full, atol=1e-12)


def test_channel_kernel_matches_dense_oracle():
    """A (B, d, d) stack through one local superoperator per entry equals
    the kron-built unitary followed by the depolarizing formula."""
    rng = np.random.default_rng(29)
    n, B = 3, 4
    for qubits in [(1,), (2,), (0, 1), (1, 2), (2, 0)]:
        for p in (0.0, 0.37):
            Us = np.stack([random_unitary(rng, 2 ** len(qubits)) for _ in range(B)])
            rhos = np.stack([random_density(rng, 2**n) for _ in range(B)])
            got = qsim._apply_channel(rhos, qsim._channel_superop(Us, p), qubits, n)
            for U, rho, out in zip(Us, rhos, got):
                U_full = local_unitary_oracle(U, qubits, n)
                want = depolarize_oracle(U_full @ rho @ U_full.conj().T, qubits, p, n)
                assert np.max(np.abs(out - want)) < 1e-12


def test_run_density_noiseless_equals_statevector():
    rng = np.random.default_rng(17)
    for _ in range(25):
        circ = random_circuit(rng, max_depth=40)
        psi = random_pure_state(rng)
        sv = qsim.run_statevector(circ, QuantumState.pure(psi))
        dm = qsim.run_density(circ, QuantumState.density(np.outer(psi, psi.conj())))
        assert np.max(np.abs(np.outer(sv.data, sv.data.conj()) - dm.data)) < 1e-10


def test_run_density_noise_shrinks_purity(prototype):
    circ = rp.lower_to_basis(rp.compile(prototype, 0.4, 2))
    rho0 = rp.initial_state("up", 3, kind="density")
    clean = qsim.run_density(circ, rho0)
    noisy = qsim.run_density(circ, rho0, rp.NoiseProfile())
    pur_clean = np.trace(clean.data @ clean.data).real
    pur_noisy = np.trace(noisy.data @ noisy.data).real
    assert pur_noisy < pur_clean - 1e-4
    assert np.trace(noisy.data).real == pytest.approx(1.0, abs=1e-10)


def test_noise_profile_validation():
    with pytest.raises(ValueError):
        qsim.NoiseProfile(p_depol_1q=-0.1)
    with pytest.raises(ValueError):
        qsim.NoiseProfile(readout_flip_0to1=1.5)
    off = qsim.NoiseProfile.off()
    assert not off.enabled
    d = qsim.NoiseProfile().as_dict()
    assert d["p_depol_2q"] == pytest.approx(8e-3)


def test_readout_transition_matrix():
    assert np.allclose(qsim.readout_transition_matrix(None), np.eye(4))
    M = qsim.readout_transition_matrix(rp.NoiseProfile())
    assert np.allclose(M.sum(axis=1), 1.0)
    assert M[0, 0] == pytest.approx((1 - 2e-2) ** 2)
    assert M[0, 3] == pytest.approx((2e-2) ** 2)
    # disabled profile behaves like no noise
    assert np.allclose(qsim.readout_transition_matrix(rp.NoiseProfile.off()), np.eye(4))


def test_electron_outcome_probabilities():
    state = QuantumState.pure(rp.singlet_vector(3, "0"))
    probs = qsim.electron_outcome_probabilities(state)
    assert probs[0b01] == pytest.approx(0.5)
    assert probs[0b10] == pytest.approx(0.5)
    assert probs.sum() == pytest.approx(1.0)
    mixed = rp.initial_state("mixed", 3)
    probs = qsim.electron_outcome_probabilities(mixed)
    assert probs[0b01] == pytest.approx(0.5) and probs[0b10] == pytest.approx(0.5)


def test_sampling_deterministic_and_consistent():
    state = QuantumState.pure(rp.singlet_vector(3, "0"))
    a = qsim.sample_measurements(state, 1000, seed=99)
    b = qsim.sample_measurements(state, 1000, seed=99)
    assert a.counts == b.counts
    assert sum(a.counts.values()) == 1000
    c = qsim.sample_measurements(state, 1000, seed=100)
    assert c.counts != a.counts  # overwhelmingly likely
    # only the two singlet branches appear without readout noise
    assert a.counts["00"] == 0 and a.counts["11"] == 0


def test_sampling_readout_flips_move_mass():
    state = QuantumState.pure(rp.singlet_vector(3, "0"))
    noisy = rp.NoiseProfile(p_depol_1q=0.0, p_depol_2q=0.0)
    res = qsim.sample_measurements(state, 20000, seed=1, noise=noisy)
    # flips leak ~2% per bit into 00/11
    assert res.counts["00"] + res.counts["11"] > 200
    frac_01 = res.counts["01"] / 20000
    assert frac_01 == pytest.approx(0.5 * (1 - 2e-2) ** 2 + 0.5 * (2e-2) * (2e-2), abs=0.02)


def test_sampling_rejects_bad_shots():
    state = QuantumState.pure(rp.singlet_vector(3, "0"))
    with pytest.raises(ValueError):
        qsim.sample_measurements(state, 0, seed=1)
