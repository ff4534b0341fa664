"""Circuit execution: dense statevector and density-matrix simulators.

The density path supports a parametric per-gate noise model: after every
1-qubit (2-qubit) gate a depolarizing channel of strength p_depol_1q
(p_depol_2q) acts on that gate's qubits. Readout bit-flip errors apply
only when sampling measurement shots.

All density-matrix work goes through one kernel: a gate and its channel
form a single 4^k x 4^k local superoperator (`_channel_superop`), which
`_apply_channel` contracts onto the gate's row and column axes of a
(..., d, d) stack of density matrices, never building a full-space
operator. `run_density` is its one-state case; the batched noisy engine
in `protocols` pushes whole stacks (time grids, identity rows) through it.

Qubit 0 is the most significant bit of a basis index, matching the rest
of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate
from .paulis import PAULI
from .refsolver import QuantumState

PRNG_ALGORITHM = "PCG64"  # numpy default_rng; recorded in output metadata

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@dataclass(frozen=True)
class NoiseProfile:
    """Depolarizing-per-gate strengths plus readout flip probabilities.

    These are calibration-style defaults for qualitative noise studies,
    not measurements of any particular device.
    """

    p_depol_1q: float = 3e-4
    p_depol_2q: float = 8e-3
    readout_flip_0to1: float = 2e-2
    readout_flip_1to0: float = 2e-2
    enabled: bool = True

    def __post_init__(self):
        for name in ("p_depol_1q", "p_depol_2q", "readout_flip_0to1", "readout_flip_1to0"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")

    @staticmethod
    def off() -> "NoiseProfile":
        return NoiseProfile(0.0, 0.0, 0.0, 0.0, enabled=False)

    def as_dict(self) -> dict:
        return {
            "p_depol_1q": self.p_depol_1q,
            "p_depol_2q": self.p_depol_2q,
            "readout_flip_0to1": self.readout_flip_0to1,
            "readout_flip_1to0": self.readout_flip_1to0,
            "enabled": self.enabled,
        }


@dataclass(frozen=True)
class ShotResult:
    """Measurement counts over the electron-qubit bitstrings."""

    counts: dict
    shots: int
    seed: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to shots")


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense 2x2 or 4x4 unitary of one gate (CNOT control first)."""
    if gate.kind == "X":
        return PAULI["X"]
    if gate.kind == "H":
        return _H
    if gate.kind == "CNOT":
        return _CNOT
    if gate.kind in ("RX", "RY", "RZ"):
        pauli = PAULI[gate.kind[1]]
        return (
            np.cos(gate.angle / 2) * np.eye(2)
            - 1j * np.sin(gate.angle / 2) * pauli
        )
    if gate.kind == "PauliRot2":
        pauli = np.kron(PAULI[gate.letters[0]], PAULI[gate.letters[1]])
        return (
            np.cos(gate.angle / 2) * np.eye(4)
            - 1j * np.sin(gate.angle / 2) * pauli
        )
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def _apply_to_axes(states: np.ndarray, U: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Contract U onto the given qubit axes of a stack of flat states.

    `states` is (..., 2^m) over m qubit axes, qubit 0 most significant;
    U is (2^k, 2^k) for k = len(axes), or a stack that broadcasts over
    the leading axes of `states`. Axis order is preserved.
    """
    batch = states.shape[:-1]
    m = states.shape[-1].bit_length() - 1
    b = len(batch)
    rest = [ax for ax in range(m) if ax not in axes]
    perm = list(range(b)) + [b + ax for ax in list(axes) + rest]
    moved = np.transpose(states.reshape(batch + (2,) * m), perm)
    moved = U @ moved.reshape(batch + (2 ** len(axes), -1))
    moved = np.transpose(moved.reshape(moved.shape[:-2] + (2,) * m), np.argsort(perm))
    return moved.reshape(moved.shape[:-m] + (2**m,))


def _channel_superop(U: np.ndarray, p: float) -> np.ndarray:
    """Local superoperator of a gate followed by its depolarizing channel.

    S = (1-p) (U (x) U*) + p |vec(I/2^k)><vec(I)| (U (x) U*) acts on the
    row-major vec of the gate's 2^k x 2^k block; U may be a (..., 2^k, 2^k)
    stack, giving one S per entry.
    """
    k = U.shape[-1]
    S = U[..., :, None, :, None] * U.conj()[..., None, :, None, :]
    S = S.reshape(U.shape[:-2] + (k * k, k * k))
    if p:
        flat_eye = np.eye(k).reshape(-1)
        S = (1 - p) * S + (p / k) * flat_eye[:, None] * (flat_eye @ S)[..., None, :]
    return S


def _apply_channel(
    rho: np.ndarray, S: np.ndarray, qubits: Sequence[int], n_qubits: int
) -> np.ndarray:
    """Apply a local superoperator S on `qubits` to a (..., d, d) stack.

    S acts on the gate's row and column axes together; a stack of S
    broadcasts over the leading axes of rho.
    """
    axes = list(qubits) + [q + n_qubits for q in qubits]
    flat = rho.reshape(rho.shape[:-2] + (-1,))
    return _apply_to_axes(flat, S, axes).reshape(rho.shape)


def apply_gate_state(psi: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    return _apply_to_axes(psi, gate_matrix(gate), gate.qubits)


def apply_gate_density(rho: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    """rho -> U rho U^dag without building the full-space unitary."""
    return _apply_channel(rho, _channel_superop(gate_matrix(gate), 0.0), gate.qubits, n_qubits)


def depolarize(rho: np.ndarray, qubits: Sequence[int], p: float, n_qubits: int) -> np.ndarray:
    """Depolarizing channel on a qubit subset.

    With probability p the subset is replaced by its maximally mixed
    state: rho -> (1-p) rho + p * (I/2^m) (x) Tr_subset[rho].
    """
    return _apply_channel(rho, _channel_superop(np.eye(2 ** len(qubits)), p), qubits, n_qubits)


def _depol_strength(gate: Gate, noise: NoiseProfile | None) -> float:
    """Depolarizing strength after one gate: p_depol_2q on two qubits,
    p_depol_1q on one, and 0 when noise is absent or disabled."""
    if noise is None or not noise.enabled:
        return 0.0
    return noise.p_depol_2q if len(gate.qubits) == 2 else noise.p_depol_1q


def run_statevector(
    circuit: Circuit,
    initial: QuantumState,
    record_after_each_step: bool = False,
):
    """Exact dense statevector execution.

    Returns the final QuantumState; with record_after_each_step=True,
    returns (final, states) where states[i] is the state after Trotter
    step i+1 (preparation gates included, basis change not yet applied).

    Raises:
        ValueError: dimension mismatch or non-pure input.
    """
    if initial.kind != "pure":
        raise ValueError("run_statevector needs a pure state")
    if initial.n_sites != circuit.n_qubits:
        raise ValueError(
            f"state has {initial.n_sites} sites, circuit {circuit.n_qubits} qubits"
        )
    n = circuit.n_qubits
    psi = initial.data.copy()
    boundaries = set()
    if record_after_each_step and circuit.trotter_steps > 0:
        body = len(circuit.body)
        if body % circuit.trotter_steps:
            raise ValueError("cannot split circuit body into equal steps")
        per = body // circuit.trotter_steps
        boundaries = {
            circuit.prep_len + per * (i + 1) for i in range(circuit.trotter_steps)
        }
    recorded = []
    for i, gate in enumerate(circuit.gates):
        psi = apply_gate_state(psi, gate, n)
        if (i + 1) in boundaries:
            recorded.append(QuantumState("pure", psi.copy(), n))
    final = QuantumState("pure", psi, n)
    if record_after_each_step:
        return final, recorded
    return final


def run_density(
    circuit: Circuit,
    initial: QuantumState,
    noise: NoiseProfile | None = None,
) -> QuantumState:
    """Density-matrix execution with optional per-gate depolarizing noise.

    With noise disabled this equals the statevector result's outer
    product. Trace is preserved by every gate and channel.
    """
    if initial.kind != "density":
        raise ValueError("run_density needs a density state")
    if initial.n_sites != circuit.n_qubits:
        raise ValueError(
            f"state has {initial.n_sites} sites, circuit {circuit.n_qubits} qubits"
        )
    n = circuit.n_qubits
    rho = initial.data.copy()
    for gate in circuit.gates:
        S = _channel_superop(gate_matrix(gate), _depol_strength(gate, noise))
        rho = _apply_channel(rho, S, gate.qubits, n)
    return QuantumState("density", rho, n)


def electron_outcome_probabilities(state: QuantumState) -> np.ndarray:
    """Computational-basis probabilities of the two electron qubits.

    Order: 00, 01, 10, 11 (qubit 0 is the leading bit). Nuclear sites
    are marginalized out.
    """
    d_nuc = state.dim // 4
    if state.kind == "pure":
        probs = np.abs(state.data.reshape(4, d_nuc)) ** 2
        probs = probs.sum(axis=1)
    else:
        diag = np.real(np.diagonal(state.data)).reshape(4, d_nuc)
        probs = diag.sum(axis=1)
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("state has no probability mass")
    return probs / total


def readout_transition_matrix(noise: NoiseProfile | None) -> np.ndarray:
    """M[true, observed] for independent per-bit readout flips.

    Identity when noise is absent or disabled. Rows sum to 1; the
    expected observed distribution is probs @ M.
    """
    labels = ("00", "01", "10", "11")
    M = np.eye(4)
    if noise is None or not noise.enabled:
        return M
    for i, true in enumerate(labels):
        for j, obs in enumerate(labels):
            p = 1.0
            for bit, obs_bit in zip(true, obs):
                if bit == "0":
                    p *= noise.readout_flip_0to1 if obs_bit == "1" else 1 - noise.readout_flip_0to1
                else:
                    p *= noise.readout_flip_1to0 if obs_bit == "0" else 1 - noise.readout_flip_1to0
            M[i, j] = p
    return M


def sample_measurements(
    state: QuantumState,
    shots: int,
    seed: int,
    noise: NoiseProfile | None = None,
) -> ShotResult:
    """Seeded Born-rule sampling of the electron qubits.

    Each readout bit flips independently with the configured
    probabilities when noise is enabled. Identical inputs give
    identical counts.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = electron_outcome_probabilities(state)
    rng = np.random.default_rng(seed)
    raw = rng.multinomial(shots, probs)
    labels = ("00", "01", "10", "11")
    counts = dict.fromkeys(labels, 0)
    flips_on = noise is not None and noise.enabled
    transition = readout_transition_matrix(noise) if flips_on else None
    for idx, label in enumerate(labels):
        m = int(raw[idx])
        if m == 0:
            continue
        if not flips_on:
            counts[label] += m
            continue
        # split this outcome's shots over the four flipped outcomes
        split = rng.multinomial(m, transition[idx])
        for flipped, extra in zip(labels, split):
            counts[flipped] += int(extra)
    return ShotResult(counts=counts, shots=shots, seed=seed)
