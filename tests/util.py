"""Shared test helpers: independent oracles and random circuit generation.

Everything here is deliberately written with different primitives than
the package (explicit kron chains, projector-decomposed controlled
gates) so agreement is evidence, not tautology.
"""

import numpy as np

from rpsim.circuit import Circuit, Gate

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SI = np.eye(2, dtype=complex)
PAULI_1Q = {"X": SX, "Y": SY, "Z": SZ, "I": SI}


def embed_oracle(mat: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Single-site operator into the full space, site 0 leftmost."""
    ops = [SI] * n_sites
    ops[site] = mat
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def dense_hamiltonian_oracle(system) -> np.ndarray:
    """Zeeman + hyperfine matrix built directly from the system fields."""
    n = system.n_sites
    d = 2**n
    B = system.field_vector()
    H = np.zeros((d, d), dtype=complex)
    for e in (0, 1):
        g = system.g_factors[e]
        for axis, sigma in enumerate((SX, SY, SZ)):
            coeff = g * system.bohr_magneton * B[axis] / 2
            H += coeff * embed_oracle(sigma, e, n)
    for pos, (site, tensor) in enumerate(system.nuclei):
        nuc = 2 + pos
        for i, si in enumerate((SX, SY, SZ)):
            for j, sj in enumerate((SX, SY, SZ)):
                coeff = tensor[i, j] / 4
                H += coeff * (embed_oracle(si, site, n) @ embed_oracle(sj, nuc, n))
    return H


def gate_unitary_oracle(gate: Gate, n_sites: int) -> np.ndarray:
    """Full-space unitary of one gate via projector decomposition."""
    d = 2**n_sites
    if gate.kind == "X":
        return embed_oracle(SX, gate.qubits[0], n_sites)
    if gate.kind == "H":
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        return embed_oracle(h, gate.qubits[0], n_sites)
    if gate.kind == "CNOT":
        c, t = gate.qubits
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        return embed_oracle(p0, c, n_sites) + embed_oracle(p1, c, n_sites) @ embed_oracle(
            SX, t, n_sites
        )
    if gate.kind in ("RX", "RY", "RZ"):
        sigma = PAULI_1Q[gate.kind[1]]
        full = embed_oracle(sigma, gate.qubits[0], n_sites)
        return np.cos(gate.angle / 2) * np.eye(d) - 1j * np.sin(gate.angle / 2) * full
    if gate.kind == "PauliRot2":
        a, b = gate.letters
        q0, q1 = gate.qubits
        full = embed_oracle(PAULI_1Q[a], q0, n_sites) @ embed_oracle(
            PAULI_1Q[b], q1, n_sites
        )
        return np.cos(gate.angle / 2) * np.eye(d) - 1j * np.sin(gate.angle / 2) * full
    raise ValueError(gate.kind)


def circuit_unitary_oracle(gates, n_sites: int) -> np.ndarray:
    U = np.eye(2**n_sites, dtype=complex)
    for gate in gates:
        U = gate_unitary_oracle(gate, n_sites) @ U
    return U


def random_circuit(rng: np.random.Generator, n_qubits: int = 3, max_depth: int = 50) -> Circuit:
    """Uniformly mixed gate kinds; angles in (-pi, pi)."""
    depth = int(rng.integers(1, max_depth + 1))
    gates = []
    for _ in range(depth):
        kind = str(rng.choice(["X", "H", "CNOT", "RX", "RY", "RZ", "PauliRot2"]))
        if kind in ("X", "H"):
            gates.append(Gate(kind, (int(rng.integers(n_qubits)),)))
        elif kind == "CNOT":
            q = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate("CNOT", (int(q[0]), int(q[1]))))
        elif kind == "PauliRot2":
            q = rng.choice(n_qubits, size=2, replace=False)
            letters = (str(rng.choice(list("XYZ"))), str(rng.choice(list("XYZ"))))
            gates.append(
                Gate(
                    kind,
                    (int(q[0]), int(q[1])),
                    float(rng.uniform(-np.pi, np.pi)),
                    letters,
                )
            )
        else:
            gates.append(
                Gate(kind, (int(rng.integers(n_qubits)),), float(rng.uniform(-np.pi, np.pi)))
            )
    return Circuit(n_qubits, tuple(gates), trotter_steps=1, target_time=0.0)


def random_pure_state(rng: np.random.Generator, n_qubits: int = 3) -> np.ndarray:
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return v / np.linalg.norm(v)


def local_unitary_oracle(U: np.ndarray, qubits, n_sites: int) -> np.ndarray:
    """Full-space unitary of a gate matrix on `qubits` (first qubit most
    significant), summed from kron chains of single-site |a><b| terms."""
    k = len(qubits)
    out = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for row in range(2**k):
        for col in range(2**k):
            ops = [SI] * n_sites
            for pos, q in enumerate(qubits):
                a = (row >> (k - 1 - pos)) & 1
                b = (col >> (k - 1 - pos)) & 1
                ops[q] = np.outer(SI[a], SI[b])
            term = np.array([[1.0 + 0j]])
            for op in ops:
                term = np.kron(term, op)
            out += U[row, col] * term
    return out


def depolarize_oracle(rho: np.ndarray, qubits, p: float, n_sites: int) -> np.ndarray:
    """(1-p) rho + p I/2^m (x) Tr_S rho, the replacement written as the
    uniform Pauli twirl over the subset S: (1/4^m) sum_P P rho P."""
    twirl = np.zeros_like(rho)
    for letters in np.ndindex(*([4] * len(qubits))):
        P = np.eye(2**n_sites, dtype=complex)
        for q, idx in zip(qubits, letters):
            P = P @ embed_oracle(PAULI_1Q["IXYZ"[idx]], q, n_sites)
        twirl += P @ rho @ P
    return (1 - p) * rho + p * twirl / 4 ** len(qubits)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)
