"""Exact reference dynamics: unitary evolution plus recombination kinetics.

Two routes to the same physics, used to cross-check each other:

  * evolve_exact: one eigendecomposition of H, populations at all times
    from phase factors, then apply_decay multiplies on exp(-k t). Valid
    because with equal singlet/triplet rates the kinetics factorize out
    of the unitary dynamics. It is the one-matrix case of
    `_population_rows`, which takes an (A, d, d) stack of Hamiltonians
    (one per field angle of a yield curve) through one stacked `eigh`,
    rotates rho0 and P_S into every eigenbasis by batched matmuls, and
    forms W = rho_e * P_e^T. With phases phi_a(t) = exp(-i omega_a t),
    the populations are Tr[P_S rho(t)] = sum_ab phi_a W_ab conj(phi_b),
    one BLAS matmul per angle. A pure state enters as its rank-1
    density matrix, so pure and mixed states share this one formula.
    Rows are handed out one angle at a time; no (A, T) array is built.
  * rk4_haberkorn: direct fixed-step integration of the master equation
    drho/dt = -(i/hbar)[H, rho] - sum_n (k_n/2){P_n, rho}.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .spinham import HBAR_NEV_US

_HERM_TOL = 1e-10
IMAG_TOLERANCE = 1e-10  # largest imaginary part a population may carry
POPULATION_TOLERANCE = 1e-10  # how far a population may stray outside [0, 1]


@dataclass(frozen=True)
class QuantumState:
    """Dense pure statevector or density matrix over 2**n_sites.

    Build through the `pure` / `density` constructors, which validate
    normalization (norm 1 for pure; Hermitian, PSD, trace 1 for density,
    all to 1e-10). The trace of a density matrix may decay later under
    recombination kinetics; validation applies at construction only.
    """

    kind: str  # "pure" | "density"
    data: np.ndarray
    n_sites: int

    @staticmethod
    def pure(amplitudes) -> "QuantumState":
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = _sites_from_dim(vec.size)
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"statevector norm {norm} is not 1")
        return QuantumState("pure", vec, n)

    @staticmethod
    def density(matrix) -> "QuantumState":
        rho = np.asarray(matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density matrix must be square")
        n = _sites_from_dim(rho.shape[0])
        if np.abs(rho - rho.conj().T).max() > _HERM_TOL:
            raise ValueError("density matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(rho)
        if eigs.min() < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {np.trace(rho).real} is not 1")
        return QuantumState("density", rho, n)

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    def as_density_matrix(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return self.data


def _sites_from_dim(dim: int) -> int:
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


@dataclass(frozen=True)
class PopulationTrace:
    """Singlet population on a uniform time grid.

    decayed=False means raw unitary populations; decayed=True means the
    exp(-k t) survival factor has been multiplied in.
    """

    times: np.ndarray
    populations: np.ndarray
    decayed: bool = False

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.populations, dtype=float)
        if t.ndim != 1 or t.shape != p.shape:
            raise ValueError("times and populations must be matching 1-D arrays")
        if t.size >= 2:
            steps = np.diff(t)
            if steps.min() <= 0:
                raise ValueError("times must be strictly increasing")
            if np.abs(steps - steps[0]).max() > 1e-9 * max(steps[0], 1e-30):
                raise ValueError("time grid must be uniform")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "populations", p)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0


# ---------------------------------------------------------------------------
# initial states and projectors

def singlet_vector(n_sites: int, nuclear_bits: str = "0") -> np.ndarray:
    """(|01> - |10>)/sqrt(2) on the electron sites, given nuclear bits.

    Pass "" for a bare pair with no nuclei.
    """
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    if len(nuclear_bits) != n_sites - 2:
        raise ValueError("one nuclear bit per nucleus required")
    vec = np.zeros(2**n_sites, dtype=complex)
    tail = int(nuclear_bits, 2) if nuclear_bits else 0
    shift = n_sites - 2
    vec[(0b01 << shift) | tail] = 1 / np.sqrt(2)
    vec[(0b10 << shift) | tail] = -1 / np.sqrt(2)
    return vec


def singlet_projector(n_sites: int) -> np.ndarray:
    """P_S = |S><S| on electrons, identity on all nuclear sites."""
    s = np.zeros(4, dtype=complex)
    s[0b01] = 1 / np.sqrt(2)
    s[0b10] = -1 / np.sqrt(2)
    return np.kron(np.outer(s, s.conj()), np.eye(2 ** (n_sites - 2)))


def triplet_projector(n_sites: int) -> np.ndarray:
    """P_T = I - P_S."""
    return np.eye(2**n_sites) - singlet_projector(n_sites)


def initial_state(nuclear_config: str, n_sites: int, kind: str | None = None) -> QuantumState:
    """Electron singlet with the nuclei in |up>, |down>, or maximally mixed.

    Args:
        nuclear_config: "up", "down", or "mixed". "mixed" means I/2 per
            nucleus and requires the density kind. With no nuclei all
            three name the bare electron singlet.
        n_sites: total spin count (2 electrons + nuclei), at least 2.
        kind: "pure" or "density"; defaults to pure for up/down and
            density for mixed.

    Raises:
        ValueError: mixed requested with kind="pure", or bad config name.
    """
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    n_nuc = n_sites - 2
    if nuclear_config in ("up", "down"):
        bit = "0" if nuclear_config == "up" else "1"
        vec = singlet_vector(n_sites, bit * n_nuc)
        if kind in (None, "pure"):
            return QuantumState.pure(vec)
        if kind == "density":
            return QuantumState.density(np.outer(vec, vec.conj()))
        raise ValueError(f"unknown state kind {kind!r}")
    if nuclear_config == "mixed":
        if kind == "pure":
            raise ValueError("mixed nuclear state requires the density kind")
        rho = singlet_projector(n_sites) / 2**n_nuc
        return QuantumState.density(rho)
    raise ValueError(f"unknown nuclear_config {nuclear_config!r}")


# ---------------------------------------------------------------------------
# evolution

def _check_hermitian(H: np.ndarray):
    """Raise unless every matrix of a (..., d, d) stack is Hermitian."""
    scale = np.maximum(np.abs(H).max(axis=(-2, -1)), 1.0)
    err = np.abs(H - H.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    if np.any(err > _HERM_TOL * scale):
        raise ValueError("Hamiltonian is not Hermitian")


def _population_rows(
    H: np.ndarray, state0: QuantumState, times: np.ndarray, hbar: float
) -> Iterator[np.ndarray]:
    """Singlet populations for each H of an (A, d, d) stack, one row per H.

    The stack is checked and diagonalised here, in one `eigh`; the rows
    come from the returned generator one at a time, so no (A, T) array
    is ever held.
    """
    H = np.asarray(H, dtype=complex)
    _check_hermitian(H)
    evals, evecs = np.linalg.eigh(H)
    omega = evals / hbar  # rad/us
    evecs_h = evecs.conj().swapaxes(-2, -1)
    rho_e = evecs_h @ state0.as_density_matrix() @ evecs
    proj_e = evecs_h @ singlet_projector(state0.n_sites) @ evecs
    # Tr[P_S rho(t)] = sum_ab phi_a W_ab conj(phi_b) with phi = exp(-i omega t)
    weights = rho_e * proj_e.swapaxes(-2, -1)
    return (_populations(times, w, om) for w, om in zip(weights, omega))


def _populations(times: np.ndarray, weights: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Real populations of one eigenbasis weight matrix, checked."""
    phases = np.exp(-1j * np.outer(times, omega))  # (T, d)
    pops = ((phases @ weights) * phases.conj()).sum(axis=1)
    # a population is real; a larger imaginary part means a non-Hermitian state
    imag = float(np.abs(pops.imag).max())
    if imag > IMAG_TOLERANCE:
        raise FloatingPointError(f"population has imaginary part {imag:.3e}")
    low, high = float(pops.real.min()), float(pops.real.max())
    if low < -POPULATION_TOLERANCE or high > 1.0 + POPULATION_TOLERANCE:
        raise FloatingPointError(f"population range [{low:.3e}, {high:.3e}] leaves [0, 1]")
    return pops.real


def evolve_exact(
    H: np.ndarray,
    state0: QuantumState,
    times,
    hbar: float = HBAR_NEV_US,
) -> PopulationTrace:
    """Singlet population Tr[P_S U(t) rho0 U(t)^dag] on a time grid.

    H is in energy units (neV); U(t) = exp(-i H t / hbar). One
    eigendecomposition is reused for every time point.
    """
    times = np.asarray(times, dtype=float)
    (pops,) = _population_rows(np.asarray(H)[None], state0, times, hbar)
    return PopulationTrace(times, pops, decayed=False)


def apply_decay(trace: PopulationTrace, k: float) -> PopulationTrace:
    """Multiply the exp(-k t) survival factor onto an undecayed trace.

    Raises:
        ValueError: if the trace is already decayed (double application).
    """
    if trace.decayed:
        raise ValueError("trace is already decayed")
    weights = np.exp(-k * trace.times)
    return PopulationTrace(trace.times, trace.populations * weights, decayed=True)


def rk4_haberkorn(
    H: np.ndarray,
    state0: QuantumState,
    k_singlet: float,
    k_triplet: float,
    dt: float = 0.001,
    t_max: float = 1.0,
    hbar: float = HBAR_NEV_US,
) -> PopulationTrace:
    """Direct RK4 integration of the recombination master equation.

    drho/dt = -(i/hbar)[H, rho] - (k_S/2){P_S, rho} - (k_T/2){P_T, rho}

    Only the symmetric case k_S = k_T is supported; the trace then decays
    as exp(-k t), which evolve_exact + apply_decay reproduces analytically.

    Args:
        state0: density-kind initial state.
        dt: fixed step in us (default 1 ns).
        t_max: final time in us.

    Raises:
        NotImplementedError: asymmetric rates (k_S != k_T).
        ValueError: non-density initial state or non-Hermitian H.
    """
    if k_singlet != k_triplet:
        raise NotImplementedError(
            "asymmetric recombination (k_S != k_T) is not supported"
        )
    if state0.kind != "density":
        raise ValueError("rk4_haberkorn requires a density-kind state")
    H = np.asarray(H, dtype=complex)
    _check_hermitian(H)
    n_steps = int(round(t_max / dt))
    times = np.arange(n_steps + 1) * dt
    p_s = singlet_projector(state0.n_sites)
    p_t = triplet_projector(state0.n_sites)

    def rhs(rho):
        drho = (-1j / hbar) * (H @ rho - rho @ H)
        drho -= 0.5 * k_singlet * (p_s @ rho + rho @ p_s)
        drho -= 0.5 * k_triplet * (p_t @ rho + rho @ p_t)
        return drho

    rho = state0.data.copy()
    pops = np.empty(n_steps + 1)
    pops[0] = np.einsum("ab,ba->", p_s, rho).real
    for i in range(1, n_steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        pops[i] = np.einsum("ab,ba->", p_s, rho).real
    return PopulationTrace(times, pops, decayed=True)
