"""Measurement protocols: population traces, yield curves, and sweeps.

Every trace here follows the per-time-point convention: the value at
grid time t comes from a fresh n-step circuit with step size t/n, which
is what a gate-based device would execute for each requested time.

Performance notes (single-core): sweeping 128 angles with n=1024 steps
over a 1001-point grid is far too slow gate by gate in Python, so the
statevector path composes the closed-form per-term unitaries
U_k = cos(h) I - i sin(h) P_k (h = c dt / hbar), which is exactly the
matrix of the compiled rotation sequence, batched over the time grid.
Each P_k is held as a signed permutation (`paulis.signed_permutation`),
so U_k is applied to the (T, d, d) stack as a row gather and two scaled
updates, O(d^2) per time point instead of a d x d matmul; terms with a
zero coefficient are exact identities and are skipped.
The noisy path takes its Trotter step from `lower_to_basis`, so it runs
exactly the circuit (and pruning) that the gate-by-gate simulator runs,
through the same kernel: `qsim._channel_superop` turns a gate and its
depolarizing channel into one local superoperator and
`qsim._apply_channel` contracts it onto a (..., d, d) stack. Each
dt-scaled rotation is one (T, 1, 4, 4) local superoperator, one per step
size. A run of constant gates (basis changes, CNOTs, zero-angle cores)
is composed into a dense transposed superoperator, by pushing the d^2
basis matrices through the kernel, only when at least d^2 states go
through it (n*T in the step, T for the basis-change tail, 1 for the
preparation); composing costs as much as applying the gates to d^2
states, so a shorter use applies the run gate by gate. One core,
`_density_states`, applies the step n times to the (T, d, d) stack of
states. No (T, d^2, d^2) step superoperator is formed, except above 64
steps, where powering it is faster; it is then built by pushing the
identity through the same step. A density `yield_curve` passes one dict
to every angle, for that call only: the composed runs (keyed by their
gates) and the t=0 state (keyed by the zero-time circuit, the same at
every angle) are built once per curve. Density traces and `shot_sweep`
read their per-time states from this core; a state whose trace is off
by more than 1e-10, or whose diagonal leaves [0, 1] by more than 1e-10,
is an error.
Both paths are pinned to the per-gate simulators by equivalence tests.
A reference `yield_curve` builds the Hamiltonians of all its angles as
one (A, d, d) stack: each term's signed permutation is mapped once per
call and every angle's coefficients are scattered in term order, so
each H equals `to_dense_matrix` bit for bit. The initial state and the
singlet projector are built once; `refsolver._population_rows`
diagonalises the stack in one `eigh` and yields one angle's populations
at a time, which the curve reduces to a yield as it arrives.
`reference_trace` is the one-angle case of the same builder.
"""

from __future__ import annotations

from itertools import product as _product

import numpy as np

from . import qsim
from .circuit import compile as compile_circuit
from .circuit import lower_to_basis
from .observables import YieldCurve, singlet_yield
from .paulis import PAULI, signed_permutation
from .refsolver import (
    IMAG_TOLERANCE,
    POPULATION_TOLERANCE,
    PopulationTrace,
    QuantumState,
    _population_rows,
    apply_decay,
    evolve_exact,
    initial_state,
    singlet_vector,
)
from .spinham import RadicalPairSystem, build_pauli_terms

TAIL_EPSILON = 1e-6  # survival threshold for tail="extend"
TRACE_TOLERANCE = 1e-10  # max |Tr rho - 1| of a noisy density state


def time_grid(t_max: float, dt: float, k: float | None = None, tail: str = "none") -> np.ndarray:
    """Uniform grid [0, t_max] with step dt; optionally extended.

    With tail="none", t_max must be a whole number of dt steps.
    tail="extend" lengthens the grid until exp(-k t) < 1e-6 so the
    truncated yield integral approximates the infinite-limit value; its
    end is rounded up to the next whole step.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if t_max < dt:
        raise ValueError("t_max must be >= dt")
    end = t_max
    if tail == "extend":
        if not k or k <= 0:
            raise ValueError("tail extension needs a positive rate")
        end = max(t_max, -np.log(TAIL_EPSILON) / k)
    elif tail != "none":
        raise ValueError(f"unknown tail policy {tail!r}")
    elif not round(t_max / dt, 9).is_integer():
        raise ValueError(f"t_max={t_max} is not a whole number of dt={dt} steps")
    n_steps = int(np.ceil(round(end / dt, 9)))
    return np.arange(n_steps + 1) * dt


# ---------------------------------------------------------------------------
# reference (exact) traces

def _reference_problem(
    system: RadicalPairSystem, thetas, nuclear: str
) -> tuple[np.ndarray, QuantumState]:
    """(A, d, d) Hamiltonians at each field angle, and the initial state.

    The term letters do not depend on the angle, so each is mapped to its
    signed permutation once; every angle's coefficients are scattered in
    term order, exactly as `to_dense_matrix` does for one system.
    """
    n_sites = system.n_sites
    d = 2**n_sites
    structure = [signed_permutation(t.letters) for t in build_pauli_terms(system)]
    coeffs = np.array(
        [[t.coefficient for t in build_pauli_terms(system.with_angles(th))] for th in thetas]
    ).reshape(-1, len(structure))
    rows = np.arange(d)
    H = np.zeros((len(coeffs), d, d), dtype=complex)
    for (perm, phase), c in zip(structure, coeffs.T):
        nonzero = np.flatnonzero(c)  # a zero term adds nothing, as in to_dense_matrix
        H[nonzero[:, None], rows, perm] += c[nonzero, None] * phase
    kind = "density" if nuclear == "mixed" else "pure"
    return H, initial_state(nuclear, n_sites, kind=kind)


def reference_trace(
    system: RadicalPairSystem,
    nuclear: str = "mixed",
    t_max: float = 1.0,
    dt: float = 0.001,
    tail: str = "none",
) -> PopulationTrace:
    """Undecayed singlet populations from the eigendecomposition solver."""
    times = time_grid(t_max, dt, k=system.k_singlet, tail=tail)
    H, state0 = _reference_problem(system, [system.theta], nuclear)
    return evolve_exact(H[0], state0, times, hbar=system.hbar)


# ---------------------------------------------------------------------------
# batched Trotter statevector path

def _term_data(system: RadicalPairSystem) -> list:
    """(c, perm, phase) of each nonzero Hamiltonian term, in list order.

    A zero-coefficient term's rotation is the identity, so it is skipped.
    """
    return [
        (t.coefficient, *signed_permutation(t.letters))
        for t in build_pauli_terms(system)
        if t.coefficient != 0.0
    ]


def _batched_step_unitaries(terms, d: int, dts, hbar) -> np.ndarray:
    """U_step(dt) for a batch of step sizes; terms applied in list order.

    Each term left-multiplies U by cos(h) I - i sin(h) P; as P is a
    signed permutation, (P U)[i] = phase[i] U[perm[i]], a row gather.
    """
    T = len(dts)
    U = np.broadcast_to(np.eye(d, dtype=complex), (T, d, d)).copy()
    for c, perm, phase in terms:
        h = c * np.asarray(dts) / hbar  # half-angle of the rotation
        PU = phase[:, None] * U[:, perm, :]
        U *= np.cos(h)[:, None, None]
        U -= 1j * np.sin(h)[:, None, None] * PU
    return U


def _batched_power(U: np.ndarray, n: int) -> np.ndarray:
    """U^n by binary powering; `out` starts as the first factor it takes."""
    out = None
    base = U
    e = n
    while e:
        if e & 1:
            out = base if out is None else base @ out
        e >>= 1
        if e:
            base = base @ base
    return out


def _nuclear_bit_configs(n_nuc: int, nuclear: str) -> list[str]:
    if nuclear == "up":
        return ["0" * n_nuc]
    if nuclear == "down":
        return ["1" * n_nuc]
    if nuclear == "mixed":
        return ["".join(bits) for bits in _product("01", repeat=n_nuc)]
    raise ValueError(f"unknown nuclear_config {nuclear!r}")


def trotter_trace_statevector(
    system: RadicalPairSystem,
    n: int,
    nuclear: str = "mixed",
    t_max: float = 1.0,
    dt: float = 0.001,
    tail: str = "none",
) -> PopulationTrace:
    """Undecayed populations from the noiseless Trotter circuit.

    nuclear="mixed" averages the pure-configuration runs, which equals
    the density-matrix run with maximally mixed nuclei.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    times = time_grid(t_max, dt, k=system.k_singlet, tail=tail)
    d = 2**system.n_sites
    U = _batched_step_unitaries(_term_data(system), d, times[1:] / n, system.hbar)
    U = _batched_power(U, n)
    configs = _nuclear_bit_configs(system.n_nuclei, nuclear)
    psi0 = np.stack([singlet_vector(system.n_sites, bits) for bits in configs])
    evolved = np.einsum("tab,cb->tca", U, psi0)  # (T-1, config, dim)
    d_nuc = 2**system.n_nuclei
    block = evolved.reshape(len(times) - 1, len(configs), 4, d_nuc)
    amp = (block[:, :, 0b01, :] - block[:, :, 0b10, :]) / np.sqrt(2)
    pops = np.empty(len(times))
    pops[0] = 1.0
    pops[1:] = (np.abs(amp) ** 2).sum(axis=2).mean(axis=1)
    return PopulationTrace(times, pops, decayed=False)


# ---------------------------------------------------------------------------
# batched noisy density path (lowered circuit, per-gate depolarizing)

def _segment_superop(gates, noise, n: int) -> np.ndarray:
    """Transposed superoperator S^T of a fixed gate list, per-gate noise included.

    The d^2 basis matrices are pushed through the gates as one stack, so
    row j is vec(S(E_j)), and a row vector of states maps as v @ S^T.
    """
    d = 2**n
    rows = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    for gate in gates:
        S = qsim._channel_superop(qsim.gate_matrix(gate), qsim._depol_strength(gate, noise))
        rows = qsim._apply_channel(rows, S, gate.qubits, n)
    return rows.reshape(d * d, d * d)


def _run_items(gates, uses: int, noise, n: int, shared: dict) -> list:
    """Plan items of a run of constant gates that `uses` states go through.

    Composing the run pushes d^2 basis matrices through its gates, the
    work of applying them to d^2 states, so the run is composed into one
    dense S^T only when at least d^2 states use it; otherwise each gate
    stays a local (S, qubits) item. Composed runs are kept in `shared`,
    keyed by their gates.
    """
    if not gates:
        return []
    if uses < 4**n:
        return [
            (qsim._channel_superop(qsim.gate_matrix(g), qsim._depol_strength(g, noise)), g.qubits)
            for g in gates
        ]
    key = ("run", tuple(gates))
    if key not in shared:
        shared[key] = _segment_superop(gates, noise, n)
    return [shared[key]]


def _step_plan(
    lowered_unit, lowered_double, noise, n: int, dts: np.ndarray, uses: int, shared: dict
) -> list:
    """One lowered Trotter step at every step size, as operators on states.

    The step is lowered at dt=1 and dt=2: a gate whose angle differs
    between the two is a dt-scaled rotation whose angle at dt=1 is its
    rate; it becomes one (T, 1, 4, 4) local superoperator with its own
    channel, paired with its qubits. Every run of other gates becomes
    `_run_items` for `uses` states.
    """
    plan: list = []
    run: list = []
    for gate, doubled in zip(lowered_unit, lowered_double, strict=True):
        if gate.angle == doubled.angle:
            run.append(gate)
            continue
        plan += _run_items(run, uses, noise, n, shared)
        half = gate.angle * dts / 2
        U = (
            np.cos(half)[:, None, None] * np.eye(2)
            - 1j * np.sin(half)[:, None, None] * PAULI[gate.kind[1]]
        )
        S = qsim._channel_superop(U[:, None], qsim._depol_strength(gate, noise))
        plan.append((S, gate.qubits))
        run = []
    return plan + _run_items(run, uses, noise, n, shared)


def _apply_step(rho: np.ndarray, plan: list, n: int) -> np.ndarray:
    """Plan items in order on a (..., d, d) stack of states."""
    for item in plan:
        if isinstance(item, np.ndarray):
            flat = rho.reshape(-1, item.shape[0])
            rho = (flat @ item).reshape(rho.shape)
        else:
            rho = qsim._apply_channel(rho, *item, n)
    return rho


def _initial_density_vec(system: RadicalPairSystem, nuclear: str) -> np.ndarray:
    """vec of |00><00| on electrons (pre-preparation) x nuclear state."""
    if nuclear == "mixed":
        single = np.eye(2, dtype=complex) / 2
    elif nuclear in ("up", "down"):
        b = 0 if nuclear == "up" else 1
        single = np.zeros((2, 2), dtype=complex)
        single[b, b] = 1.0
    else:
        raise ValueError(f"unknown nuclear_config {nuclear!r}")
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    for _ in range(system.n_nuclei):
        rho = np.kron(rho, single)
    return rho.reshape(-1)


def _density_states(
    system: RadicalPairSystem,
    n: int,
    noise,
    nuclear: str,
    times: np.ndarray,
    shared: dict,
    prune_zeeman_zero: bool = True,
    prune_all_zero: bool = False,
) -> np.ndarray:
    """Final density matrix of the lowered noisy circuit at every grid time.

    Returns a (T, d, d) stack. Each grid time t > 0 runs preparation, n
    Trotter steps of size t/n and the measurement basis change; t=0 runs
    the actual zero-time circuit gate by gate, whose canonical lowering
    drops the zero-angle field rotations. `shared` holds angle-independent
    work (composed constant runs, the t=0 state) for the calls that
    share one system structure, noise, n, nuclear state and grid.
    """
    if n is None or n < 1:
        raise ValueError("n must be >= 1")
    n_sites = system.n_sites
    d = 2**n_sites

    def lowered(t: float, steps: int):
        circuit = compile_circuit(system, t, steps)
        return lower_to_basis(circuit, prune_zeeman_zero, prune_all_zero)

    unit = lowered(1.0, 1)
    dts = times[1:] / n
    T = len(dts)
    # states through each in-step run: n steps over T times, or the d^2
    # identity rows per time when the step is powered
    in_step = n * T if n <= 64 else d * d * T
    plan = _step_plan(unit.body, lowered(2.0, 1).body, noise, n_sites, dts, in_step, shared)
    prep = _run_items(unit.gates[: unit.prep_len], 1, noise, n_sites, shared)
    tail = _run_items(unit.gates[len(unit.gates) - unit.tail_len :], T, noise, n_sites, shared)
    rho_init = _initial_density_vec(system, nuclear).reshape(d, d)
    v = np.broadcast_to(_apply_step(rho_init, prep, n_sites), (T, 1, d, d))
    if n <= 64:
        for _ in range(n):
            v = _apply_step(v, plan, n_sites)
    else:
        # rows of the identity pushed through one step give S_t^T
        eye = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        step = _apply_step(np.broadcast_to(eye, (T, d * d, d, d)), plan, n_sites)
        v = v.reshape(T, 1, d * d) @ _batched_power(step.reshape(T, d * d, d * d), n)
        v = v.reshape(T, 1, d, d)
    states = np.empty((len(times), d, d), dtype=complex)
    states[1:] = _apply_step(v, tail, n_sites).reshape(T, d, d)

    # zero-time circuit, executed gate by gate through the simulator; every
    # angle is 0 there, so its lowered gates are the same for every theta
    zero = lowered(0.0, n)
    key = ("t=0", zero.gates)
    if key not in shared:
        shared[key] = qsim.run_density(zero, QuantumState("density", rho_init, n_sites), noise).data
    states[0] = shared[key]
    # readers keep the real part of the diagonal; the rest must be rounding
    diag = np.diagonal(states, axis1=1, axis2=2)
    imag = float(np.abs(diag.imag).max())
    if imag > IMAG_TOLERANCE:
        raise FloatingPointError(f"density diagonal has imaginary part {imag:.3e}")
    # every gate and channel preserves trace
    trace_err = float(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max())
    if trace_err > TRACE_TOLERANCE:
        raise FloatingPointError(f"density trace is off by {trace_err:.3e}")
    # each diagonal entry is a basis-state probability
    low, high = float(diag.real.min()), float(diag.real.max())
    if low < -POPULATION_TOLERANCE or high > 1.0 + POPULATION_TOLERANCE:
        raise FloatingPointError(f"density diagonal range [{low:.3e}, {high:.3e}] leaves [0, 1]")
    return states


def _density_trace(
    system: RadicalPairSystem,
    n: int,
    noise,
    nuclear: str,
    times: np.ndarray,
    shared: dict,
    prune_zeeman_zero: bool = True,
    prune_all_zero: bool = False,
) -> PopulationTrace:
    """|11> electron-readout populations of `_density_states` on `times`."""
    states = _density_states(
        system, n, noise, nuclear, times, shared, prune_zeeman_zero, prune_all_zero
    )
    d_nuc = 2**system.n_nuclei
    diag = np.diagonal(states, axis1=1, axis2=2).real
    pops = diag[:, 3 * d_nuc :].sum(axis=1)  # Tr[M rho], M = |11><11| x I
    return PopulationTrace(times, pops, decayed=False)


def trotter_trace_density(
    system: RadicalPairSystem,
    n: int,
    noise=None,
    nuclear: str = "mixed",
    t_max: float = 1.0,
    dt: float = 0.001,
    tail: str = "none",
    prune_zeeman_zero: bool = True,
    prune_all_zero: bool = False,
) -> PopulationTrace:
    """Undecayed populations from the lowered circuit with per-gate noise.

    The full pipeline is simulated: preparation gates, n lowered Trotter
    steps, measurement basis change, then the |11> electron-readout
    expectation (equal to the singlet population when noise is off).
    """
    times = time_grid(t_max, dt, k=system.k_singlet, tail=tail)
    return _density_trace(
        system, n, noise, nuclear, times, {}, prune_zeeman_zero, prune_all_zero
    )


# ---------------------------------------------------------------------------
# yield curves and sweeps

def _symmetric_rate(system: RadicalPairSystem) -> float:
    if system.k_singlet != system.k_triplet:
        raise NotImplementedError(
            "asymmetric recombination (k_S != k_T) is not supported"
        )
    return system.k_singlet


def population_trace(
    system: RadicalPairSystem,
    mode: str = "reference",
    n: int | None = None,
    noise=None,
    nuclear: str = "mixed",
    t_max: float = 1.0,
    dt: float = 0.001,
    tail: str = "none",
) -> PopulationTrace:
    """Undecayed singlet-population trace in the requested mode."""
    if mode == "reference":
        return reference_trace(system, nuclear, t_max, dt, tail)
    if n is None or n < 1:
        raise ValueError("Trotter modes need n >= 1")
    if mode == "statevector":
        return trotter_trace_statevector(system, n, nuclear, t_max, dt, tail)
    if mode == "density":
        return trotter_trace_density(
            system, n, noise, nuclear, t_max, dt, tail
        )
    raise ValueError(f"unknown mode {mode!r}")


def yield_from_trace(trace: PopulationTrace, k: float) -> float:
    return singlet_yield(apply_decay(trace, k), k)


def singlet_yield_at(
    system: RadicalPairSystem,
    mode: str = "reference",
    n: int | None = None,
    noise=None,
    nuclear: str = "mixed",
    t_max: float = 1.0,
    dt: float = 0.001,
    tail: str = "none",
) -> float:
    k = _symmetric_rate(system)
    trace = population_trace(system, mode, n, noise, nuclear, t_max, dt, tail)
    return yield_from_trace(trace, k)


def yield_curve(
    system: RadicalPairSystem,
    thetas,
    mode: str = "reference",
    n: int | None = None,
    noise=None,
    nuclear: str = "mixed",
    t_max: float = 1.0,
    dt: float = 0.001,
    tail: str = "none",
) -> YieldCurve:
    """Singlet yield versus field angle theta.

    Each angle gets its own Hamiltonian, trace, and truncated yield
    integral. In reference mode the Hamiltonians form one stack that is
    diagonalised at once, and each angle's row is reduced to its yield as
    it arrives. In density mode the angles share one dict, for this call
    only, so the constant gate runs and the t=0 state are built once.
    """
    thetas = np.asarray(thetas, dtype=float)
    k = _symmetric_rate(system)
    times = time_grid(t_max, dt, k=k, tail=tail)
    if mode == "reference":
        H, state0 = _reference_problem(system, thetas, nuclear)
        rows = _population_rows(H, state0, times, system.hbar)
        traces = (PopulationTrace(times, pops) for pops in rows)
    elif mode == "density":
        shared: dict = {}
        traces = (
            _density_trace(system.with_angles(th), n, noise, nuclear, times, shared)
            for th in thetas
        )
    else:
        traces = (
            population_trace(system.with_angles(th), mode, n, noise, nuclear, t_max, dt, tail)
            for th in thetas
        )
    yields = np.array([yield_from_trace(trace, k) for trace in traces])
    meta = {
        "mode": mode,
        "n": n,
        "nuclear": nuclear,
        "t_max": t_max,
        "dt": dt,
        "tail": tail,
        "k_MHz": k,
        "noise": None if noise is None else noise.as_dict(),
        "system_hash": system.content_hash(),
    }
    return YieldCurve(thetas, yields, meta)


def trotter_sweep(
    system: RadicalPairSystem,
    n_list,
    theta: float | None = None,
    noise=None,
    nuclear: str = "mixed",
    t_max: float = 1.0,
    dt: float = 0.001,
    dt_noisy: float | None = None,
    tail: str = "none",
) -> list[dict]:
    """Yield versus Trotter order, noiseless and (optionally) noisy."""
    sys_t = system if theta is None else system.with_angles(theta)
    k = _symmetric_rate(sys_t)
    rows = []
    for n in n_list:
        row = {"n": int(n)}
        trace = trotter_trace_statevector(sys_t, int(n), nuclear, t_max, dt, tail)
        row["yield_noiseless"] = yield_from_trace(trace, k)
        if noise is not None and noise.enabled:
            noisy = trotter_trace_density(
                sys_t, int(n), noise, nuclear, t_max, dt_noisy or dt, tail
            )
            row["yield_noisy"] = yield_from_trace(noisy, k)
        rows.append(row)
    return rows


def rate_sweep(
    system: RadicalPairSystem,
    k_list,
    theta: float | None = None,
    mode: str = "reference",
    n: int | None = None,
    nuclear: str = "mixed",
    t_max: float = 1.0,
    dt: float = 0.001,
    tail: str = "none",
) -> list[dict]:
    """Yield versus recombination rate, reusing one undecayed trace.

    The unitary dynamics do not depend on k, so the trace is computed
    once; each k only re-applies the decay envelope and integral. With
    tail="extend" the grid covers the slowest rate in the list.
    """
    ks = [float(k) for k in k_list]
    if any(k <= 0 for k in ks):
        raise ValueError("rates must be > 0")
    sys_t = system if theta is None else system.with_angles(theta)
    grid_k = min(ks)  # slowest decay needs the longest grid
    times = time_grid(t_max, dt, k=grid_k, tail=tail)
    trace = population_trace(
        sys_t, mode, n, None, nuclear, times[-1], dt, "none"
    )
    return [{"k_MHz": k, "yield": yield_from_trace(trace, k)} for k in ks]


def shot_sweep(
    system: RadicalPairSystem,
    shot_list,
    theta: float | None = None,
    n: int = 5,
    seed: int = 0,
    noise=None,
    nuclear: str = "mixed",
    t_max: float = 1.0,
    dt: float = 0.01,
) -> list[dict]:
    """Sampling-noise study: RMS error of estimated populations vs shots.

    For each grid time the lowered circuit's outcome distribution is
    sampled with the given shot budget; the row reports the RMS
    deviation of the |11>-frequency estimate from the exact expectation
    across the grid. Seeds are drawn per (shots, time) from one master
    generator, so runs are reproducible.
    """
    if any(int(s) < 1 for s in shot_list):
        raise ValueError("shot counts must be >= 1")
    sys_t = system if theta is None else system.with_angles(theta)
    times = time_grid(t_max, dt)
    # exact per-time final states of the full pipeline, one batched run
    states = [
        QuantumState("density", rho, sys_t.n_sites)
        for rho in _density_states(sys_t, n, noise, nuclear, times, {})
    ]
    # expectation of the frequency estimator, including readout flips
    transition = qsim.readout_transition_matrix(noise)
    exact = np.array(
        [
            float(qsim.electron_outcome_probabilities(s) @ transition[:, 0b11])
            for s in states
        ]
    )

    master = np.random.default_rng(seed)
    rows = []
    for shots in shot_list:
        shots = int(shots)
        seeds = master.integers(0, 2**63, size=len(times))
        estimates = np.empty(len(times))
        for i, state in enumerate(states):
            result = qsim.sample_measurements(state, shots, int(seeds[i]), noise)
            estimates[i] = result.counts.get("11", 0) / shots
        rms = float(np.sqrt(np.mean((estimates - exact) ** 2)))
        rows.append({"shots": shots, "rms_error": rms})
    return rows
