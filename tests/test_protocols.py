import tracemalloc

import numpy as np
import pytest

import rpsim as rp
from rpsim import protocols, qsim
from rpsim.circuit import Circuit
from rpsim.protocols import _initial_density_vec, time_grid, yield_from_trace
from rpsim.refsolver import QuantumState
from rpsim.spinham import build_pauli_terms, to_dense_matrix


def test_time_grid_basic():
    g = time_grid(1.0, 0.25)
    assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(time_grid(1.0, 0.001)) == 1001
    with pytest.raises(ValueError):
        time_grid(1.0, 0.0)
    with pytest.raises(ValueError):
        time_grid(0.0005, 0.001)
    # t_max must be a whole number of steps; the grid never overshoots it
    with pytest.raises(ValueError, match="whole number"):
        time_grid(1.0, 0.3)
    with pytest.raises(ValueError, match="whole number"):
        rp.yield_curve(rp.prototype_system(), [0.0, 1.0], t_max=1.0, dt=0.3)


def test_time_grid_extension():
    g = time_grid(1.0, 0.01, k=1.0, tail="extend")
    # long enough that the survival factor drops below 1e-6
    assert np.exp(-1.0 * g[-1]) < 1e-6
    assert g[-1] >= 13.8
    # fast decay needs no extension
    g = time_grid(1.0, 0.01, k=50.0, tail="extend")
    assert g[-1] == pytest.approx(1.0)
    # an extended grid still rounds its end up to a whole step
    g = time_grid(1.0, 0.3, k=50.0, tail="extend")
    assert g[-1] == pytest.approx(1.2)
    with pytest.raises(ValueError):
        time_grid(1.0, 0.01, k=0.0, tail="extend")
    with pytest.raises(ValueError):
        time_grid(1.0, 0.01, tail="sideways")


def test_reference_trace_nuclear_average(prototype):
    """Mixed trace equals the mean of the two pure nuclear branches."""
    up = rp.reference_trace(prototype, "up", t_max=0.3, dt=0.05)
    down = rp.reference_trace(prototype, "down", t_max=0.3, dt=0.05)
    mixed = rp.reference_trace(prototype, "mixed", t_max=0.3, dt=0.05)
    avg = rp.nuclear_average(up, down)
    assert np.allclose(avg.populations, mixed.populations, atol=1e-12)


def test_statevector_fast_path_matches_per_gate(prototype):
    """The batched step-unitary engine is pinned to gate-by-gate runs."""
    rng = np.random.default_rng(21)
    # off-diagonal tensor entries give XY/XZ/YZ strings; unequal g-factors
    two_nuclei = rp.prototype_system(
        g_factors=(2.0, 2.003),
        nuclei=(
            (0, np.diag([5.0, 5.0, 10.0])),
            (1, np.array([[2.5, 0.7, -0.3], [0.7, 2.5, 0.4], [-0.3, 0.4, 5.0]])),
        ),
    )
    cases = [
        (prototype, 0.0, 0.5, 1),
        (prototype, np.pi / 2, 1.0, 4),
        (prototype, 1.3, 0.25, 3),
        (prototype, 2.2, 0.8, 7),
        (two_nuclei, 0.0, 0.4, 3),
        (two_nuclei, 1.3, 0.4, 3),
        (two_nuclei, np.pi, 0.4, 3),
    ]
    for system, theta, t, n in cases:
        sys_t = system.with_angles(theta)
        n_sites = sys_t.n_sites
        trace = rp.trotter_trace_statevector(sys_t, n, "up", t_max=t, dt=t)
        circ = rp.compile(sys_t, t, n)
        psi0 = QuantumState.pure(rp.singlet_vector(n_sites, "0" * sys_t.n_nuclei))
        final = qsim.run_statevector(Circuit(n_sites, circ.body, n, t), psi0)
        assert trace.populations[-1] == pytest.approx(
            rp.singlet_population_from_state(final), abs=1e-12
        )


def test_statevector_lowered_circuit_agrees(prototype):
    """Lowering then simulating gives the same populations."""
    sys_t = prototype.with_angles(0.9)
    t, n = 0.6, 3
    trace = rp.trotter_trace_statevector(sys_t, n, "down", t_max=t, dt=t)
    low = rp.lower_to_basis(rp.compile(sys_t, t, n))
    body = Circuit(3, low.body, n, t)
    psi0 = QuantumState.pure(rp.singlet_vector(3, "1"))
    final = qsim.run_statevector(body, psi0)
    assert trace.populations[-1] == pytest.approx(
        rp.singlet_population_from_state(final), abs=1e-12
    )


def test_density_fast_path_matches_per_gate(prototype):
    """Noisy superoperator engine is pinned to gate-by-gate density runs."""
    noise = rp.NoiseProfile()
    two_nuclei = rp.prototype_system(
        nuclei=((0, np.diag([5.0, 5.0, 10.0])), (1, np.diag([2.5, 2.5, 5.0])))
    )
    three_nuclei = rp.prototype_system(
        nuclei=(
            (0, np.diag([5.0, 5.0, 10.0])),
            (1, np.diag([2.5, 2.5, 5.0])),
            (0, np.diag([1.0, 2.0, 4.0])),
        )
    )
    cases = [
        (prototype, np.pi / 2, 0.5, 2, True, False),
        (prototype, 0.0, 1.0, 3, True, False),
        (prototype, 1.7, 0.2, 5, True, False),
        (prototype, np.pi, 0.4, 3, True, False),
        (two_nuclei, 0.0, 0.3, 2, True, False),
        (two_nuclei, np.pi, 0.3, 2, True, False),
        (two_nuclei, 1.1, 0.3, 2, True, False),
        (prototype, 1.1, 0.4, 65, True, False),  # above 64 steps: powered step
        (three_nuclei, 1.1, 0.3, 2, True, False),  # 5 qubits
    ]
    for theta in (0.0, np.pi / 2, np.pi):
        for prune_zeeman_zero in (False, True):
            for prune_all_zero in (False, True):
                cases.append((prototype, theta, 0.6, 3, prune_zeeman_zero, prune_all_zero))

    def per_gate(sys_t, t, n, **prune):
        low = rp.lower_to_basis(rp.compile(sys_t, t, n), **prune)
        d = 2**sys_t.n_sites
        rho0 = QuantumState(
            "density", _initial_density_vec(sys_t, "mixed").reshape(d, d), sys_t.n_sites
        )
        final = qsim.run_density(low, rho0, noise)
        return qsim.electron_outcome_probabilities(final)[0b11]

    # one time point: every constant run is applied gate by gate
    for system, theta, t, n, prune_zeeman_zero, prune_all_zero in cases:
        sys_t = system.with_angles(theta)
        prune = dict(prune_zeeman_zero=prune_zeeman_zero, prune_all_zero=prune_all_zero)
        trace = rp.trotter_trace_density(sys_t, n, noise, "mixed", t_max=t, dt=t, **prune)
        assert trace.populations[-1] == pytest.approx(per_gate(sys_t, t, n, **prune), abs=1e-12)

    # many time points: n*T reaches d^2 (64, or 256 at 4 qubits), so the
    # in-step runs are composed superoperators, and at 3 qubits the
    # basis-change tail too (T >= 64); the off-diagonal tensor gives runs
    # of equal length that must not be confused
    off_diagonal = rp.prototype_system(
        nuclei=(
            (0, np.diag([5.0, 5.0, 10.0])),
            (1, np.array([[2.5, 0.7, -0.3], [0.7, 2.5, 0.4], [-0.3, 0.4, 5.0]])),
        )
    )
    for system, theta, t_max in ((prototype, 0.0, 0.8), (prototype, 1.1, 0.8),
                                 (off_diagonal, 1.1, 0.9)):
        sys_t = system.with_angles(theta)
        trace = rp.trotter_trace_density(sys_t, 3, noise, "mixed", t_max=t_max, dt=0.01)
        for i in (1, 17, 50, 80):
            want = per_gate(sys_t, trace.times[i], 3)
            assert trace.populations[i] == pytest.approx(want, abs=1e-12)


def test_density_fast_path_zero_time_point(prototype):
    """The t=0 entry runs the real zero-angle circuit, noise included."""
    noise = rp.NoiseProfile()
    trace = rp.trotter_trace_density(prototype, 3, noise, "mixed", t_max=0.5, dt=0.5)
    low0 = rp.lower_to_basis(rp.compile(prototype, 0.0, 3))
    rho0 = QuantumState("density", _initial_density_vec(prototype, "mixed").reshape(8, 8), 3)
    final = qsim.run_density(low0, rho0, noise)
    want = qsim.electron_outcome_probabilities(final)[0b11]
    assert trace.populations[0] == pytest.approx(want, abs=1e-12)
    assert trace.populations[0] < 1.0  # preparation noise already bites


def test_density_engine_rejects_imaginary_diagonal(prototype, monkeypatch):
    """A state whose diagonal is not real is an error, not a population."""
    run_density = qsim.run_density

    def skewed(circuit, initial, noise=None):
        final = run_density(circuit, initial, noise)
        return QuantumState("density", final.data + 1e-6j * np.eye(8), 3)

    monkeypatch.setattr(qsim, "run_density", skewed)
    with pytest.raises(FloatingPointError, match="imaginary"):
        rp.trotter_trace_density(prototype, 2, None, t_max=0.2, dt=0.1)


def test_density_engine_rejects_trace_loss(prototype, monkeypatch):
    """A channel that does not preserve trace is an error, not a population."""
    channel_superop = qsim._channel_superop
    monkeypatch.setattr(
        qsim, "_channel_superop", lambda U, p: channel_superop(U, p) * (1 + 1e-6)
    )
    with pytest.raises(FloatingPointError, match="trace"):
        rp.trotter_trace_density(prototype, 2, None, t_max=0.2, dt=0.1)


def test_density_engine_rejects_population_out_of_range(prototype, monkeypatch):
    """A trace-1 state with a negative diagonal entry is an error, even
    though the trace check cannot see it."""
    electrons = np.zeros((4, 4), dtype=complex)
    electrons[0, 0] = 1.0
    nucleus = np.diag([1.5, -0.5]).astype(complex)
    monkeypatch.setattr(
        protocols, "_initial_density_vec",
        lambda system, nuclear: np.kron(electrons, nucleus).reshape(-1),
    )
    with pytest.raises(FloatingPointError, match=r"leaves \[0, 1\]"):
        rp.trotter_trace_density(prototype, 2, None, t_max=0.2, dt=0.1)


def test_reference_yield_curve_matches_per_angle_yields():
    """The stacked reference curve gives each angle's yield bit for bit as
    the angle's own trace does, for pure and mixed nuclei."""
    thetas = [0.0, 0.4, np.pi / 2, 2.3, np.pi]
    two_nuclei = rp.prototype_system(
        g_factors=(2.0, 2.003),
        nuclei=((0, np.diag([5.0, 5.0, 10.0])), (1, np.diag([2.5, 2.5, 5.0]))),
    )
    for system in (rp.prototype_system(), two_nuclei):
        for nuclear in ("mixed", "up", "down"):
            curve = rp.yield_curve(system, thetas, nuclear=nuclear, dt=0.01)
            want = [
                rp.singlet_yield_at(system.with_angles(th), "reference", nuclear=nuclear, dt=0.01)
                for th in thetas
            ]
            assert np.array_equal(curve.yields, want)


def test_reference_hamiltonian_stack_matches_dense_matrix():
    """Every H of the curve's stack is the one to_dense_matrix builds."""
    system = rp.prototype_system(
        g_factors=(2.0, 2.003),
        nuclei=((0, np.array([[5.0, 1.2, -0.4], [1.2, 5.5, 0.3], [-0.4, 0.3, 10.0]])),),
    )
    thetas = np.linspace(0.0, np.pi, 9)
    H, _ = protocols._reference_problem(system, thetas, "mixed")
    for h, th in zip(H, thetas):
        terms = build_pauli_terms(system.with_angles(th))
        assert np.array_equal(h, to_dense_matrix(terms, system.n_sites))


def test_reference_yield_curve_memory():
    """A 128-angle curve streams its rows: no (angles, times) array is
    held, so the traced peak stays near one angle's working set."""
    system = rp.prototype_system()
    thetas = np.linspace(0.0, np.pi, 128)
    tracemalloc.start()
    try:
        rp.yield_curve(system, thetas, dt=0.001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _per_angle_yields(system, thetas, n, noise, dt):
    k = system.k_singlet
    return np.array([
        yield_from_trace(
            rp.trotter_trace_density(system.with_angles(th), n, noise, t_max=1.0, dt=dt), k
        )
        for th in thetas
    ])


def test_density_yield_curve_matches_per_angle_traces(prototype):
    """Work shared across a curve's angles leaves every yield bit for bit
    as the angle's own trace gives it; theta=0 lowers to fewer gates per
    step than the other angles."""
    noise = rp.NoiseProfile()
    thetas = [0.0, 0.4, np.pi / 2, 2.3, np.pi]
    curve = rp.yield_curve(prototype, thetas, mode="density", n=3, noise=noise, dt=0.01)
    assert np.array_equal(curve.yields, _per_angle_yields(prototype, thetas, 3, noise, 0.01))

    two_nuclei = rp.prototype_system(
        nuclei=((0, np.diag([5.0, 5.0, 10.0])), (1, np.diag([2.5, 2.5, 5.0])))
    )
    thetas = [0.0, 1.1, np.pi]
    curve = rp.yield_curve(two_nuclei, thetas, mode="density", n=2, noise=noise, dt=0.1)
    assert np.array_equal(curve.yields, _per_angle_yields(two_nuclei, thetas, 2, noise, 0.1))


def test_density_yield_curves_share_nothing_between_calls(prototype):
    """Consecutive curves with different noise each match their own traces."""
    thetas = [0.0, 1.1, np.pi]
    for noise in (rp.NoiseProfile(), rp.NoiseProfile(p_depol_1q=2e-3, p_depol_2q=3e-2)):
        curve = rp.yield_curve(prototype, thetas, mode="density", n=3, noise=noise, dt=0.05)
        want = _per_angle_yields(prototype, thetas, 3, noise, 0.05)
        assert np.array_equal(curve.yields, want)


def test_density_noiseless_equals_statevector_mixed(prototype):
    a = rp.trotter_trace_statevector(prototype, 4, "mixed", t_max=0.5, dt=0.1)
    b = rp.trotter_trace_density(prototype, 4, None, "mixed", t_max=0.5, dt=0.1)
    assert np.max(np.abs(a.populations - b.populations)) < 1e-10


def test_trotter_converges_to_reference(prototype):
    ref = rp.reference_trace(prototype, "mixed", t_max=0.5, dt=0.1)
    tr = rp.trotter_trace_statevector(prototype, 512, "mixed", t_max=0.5, dt=0.1)
    assert np.max(np.abs(ref.populations - tr.populations)) < 1e-4


def test_population_trace_dispatch(prototype):
    ref = rp.population_trace(prototype, "reference", t_max=0.2, dt=0.1)
    sv = rp.population_trace(prototype, "statevector", n=256, t_max=0.2, dt=0.1)
    assert np.allclose(ref.populations, sv.populations, atol=1e-5)
    with pytest.raises(ValueError):
        rp.population_trace(prototype, "statevector")  # n required
    with pytest.raises(ValueError):
        rp.population_trace(prototype, "sideways", n=1)


def test_yield_frozen_values(prototype):
    got = rp.singlet_yield_at(prototype, "reference", dt=0.001)
    assert got == pytest.approx(0.387915947, abs=1e-9)
    got = rp.singlet_yield_at(prototype, "statevector", n=1024, dt=0.001)
    assert got == pytest.approx(0.387915491, abs=1e-9)


def test_yield_curve_metadata(prototype):
    thetas = np.linspace(0, np.pi, 7)
    one = rp.yield_curve(prototype, thetas, mode="reference", dt=0.01)
    assert one.metadata["mode"] == "reference"
    assert one.metadata["system_hash"] == prototype.content_hash()
    assert one.metadata["k_MHz"] == 1.0


def test_yield_curve_rejects_asymmetric_rates():
    sys_ = rp.prototype_system(k_singlet=1.0, k_triplet=2.0)
    with pytest.raises(NotImplementedError):
        rp.singlet_yield_at(sys_, "reference")


def test_trotter_sweep_rows(prototype):
    rows = rp.trotter_sweep(prototype, [1, 4], theta=np.pi / 2, t_max=0.2, dt=0.05)
    assert [r["n"] for r in rows] == [1, 4]
    assert all("yield_noiseless" in r and "yield_noisy" not in r for r in rows)
    noisy_rows = rp.trotter_sweep(
        prototype, [2], theta=np.pi / 2, noise=rp.NoiseProfile(), t_max=0.2, dt=0.05
    )
    assert "yield_noisy" in noisy_rows[0]
    assert noisy_rows[0]["yield_noisy"] != noisy_rows[0]["yield_noiseless"]


def test_rate_sweep_frozen_and_monotone(prototype):
    ks = [0.1, 0.3, 1.0, 3.0, 10.0, 100.0]
    rows = rp.rate_sweep(prototype, ks, mode="reference", t_max=1.0, dt=0.001)
    got = [r["yield"] for r in rows]
    frozen = [0.058464552, 0.158958969, 0.387915947, 0.613059345, 0.816943496, 0.996578371]
    for g, f in zip(got, frozen):
        assert g == pytest.approx(f, abs=2e-6)
    assert all(a < b for a, b in zip(got, got[1:]))
    with pytest.raises(ValueError):
        rp.rate_sweep(prototype, [0.0])


def test_rate_sweep_consistency_with_yield(prototype):
    rows = rp.rate_sweep(prototype, [1.0], mode="reference", t_max=1.0, dt=0.001)
    direct = rp.singlet_yield_at(prototype, "reference", dt=0.001)
    assert rows[0]["yield"] == pytest.approx(direct, abs=1e-12)


def test_shot_sweep_reproducible(prototype):
    a = rp.shot_sweep(prototype, [50, 500], seed=7, n=2, t_max=0.2, dt=0.05)
    b = rp.shot_sweep(prototype, [50, 500], seed=7, n=2, t_max=0.2, dt=0.05)
    assert a == b
    c = rp.shot_sweep(prototype, [50, 500], seed=8, n=2, t_max=0.2, dt=0.05)
    assert a != c
    assert a[0]["rms_error"] > a[1]["rms_error"]
    with pytest.raises(ValueError):
        rp.shot_sweep(prototype, [0], seed=1)


def test_shot_sweep_exact_center(prototype):
    """Huge shot counts converge on the exact expectation."""
    rows = rp.shot_sweep(prototype, [400000], seed=3, n=2, t_max=0.1, dt=0.05)
    assert rows[0]["rms_error"] < 2e-3


def _shot_sweep_per_time(system, shot_list, n, seed, noise, nuclear, t_max, dt):
    """Oracle: one lowered circuit per grid time, run gate by gate."""
    times = time_grid(t_max, dt)
    d = 2**system.n_sites
    rho0 = QuantumState(
        "density", _initial_density_vec(system, nuclear).reshape(d, d), system.n_sites
    )
    states = [
        qsim.run_density(rp.lower_to_basis(rp.compile(system, float(t), n)), rho0, noise)
        for t in times
    ]
    transition = qsim.readout_transition_matrix(noise)
    exact = np.array(
        [qsim.electron_outcome_probabilities(s) @ transition[:, 0b11] for s in states]
    )
    master = np.random.default_rng(seed)
    rows = []
    for shots in shot_list:
        seeds = master.integers(0, 2**63, size=len(times))
        estimates = np.array([
            qsim.sample_measurements(s, shots, int(sd), noise).counts["11"] / shots
            for s, sd in zip(states, seeds)
        ])
        rms = float(np.sqrt(np.mean((estimates - exact) ** 2)))
        rows.append({"shots": shots, "rms_error": rms})
    return rows


def test_shot_sweep_matches_per_time_circuits(prototype):
    """The batched density engine gives the per-time loop's rows."""
    sys_t = prototype.with_angles(1.3)
    shot_list = [50, 2000]
    for noise in (None, rp.NoiseProfile()):
        for n in (1, 3):
            for nuclear in ("mixed", "up"):
                kwargs = dict(n=n, seed=17, noise=noise, nuclear=nuclear, t_max=0.3, dt=0.1)
                got = rp.shot_sweep(sys_t, shot_list, **kwargs)
                want = _shot_sweep_per_time(sys_t, shot_list, **kwargs)
                assert [r["shots"] for r in got] == shot_list
                for g, w in zip(got, want):
                    assert g["shots"] == w["shots"]
                    assert g["rms_error"] == pytest.approx(w["rms_error"], rel=1e-12)
