"""End-to-end acceptance checks.

Each test covers one numbered release criterion and prints a single
PASS/FAIL line (visible with -s, or in the failure report) carrying the
measured numbers next to the target, before asserting.

The expensive yield curves are computed once per session and shared.
"""

import numpy as np
import pytest

import rpsim as rp
from rpsim import qsim
from rpsim.refsolver import QuantumState

from util import random_circuit

THETAS = np.linspace(0.0, np.pi, 128)
K = 1.0  # MHz, prototype recombination rate


def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def prototype():
    return rp.prototype_system(theta=np.pi / 2)


@pytest.fixture(scope="session")
def reference_curve(prototype):
    return rp.yield_curve(prototype, THETAS, mode="reference", dt=0.001)


@pytest.fixture(scope="session")
def statevector_curve(prototype):
    return rp.yield_curve(prototype, THETAS, mode="statevector", n=1024, dt=0.001)


@pytest.fixture(scope="session")
def noisy_curve_n5(prototype):
    return rp.yield_curve(
        prototype, THETAS, mode="density", n=5, noise=rp.NoiseProfile(),
        dt=0.01,
    )


@pytest.fixture(scope="session")
def noisy_curve_n15(prototype):
    return rp.yield_curve(
        prototype, THETAS, mode="density", n=15, noise=rp.NoiseProfile(),
        dt=0.01,
    )


def test_criterion_01_reference_anisotropy(reference_curve):
    delta = rp.anisotropy(reference_curve)
    ok = abs(delta - 0.0564) <= 0.0015
    report(1, ok, f"reference delta_S={delta:.9f}, target 0.0564 +/- 0.0015")
    assert ok, f"reference delta_S={delta:.9f} outside 0.0564 +/- 0.0015"


def test_criterion_02_trotter_anisotropy(statevector_curve):
    delta = rp.anisotropy(statevector_curve)
    ok = abs(delta - 0.0561) <= 0.002
    report(2, ok, f"n=1024 delta_S={delta:.9f}, target 0.0561 +/- 0.002")
    assert ok, f"n=1024 delta_S={delta:.9f} outside 0.0561 +/- 0.002"


def test_criterion_03_trotter_sufficiency(prototype):
    anchor = rp.singlet_yield_at(prototype, "statevector", n=1024, dt=0.001)
    n_values = list(range(15, 31)) + [40, 64, 128, 256, 512]
    rel = {
        n: abs(rp.singlet_yield_at(prototype, "statevector", n=n, dt=0.001) - anchor)
        / anchor
        for n in n_values
    }
    worst_n = max(rel, key=rel.get)
    coarse = abs(
        rp.singlet_yield_at(prototype, "statevector", n=2, dt=0.001) - anchor
    ) / anchor
    ok = max(rel.values()) <= 0.01 and coarse > 0.01
    report(
        3,
        ok,
        f"worst rel err for n>=15 is {rel[worst_n]:.6f} at n={worst_n} "
        f"(<=0.01 required); n=2 gives {coarse:.6f} (>0.01 required)",
    )
    assert max(rel.values()) <= 0.01, f"n={worst_n} rel err {rel[worst_n]:.6f}"
    assert coarse > 0.01, f"n=2 unexpectedly converged: {coarse:.6f}"


def test_criterion_04_gate_counts(prototype):
    counts = {}
    step_attrib = {}
    for n in (1, 2, 3, 4, 8):
        census = rp.gate_count(rp.lower_to_basis(rp.compile(prototype, 1.0, n)))
        counts[n] = census["total"]
        step_attrib[n] = census["trotter_only"]
    ok = (
        counts[1] == 61
        and counts[3] == 171
        and step_attrib[1] == 55
        and step_attrib[3] == 165
        and all(counts[n] == 6 + 55 * n for n in counts)
    )
    report(
        4,
        ok,
        f"count(1)={counts[1]} (target 61), count(3)={counts[3]} (target 171), "
        f"step gates {step_attrib[1]}/{step_attrib[3]} (target 55/165), "
        f"count(n)=6+55n holds for n in {sorted(counts)}",
    )
    assert counts[1] == 61 and counts[3] == 171
    assert step_attrib[1] == 55 and step_attrib[3] == 165
    for n, c in counts.items():
        assert c == 6 + 55 * n


def test_criterion_05_integrator_equivalence(prototype):
    H = rp.to_dense_matrix(rp.build_pauli_terms(prototype), 3)
    rho0 = rp.initial_state("mixed", 3, kind="density")
    times = rp.time_grid(1.0, 0.001)
    analytic = rp.apply_decay(rp.evolve_exact(H, rho0, times), K)
    stepped = rp.rk4_haberkorn(H, rho0, K, K, dt=0.001, t_max=1.0)
    diff = float(np.max(np.abs(analytic.populations - stepped.populations)))
    ok = diff <= 1e-6
    report(5, ok, f"max |rk4 - analytic| = {diff:.3e}, tolerance 1e-6")
    assert ok, f"integrator mismatch {diff:.3e} > 1e-6"


def test_criterion_06_density_statevector_equivalence():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(1000):
        circ = random_circuit(rng, n_qubits=3, max_depth=50)
        psi0 = QuantumState.pure(rp.singlet_vector(3, "0"))
        psi = qsim.run_statevector(circ, psi0)
        rho0 = QuantumState("density", np.outer(psi0.data, psi0.data.conj()), 3)
        rho = qsim.run_density(circ, rho0, None)
        diff = float(np.max(np.abs(rho.data - np.outer(psi.data, psi.data.conj()))))
        worst = max(worst, diff)
    ok = worst <= 1e-10
    report(6, ok, f"worst density/statevector gap over 1000 circuits = {worst:.3e}")
    assert ok, f"worst gap {worst:.3e} > 1e-10"


def test_criterion_07_conservation(prototype):
    worst_point = 0.0
    worst_yield = 0.0
    times = rp.time_grid(1.0, 0.001)
    survival = np.exp(-K * times)
    p_t_proj = rp.triplet_projector(3)
    for theta in (0.0, np.pi / 3, np.pi / 2, 2.4):
        sys_t = prototype.with_angles(theta)
        H = rp.to_dense_matrix(rp.build_pauli_terms(sys_t), 3)
        for nuclear in ("mixed", "up"):
            trace = rp.reference_trace(sys_t, nuclear, t_max=1.0, dt=0.001)
            # triplet populations computed independently from the projector
            evals, evecs = np.linalg.eigh(H)
            rho0 = rp.initial_state(nuclear, 3, kind="density").data
            phases = np.exp(-1j * np.outer(times, evals) / sys_t.hbar)
            rho0_eig = evecs.conj().T @ rho0 @ evecs
            p_t_eig = evecs.conj().T @ p_t_proj @ evecs
            # Tr[P_T U rho U^dag] for all t in one einsum
            p_triplet = np.einsum(
                "ti,ij,tj,ji->t", phases, rho0_eig, phases.conj(), p_t_eig
            ).real
            total = (trace.populations + p_triplet) * survival
            worst_point = max(worst_point, float(np.max(np.abs(total - survival))))
            phi_s = K * np.trapezoid(trace.populations * survival, x=times)
            phi_t = K * np.trapezoid(p_triplet * survival, x=times)
            gap = abs(phi_s + phi_t - (1.0 - np.exp(-K * 1.0)))
            worst_yield = max(worst_yield, float(gap))
    ok = worst_point <= 1e-10 and worst_yield <= 1e-6
    report(
        7,
        ok,
        f"pointwise |p_S+p_T - e^-kt| <= {worst_point:.3e} (tol 1e-10); "
        f"|Phi_S+Phi_T - (1-e^-k t_max)| <= {worst_yield:.3e} (tol 1e-6)",
    )
    assert worst_point <= 1e-10
    assert worst_yield <= 1e-6


def test_criterion_08_noise_ordering(statevector_curve, noisy_curve_n5, noisy_curve_n15):
    clean = rp.anisotropy(statevector_curve)
    mid = rp.anisotropy(noisy_curve_n5)
    small = rp.anisotropy(noisy_curve_n15)
    ok = clean > mid > small
    report(
        8,
        ok,
        f"delta_S ordering: noiseless {clean:.9f} > n=5 noisy {mid:.9f} "
        f"> n=15 noisy {small:.9f}",
    )
    assert ok, f"ordering violated: {clean:.9f}, {mid:.9f}, {small:.9f}"


def test_criterion_09_fit_recovery(noisy_curve_n5, reference_curve):
    fitted = rp.rescale_fit(noisy_curve_n5, reference_curve)
    r = rp.pearson_r(fitted.yields, reference_curve.yields)
    min_gap = abs(float(fitted.yields.min()) - float(reference_curve.yields.min()))
    max_gap = abs(float(fitted.yields.max()) - float(reference_curve.yields.max()))
    ok = r >= 0.9 and min_gap <= 1e-12 and max_gap <= 1e-12
    report(
        9,
        ok,
        f"pearson r={r:.6f} (>=0.9 required); extrema gaps "
        f"min {min_gap:.3e}, max {max_gap:.3e} (exact match required)",
    )
    assert r >= 0.9
    assert min_gap <= 1e-12 and max_gap <= 1e-12


def test_criterion_10_shot_scaling(prototype):
    rows = rp.shot_sweep(
        prototype, [100, 1000, 10000], seed=20260819, n=5, t_max=1.0, dt=0.01
    )
    rms = [r["rms_error"] for r in rows]
    normalized = [e * np.sqrt(s) for e, s in zip(rms, (100, 1000, 10000))]
    spread = max(normalized) / min(normalized)
    ok = spread <= 2.0 and rms[0] > rms[1] > rms[2]
    report(
        10,
        ok,
        f"rms*sqrt(shots) = {normalized[0]:.4f}/{normalized[1]:.4f}/"
        f"{normalized[2]:.4f}, spread x{spread:.3f} (<=2 required)",
    )
    assert spread <= 2.0, f"1/sqrt(shots) scaling violated: spread {spread:.3f}"
    assert rms[0] > rms[1] > rms[2]


def test_criterion_11_symmetries(prototype):
    # no hyperfine coupling and equal g factors freeze the singlet
    frozen = rp.prototype_system(
        theta=np.pi / 2, nuclei=((0, np.zeros((3, 3))),)
    )
    trace = rp.reference_trace(frozen, "mixed", t_max=1.0, dt=0.01)
    drift = float(np.max(np.abs(trace.populations - 1.0)))
    decayed = rp.apply_decay(trace, K)
    decay_gap = float(
        np.max(np.abs(decayed.populations - np.exp(-K * decayed.times)))
    )
    # field-angle mirror symmetry of the yield
    probe = np.array([0.1, 0.4, 1.0, 1.4])
    fwd = rp.yield_curve(prototype, probe, mode="reference", dt=0.001)
    bwd = rp.yield_curve(prototype, np.pi - probe[::-1], mode="reference", dt=0.001)
    mirror = float(np.max(np.abs(fwd.yields - bwd.yields[::-1])))
    ok = drift <= 1e-10 and decay_gap <= 1e-10 and mirror <= 1e-4
    report(
        11,
        ok,
        f"A=0 population drift {drift:.3e} (tol 1e-10), decayed gap "
        f"{decay_gap:.3e}; |Phi_S(theta) - Phi_S(pi-theta)| <= {mirror:.3e} "
        f"(tol 1e-4)",
    )
    assert drift <= 1e-10
    assert decay_gap <= 1e-10
    assert mirror <= 1e-4
