"""The four benchmark workloads.

Each workload drives rpsim through its public API only (``rpsim.*`` and
``rpsim.cli.main``) with library defaults for ``threads`` and the pruning
flags. Inputs come from the workload seed alone; every op draws fresh
angles, so no op repeats another op's inputs.

Per op the runner calls, in order: `next_input` (untimed), `run` (timed),
`output` and `check` (untimed). `check` returns the problems it found; an
op with any problem counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

import rpsim as rp

STATEVECTOR_TOL = 1e-5  # |statevector(n=1024) - reference| per yield
PEARSON_MIN = 0.9  # rescale_fit(noisy) against the reference curve
ENGINE_TOL = 1e-10  # batched density trace against gate-by-gate qsim
SHOT_SPREAD_MAX = 2.0  # max/min of rms * sqrt(shots), criterion 10


def stratified_angles(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform angle per equal slice of [0, pi): sorted, distinct, and
    spread over the whole range, so every curve has a real anisotropy."""
    return (np.arange(count) + rng.random(count)) * (np.pi / count)


def grid_points(t_max: float, dt: float) -> int:
    return len(rp.time_grid(t_max, dt))


class Workload:
    name = ""
    cycle = 1  # ops per cycle; a run stops only at a cycle boundary
    calibrated = True  # op times in reference seconds (speed.py), not wall seconds

    def __init__(self, seed: int, index: int, workdir: str):
        self.rng_key = [seed % 2**64, index]
        self.rng = np.random.default_rng(self.rng_key)
        self.workdir = workdir
        self.system = rp.prototype_system(theta=np.pi / 2)
        self.ops_drawn = 0

    def next_input(self) -> dict:
        inp = self._draw(self.rng, self.ops_drawn)
        self.ops_drawn += 1
        return inp

    def warm_up(self) -> None:
        """Run one op on inputs from a separate stream, so lazy set-up in
        numpy and rpsim finishes before timing without using up an input."""
        self.run(self._draw(np.random.default_rng([*self.rng_key, 1]), 0))

    def _draw(self, rng: np.random.Generator, k: int) -> dict:
        raise NotImplementedError

    def run(self, inp: dict):
        raise NotImplementedError

    def output(self, inp: dict, raw):
        return raw

    def fingerprint(self, out) -> bytes:
        """Bytes that are equal exactly when two outputs are bit-identical."""
        return out.thetas.tobytes() + out.yields.tobytes()

    def check(self, inp: dict, out) -> list[str]:
        raise NotImplementedError

    def populations(self, inp: dict) -> int:
        """(angle, time) population values the op computes."""
        raise NotImplementedError

    def angles(self, inp: dict) -> int:
        return len(inp["thetas"])

    def bytes_written(self, out) -> int:
        return 0

    def close(self) -> None:
        pass


class CliReference(Workload):
    name = "cli_reference"
    THETAS = rp.DEFAULTS["theta_grid"]["count"]
    K_RATES = 4
    REPEAT_EVERY = 4  # ops re-run for the byte-identity check; a repeat costs an op

    def __init__(self, seed, index, workdir):
        super().__init__(seed, index, workdir)
        from rpsim import cli

        self.cli = cli  # main is looked up per call, where tracing patches it
        self.config = os.path.join(workdir, "config.json")
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self.points = grid_points(rp.DEFAULTS["t_max_us"], rp.DEFAULTS["dt_us"])

    def _draw(self, rng, k):
        thetas = stratified_angles(rng, self.THETAS)
        theta = float(rng.uniform(0.0, np.pi))
        rates = np.sort(rng.uniform(0.5, 5.0, self.K_RATES))
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({
                "theta_grid": {"values": thetas.tolist()},
                "system": {"theta_rad": theta},
            }, fh)
        return {
            "k": k,
            "thetas": thetas,
            "theta": theta,
            "k_list": ",".join(repr(float(r)) for r in rates),
        }

    def run(self, inp):
        common = ["--config", self.config, "--output", self.outdir]
        curve = os.path.join(self.outdir, "yield_sweep.csv")
        sink = io.StringIO()  # each subcommand prints its CSV path
        with contextlib.redirect_stdout(sink):
            return [
                self.cli.main(["yield-sweep", *common]),
                self.cli.main(["rate-sweep", *common, "--k-list", inp["k_list"]]),
                self.cli.main(["population", *common]),
                self.cli.main(["fit", curve, curve, "--output", self.outdir]),
            ]

    def output(self, inp, raw):
        files = {}
        for name in sorted(os.listdir(self.outdir)):
            with open(os.path.join(self.outdir, name), "rb") as fh:
                files[name] = fh.read()
        return {"exit_codes": raw, "files": files}

    def fingerprint(self, out):
        parts = [repr(out["exit_codes"]).encode()]
        for name, blob in out["files"].items():
            parts += [name.encode(), blob]
        return b"\0".join(parts)

    def bytes_written(self, out):
        return sum(len(blob) for blob in out["files"].values())

    def check(self, inp, out):
        problems = []
        if out["exit_codes"] != [0, 0, 0, 0]:
            return [f"exit codes {out['exit_codes']}"]
        files = out["files"]
        for stem in ("yield_sweep", "rate_sweep", "population", "fit"):
            blob = files.get(f"{stem}.csv")
            meta = files.get(f"{stem}.meta.json")
            if blob is None or meta is None:
                problems.append(f"{stem}: missing CSV or sidecar")
                continue
            if json.loads(meta)["csv_sha256"] != hashlib.sha256(blob).hexdigest():
                problems.append(f"{stem}: CSV SHA-256 differs from its sidecar")
        if not problems:
            rows = files["yield_sweep.csv"].decode().splitlines()[1:]
            if len(rows) != self.THETAS:
                problems.append(f"yield_sweep: {len(rows)} rows")
            # fitting a curve onto itself is the identity map
            if files["fit.csv"] != files["yield_sweep.csv"]:
                problems.append("fit of a curve onto itself changed it")
            if abs(json.loads(files["fit.meta.json"])["metadata"]["pearson_r"] - 1) > 1e-12:
                problems.append("fit of a curve onto itself: pearson r != 1")
        if inp["k"] % self.REPEAT_EVERY == 0:
            repeat = self.output(inp, self.run(inp))
            if self.fingerprint(repeat) != self.fingerprint(out):
                problems.append("a repeated op with the same inputs wrote other bytes")
        return problems

    def populations(self, inp):
        # yield-sweep over every angle, then one trace each for rate-sweep
        # and population
        return (self.THETAS + 2) * self.points

    def angles(self, inp):
        return self.THETAS + 2

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class TrotterCurve(Workload):
    name = "trotter_curve"
    THETAS = 8
    N = 1024
    DT = 0.001

    def __init__(self, seed, index, workdir):
        super().__init__(seed, index, workdir)
        self.points = grid_points(1.0, self.DT)

    def _draw(self, rng, k):
        return {"thetas": stratified_angles(rng, self.THETAS)}

    def run(self, inp):
        return rp.yield_curve(self.system, inp["thetas"], mode="statevector",
                              n=self.N, dt=self.DT)

    def check(self, inp, out):
        reference = rp.yield_curve(self.system, inp["thetas"], mode="reference",
                                   dt=self.DT)
        gap = float(np.max(np.abs(out.yields - reference.yields)))
        if not gap <= STATEVECTOR_TOL:
            return [f"statevector vs reference gap {gap:.3e} > {STATEVECTOR_TOL}"]
        return []

    def populations(self, inp):
        return self.THETAS * self.points


class NoisyCurve(Workload):
    name = "noisy_curve"
    cycle = 3
    calibrated = False  # memory-bound: its op times do not follow the loop
    THETAS = 4
    DT = 0.01
    DT_4Q = 0.1  # coarse grid: one 4-qubit angle costs ~1 s even so

    def __init__(self, seed, index, workdir):
        super().__init__(seed, index, workdir)
        self.noise = rp.NoiseProfile()
        self.two_nuclei = rp.prototype_system(
            theta=np.pi / 2,
            nuclei=((0, np.diag([5.0, 5.0, 10.0])), (1, np.diag([2.5, 2.5, 5.0]))),
        )
        self.delta_s_n5: dict[int, float] = {}

    def _draw(self, rng, k):
        case = k % self.cycle
        if case == 0:
            self._thetas = stratified_angles(rng, self.THETAS)
        if case == 2:
            system, thetas, n, dt = self.two_nuclei, rng.uniform(0, np.pi, 1), 5, self.DT_4Q
        else:
            system, thetas, n, dt = self.system, self._thetas, (5, 15)[case], self.DT
        steps = grid_points(1.0, dt) - 1
        probes = 1 if case == 2 else 2
        return {
            "case": case,
            "pair": k // self.cycle,
            "system": system,
            "thetas": thetas,
            "n": n,
            "dt": dt,
            # (angle index, time index) points re-checked gate by gate
            "probes": [(int(rng.integers(len(thetas))), int(rng.integers(1, steps + 1)))
                       for _ in range(probes)],
        }

    def run(self, inp):
        return rp.yield_curve(inp["system"], inp["thetas"], mode="density",
                              n=inp["n"], noise=self.noise, dt=inp["dt"])

    def check(self, inp, out):
        problems = []
        if not np.all((out.yields > 0) & (out.yields < 1)):
            problems.append("yield outside (0, 1)")
        if inp["case"] != 2:
            reference = rp.yield_curve(inp["system"], inp["thetas"], mode="reference")
            r = rp.pearson_r(rp.rescale_fit(out, reference).yields, reference.yields)
            if not r >= PEARSON_MIN:
                problems.append(f"n={inp['n']}: fitted pearson r {r:.4f} < {PEARSON_MIN}")
            delta_s = rp.anisotropy(out)
            if inp["case"] == 0:
                self.delta_s_n5[inp["pair"]] = delta_s
            elif not self.delta_s_n5.get(inp["pair"], -np.inf) > delta_s:
                problems.append("delta_S at n=5 is not above delta_S at n=15")
        for i, step in inp["probes"]:
            gap = self._engine_gap(inp, float(inp["thetas"][i]), step)
            if not gap <= ENGINE_TOL:
                problems.append(f"density engine vs qsim gap {gap:.3e} at theta index {i}")
        return problems

    def _engine_gap(self, inp, theta: float, step: int) -> float:
        """|batched density trace - gate-by-gate run| of P(|11>) at one (theta, t)."""
        system = inp["system"].with_angles(theta)
        t = float(rp.time_grid(1.0, inp["dt"])[step])
        batched = rp.trotter_trace_density(system, inp["n"], self.noise, t_max=t, dt=t)
        circuit = rp.lower_to_basis(rp.compile(system, t, inp["n"]))
        electrons = np.zeros((4, 4), dtype=complex)
        electrons[0, 0] = 1.0  # |00>, before singlet preparation
        d_nuc = 2**system.n_nuclei
        rho0 = np.kron(electrons, np.eye(d_nuc) / d_nuc)
        final = rp.run_density(circuit, rp.QuantumState("density", rho0, system.n_sites), self.noise)
        p11 = rp.electron_outcome_probabilities(final)[0b11]
        return abs(float(batched.populations[1]) - float(p11))

    def populations(self, inp):
        return len(inp["thetas"]) * grid_points(1.0, inp["dt"])


class ShotSweep(Workload):
    name = "shot_sweep"
    SHOTS = (100, 1000, 10000)
    N = 5
    DT = 0.01

    def __init__(self, seed, index, workdir):
        super().__init__(seed, index, workdir)
        self.points = grid_points(1.0, self.DT)

    def _draw(self, rng, k):
        return {
            "theta": float(rng.uniform(0.0, np.pi)),
            "seed": int(rng.integers(0, 2**63)),
        }

    def run(self, inp):
        return rp.shot_sweep(self.system, list(self.SHOTS), theta=inp["theta"],
                             n=self.N, seed=inp["seed"], dt=self.DT)

    def fingerprint(self, out):
        return json.dumps(out, sort_keys=True).encode()

    def check(self, inp, out):
        shots = [row["shots"] for row in out]
        rms = [row["rms_error"] for row in out]
        if shots != list(self.SHOTS):
            return [f"rows for shots {shots}"]
        scaled = [e * np.sqrt(s) for e, s in zip(rms, shots)]
        problems = []
        if not max(scaled) / min(scaled) <= SHOT_SPREAD_MAX:
            problems.append(f"rms*sqrt(shots) spread {max(scaled) / min(scaled):.3f}")
        if not rms[0] > rms[1] > rms[2]:
            problems.append(f"rms does not fall with shots: {rms}")
        return problems

    def populations(self, inp):
        return self.points

    def angles(self, inp):
        return 1


WORKLOADS = {cls.name: cls for cls in (CliReference, TrotterCurve, NoisyCurve, ShotSweep)}


def make(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, list(WORKLOADS).index(name), workdir)
