"""rpsim benchmark runner.

One run drives one workload from a single caller, one op at a time (a
closed loop with one client), for about --seconds of op time, checks every
op's output outside the timed region, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off. With --trace 1 every op runs twice on the same inputs, once plain and
once traced, in alternating order; the metrics are the per-layer ones from
the traced copies plus the tracing overhead, and the two outputs must be
bit-identical. Times are in reference seconds: wall time rescaled by a
calibration loop timed between ops, so that the host's drifting speed does
not read as a change of the program (speed.py). Each run also writes a full
record (environment included) to perfbench/out/runs/, and a traced run its
spans to perfbench/out/spans/.

Usage:
    python3 perfbench/run.py --workload cli_reference --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20   # every workload, one table
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import bench_env
import speed
from stats import TAIL_BEYOND, tail
from tracing import COUNTERS, TRACED_NAMES, Tracer, busy_times, self_times

# workloads imports numpy, so it loads only after pin_blas_threads has run

WORKLOAD_NAMES = ("cli_reference", "trotter_curve", "noisy_curve", "shot_sweep")
SETUP_PROBES = 7  # process starts per run; setup_s is their median

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "populations_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but kept out of the metrics object:
# it is 0 whenever the program is correct, and `failed`/`attempted` carry it.
ERROR_RATE = "error_rate"
WAIT_S = "0 by construction: one caller, no queue"


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED_NAMES:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.busy_s"] = "s/op"
        units[f"{name}.self_s"] = "s/op"
    for name, (counter, _) in COUNTERS.items():
        units[f"{name}.{counter}"] = "count/op"
    units["cli.bytes_written"] = "B/op"
    units["spinham.to_dense_matrix.calls_per_angle"] = "calls/angle"
    units["circuit.lower_to_basis.calls_per_op"] = "calls/op"
    units["trace.overhead_ratio"] = "ratio"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="where to write the run record (JSON)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    return args


# ---------------------------------------------------------------------------
# set-up


def workdir(tag: str) -> str:
    return str(bench_env.OUT / "work" / f"{os.getpid()}-{tag}")


def setup_probe(args) -> int:
    """Child side of a set-up measurement: get ready for the first op, say so."""
    import workloads

    wl = workloads.make(args.workload, args.seed, workdir("probe"))
    wl.next_input()
    print("ready", flush=True)
    wl.close()
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Reference seconds and wall seconds from process start to first op
    ready, in fresh processes."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    cal = speed.Calibration()
    before = cal.gap()
    samples, walls = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        after = cal.gap()
        samples.append(speed.scale(elapsed, before, after))
        walls.append(elapsed)
        before = after
    return samples, walls


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs ops until about `seconds` of op time is spent, whole cycles only.

    A cycle starts only while the op time so far plus one mean cycle fits
    in the budget, and never fewer cycles run than give `min_ops` ops.
    """

    def __init__(self, wl, seconds: float, min_ops: int):
        self.wl = wl
        self.seconds = seconds
        self.min_ops = min_ops
        self.spent = 0.0
        self.ops = 0

    def more(self) -> bool:
        if self.ops % self.wl.cycle:
            return True
        if self.ops < self.min_ops:
            return True
        mean_cycle = self.spent / (self.ops / self.wl.cycle)
        return self.spent + mean_cycle <= self.seconds

    def add(self, seconds: float) -> None:
        self.spent += seconds
        self.ops += 1


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def run_untraced(wl, seconds: float, cal) -> dict:
    """Op times of every op that returned, in reference seconds and wall
    seconds; a failed check still counts as an op that took its time."""
    loop = Loop(wl, seconds, min_ops=TAIL_BEYOND + 1)  # enough for op_tail_s
    times, walls, problems, populations = [], [], [], 0
    before = cal.gap()
    while loop.more():
        inp = wl.next_input()
        try:
            raw, elapsed = timed(wl.run, inp)
        except Exception as exc:  # an op that raises is a failed op
            loop.add(0.0)
            problems.append({"op": loop.ops - 1, "problems": [f"raised {exc!r}"]})
            before = cal.gap()
            continue
        after = cal.gap()
        loop.add(elapsed)
        times.append(speed.scale(elapsed, before, after))
        walls.append(elapsed)
        before = after
        populations += wl.populations(inp)
        found = wl.check(inp, wl.output(inp, raw))
        if found:
            problems.append({"op": loop.ops - 1, "problems": found})
    return {"times": times, "walls": walls, "populations": populations,
            "attempted": loop.ops, "failed": len(problems), "problems": problems}


def run_traced(wl, seconds: float, tracer, cal) -> dict:
    """Each input once plain and once traced, alternating which goes first."""
    loop = Loop(wl, seconds, min_ops=1)
    spent = {False: 0.0, True: 0.0}  # op time, keyed by traced
    problems, angles, bytes_written = [], 0, 0
    cal.gap()
    while loop.more():
        op = loop.ops
        inp = wl.next_input()
        outputs, found, op_s = {}, [], 0.0
        try:
            for traced in ((True, False) if op % 2 else (False, True)):
                if traced:
                    tracer.op = op
                    with tracer:
                        raw, elapsed = timed(tracer.span, "op", wl.run, inp)
                else:
                    raw, elapsed = timed(wl.run, inp)
                spent[traced] += elapsed
                op_s += elapsed
                outputs[traced] = wl.output(inp, raw)
        except Exception as exc:
            found.append(f"raised {exc!r}")
        cal.gap()
        loop.add(op_s)
        if len(outputs) == 2:
            found += wl.check(inp, outputs[False])
            if wl.fingerprint(outputs[True]) != wl.fingerprint(outputs[False]):
                found.append("traced output differs from the untraced output")
            angles += wl.angles(inp)
            bytes_written += wl.bytes_written(outputs[True])
        if found:
            problems.append({"op": op, "problems": found})
    return {"plain_s": spent[False], "traced_s": spent[True], "angles": angles,
            "bytes_written": bytes_written, "attempted": loop.ops,
            "failed": len(problems), "problems": problems}


# ---------------------------------------------------------------------------
# metrics


def end_to_end(result: dict, setup: tuple[list[float], list[float]],
               cal) -> tuple[dict, dict]:
    times = result["times"]
    tail_value, tail_pct = tail(times)
    values = {
        "setup_s": statistics.median(setup[0]),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "populations_per_s": result["populations"] / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"tail_percentile": tail_pct, "ops_timed": len(times), "op_times_s": times,
            "op_wall_s": result["walls"], "wall_p50_s": statistics.median(result["walls"]),
            "setup_samples_s": setup[0], "setup_wall_s": setup[1],
            "calibrated": cal.enabled, "calibration_s": cal.gaps,
            "calibration_p50_s": cal.median(),
            ERROR_RATE: result["failed"] / result["attempted"],
            "wait_s": WAIT_S}
    return values, info


def per_layer(result: dict, tracer, cal) -> tuple[dict, dict]:
    ops = result["attempted"]
    to_reference = speed.NOMINAL_S / cal.median()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
    busy = busy_times(tracer.spans)
    values = {}
    for name in TRACED_NAMES:
        values[f"{name}.calls"] = calls.get(name, 0) / ops
        values[f"{name}.busy_s"] = busy.get(name, 0.0) * to_reference / ops
        values[f"{name}.self_s"] = self_s.get(name, 0.0) * to_reference / ops
    for name, (counter, _) in COUNTERS.items():
        key = f"{name}.{counter}"
        values[key] = tracer.counts.get(key, 0) / ops
    values["cli.bytes_written"] = result["bytes_written"] / ops
    values["spinham.to_dense_matrix.calls_per_angle"] = (
        calls.get("spinham.to_dense_matrix", 0) / result["angles"])
    values["circuit.lower_to_basis.calls_per_op"] = calls.get("circuit.lower_to_basis", 0) / ops
    values["trace.overhead_ratio"] = result["traced_s"] / result["plain_s"]
    op_s = busy.get("op", 0.0) * to_reference / ops
    info = {"absent": tracer.absent, "op_s": op_s, "spans": len(tracer.spans),
            "op_self_s": self_s.get("op", 0.0) * to_reference / ops,
            "calibrated": cal.enabled, "calibration_s": cal.gaps,
            "wait_s": WAIT_S}
    return values, info


def report_lines(values: dict, units: dict, info: dict, trace: int) -> list[str]:
    lines = []
    if trace == 0:
        for metric, value in values.items():
            note = ""
            if metric == "op_tail_s":
                note = f"  (p{info['tail_percentile']:.1f} of {info['ops_timed']} ops)"
            if metric == "op_p50_s":
                note = (f"  (wall {info['wall_p50_s']:.4g} s; calibration loop "
                        f"{1000 * info['calibration_p50_s']:.3g} ms)"
                        if info["calibrated"] else "  (wall seconds: not calibrated)")
            if metric == "setup_s":
                note = f"  (median of {len(info['setup_samples_s'])} process starts)"
            lines.append(f"  {metric:<20} {value:>14.6g} {units[metric]}{note}")
        lines.append(f"  {ERROR_RATE:<20} {info[ERROR_RATE]:>14.6g} failed/attempted")
        lines.append(f"  wait_s               {info['wait_s']}")
        return lines
    op_s = info["op_s"]
    lines.append(f"  traced op time {op_s:.4f} reference s/op; shares are busy or self "
                 f"time over it")
    for metric, value in values.items():
        share = ""
        if metric.endswith("_s"):
            share = f"  {100 * value / op_s:5.1f}%"
        if value:
            lines.append(f"  {metric:<48} {value:>12.6g} {units[metric]}{share}")
    lines.append(f"  ({sum(1 for v in values.values() if not v)} metrics read 0 and are not shown)")
    lines.append(f"  benchmark glue inside ops: {info['op_self_s']:.4g} s/op")
    if info["absent"]:
        lines.append(f"  absent (no longer defined): {', '.join(info['absent'])}")
    lines.append(f"  wait_s: {info['wait_s']}")
    return lines


# ---------------------------------------------------------------------------
# entry points


def run_one(args, blas_threads: int) -> int:
    import workloads

    setup = measure_setup(args) if args.trace == 0 else ([], [])
    wl = workloads.make(args.workload, args.seed, workdir(args.workload))
    tracer = Tracer()
    cal = speed.Calibration(enabled=wl.calibrated)
    try:
        _, warm_up_s = timed(wl.warm_up)
        cal.size_for(warm_up_s)
        if args.trace == 0:
            result = run_untraced(wl, args.seconds, cal)
        else:
            result = run_traced(wl, args.seconds, tracer, cal)
    finally:
        wl.close()
    for problem in result["problems"]:
        print(f"op {problem['op']} failed: {'; '.join(problem['problems'])}", file=sys.stderr)
    if args.trace == 0:
        if len(result["times"]) <= TAIL_BEYOND:
            print("too few ops returned; nothing to report", file=sys.stderr)
            return 1
        values, info = end_to_end(result, setup, cal)
        units = END_TO_END_UNITS
    else:
        if not result["angles"]:
            print("no op returned; nothing to report", file=sys.stderr)
            return 1
        values, info = per_layer(result, tracer, cal)
        units = per_layer_units()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record_path = args.record or str(bench_env.OUT / "runs" / f"{stem}.json")
    os.makedirs(os.path.dirname(os.path.abspath(record_path)), exist_ok=True)
    if args.trace == 1:
        spans_path = str(bench_env.OUT / "spans" / f"{stem}.jsonl")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        tracer.write(spans_path)
        info["spans_file"] = spans_path

    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": bench_env.environment(args.seed, blas_threads),
        **summary,
        "info": info,
        "problems": result["problems"],
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    env = record["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={result['attempted']} failed={result['failed']}")
    print(f"  python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas'].get('name')} {env['blas'].get('version')}, cpus {env['cpu_count']}, "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} "
          f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']}, git {env['git_sha'] or 'n/a'}")
    for line in report_lines(values, units, info, args.trace):
        print(line)
    print(f"  record: {record_path}")
    print(json.dumps(summary), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        record = bench_env.OUT / "runs" / f"all-{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--record", str(record)]
        code = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
        if code != 0:
            print(f"{name}: exit {code}")
            status = 1
            continue
        rows.append(json.loads(record.read_text()))
    for rec in rows:
        print(f"{rec['workload']}  ({rec['attempted']} ops, {rec['failed']} failed)")
        units = END_TO_END_UNITS if args.trace == 0 else per_layer_units()
        values = {k: m["value"] for k, m in rec["metrics"].items()}
        for line in report_lines(values, units, rec["info"], args.trace):
            print(line)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = bench_env.pin_blas_threads()  # before numpy loads
    if args.all:
        return run_all(args)
    bench_env.import_rpsim()
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
