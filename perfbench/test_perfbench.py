"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import bench_env

bench_env.import_rpsim()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import rpsim  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, busy_times, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent


def canonical(inp: dict) -> str:
    """JSON text of an op's inputs; arrays by value, systems by content hash."""
    def encode(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, rpsim.RadicalPairSystem):
            return value.content_hash()
        raise TypeError(type(value))
    return json.dumps(inp, default=encode, sort_keys=True)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_op_is_bit_identical_to_untraced(name, tmp_path):
    wl = workloads.make(name, 7, str(tmp_path / "work"))
    try:
        for _ in range(wl.cycle):  # every case of a cycle
            inp = wl.next_input()
            plain = wl.output(inp, wl.run(inp))
            tracer = tracing.Tracer()
            with tracer:
                traced = wl.output(inp, tracer.span("op", wl.run, inp))
            assert wl.fingerprint(traced) == wl.fingerprint(plain)
            assert len(tracer.spans) > 1 and tracer.absent == []
            assert wl.check(inp, plain) == []
    finally:
        wl.close()
    # the wrappers are gone again
    assert not hasattr(rpsim.protocols.evolve_exact, "__wrapped__")
    assert not hasattr(rpsim.yield_curve, "__wrapped__")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_same_inputs_and_outputs(name, tmp_path):
    # one work directory: CLI sidecars record their output paths
    first = workloads.make(name, 11, str(tmp_path / "a"))
    second = workloads.make(name, 11, str(tmp_path / "a"))
    other = workloads.make(name, 12, str(tmp_path / "c"))
    try:
        a = [first.next_input() for _ in range(4)]
        b = [second.next_input() for _ in range(4)]
        c = [other.next_input() for _ in range(4)]
        assert [canonical(x) for x in a] == [canonical(x) for x in b]
        assert canonical(a[0]) != canonical(c[0])
        # no op repeats another op's inputs
        assert len({canonical(x) for x in a}) == len(a)
        if name == "cli_reference":  # the config file holds the latest input
            out_a = first.output(a[-1], first.run(a[-1]))
            out_b = second.output(b[-1], second.run(b[-1]))
            inputs = a[-1]
        else:
            out_a, out_b = first.run(a[0]), second.run(b[0])
            inputs = a[0]
        assert first.fingerprint(out_a) == second.fingerprint(out_b)
        assert first.check(inputs, out_a) == []
    finally:
        for wl in (first, second, other):
            wl.close()


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        # overlapping children (as from two threads) and one running past
        # its parent's end
        Span("p", 20.0, 30.0, None, 1),
        Span("x", 21.0, 25.0, 4, 1),
        Span("y", 23.0, 27.0, 4, 1),
        Span("z", 29.0, 32.0, 4, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 3.0, 4.0, 4.0, 3.0])


def test_busy_time_counts_nested_repeats_once():
    spans = [
        Span("f", 0.0, 10.0, None, 0),
        Span("g", 1.0, 6.0, 0, 0),
        Span("f", 2.0, 5.0, 1, 0),
        Span("f", 12.0, 13.0, None, 1),
    ]
    assert busy_times(spans) == pytest.approx({"f": 11.0, "g": 5.0})


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert stats.tail(range(1, 21)) == (10, 50.0)
    value, pct = stats.tail([5.0] * 10 + [1.0])
    assert (value, pct) == (1.0, pytest.approx(100 / 11))
    with pytest.raises(ValueError):
        stats.tail(range(10))


def test_reference_seconds_rescale_by_the_calibration_loop():
    nominal = speed.NOMINAL_S
    assert speed.scale(0.5, nominal, nominal) == pytest.approx(0.5)
    # the loop ran twice as slow around the op: the host was slow, not the op
    assert speed.scale(1.0, 2 * nominal, 2 * nominal) == pytest.approx(0.5)
    assert speed.scale(1.0, nominal, 3 * nominal) == pytest.approx(0.5)
    cal = speed.Calibration()
    assert cal.gap() > 0 and len(cal.gaps) == 1


def test_verdict_rules():
    rng = np.random.default_rng(0)
    parent = list(1.0 + 0.01 * rng.standard_normal(10))
    assert stats.verdict(parent, [x * 0.8 for x in parent], "lower", 0.1) == "better"
    assert stats.verdict(parent, [x * 1.3 for x in parent], "lower", 0.1) == "worse"
    assert stats.verdict(parent, [x * 1.3 for x in parent], "higher", 0.1) == "better"
    assert stats.verdict(parent, list(reversed(parent)), "lower", 0.1) == "unchanged"
    wide = [0.5, 1.5] * 5
    assert stats.verdict(wide, list(reversed(wide)), "lower", 0.1) == "unresolved"
    assert stats.verdict([3.0] * 10, [3.0] * 10, "lower", None) == "unchanged"


def test_benchmark_json_matches_the_runner():
    spec = json.loads((bench_env.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(bench_env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shot_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_runner_prints_every_end_to_end_metric(tmp_path):
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "trotter_curve", "--seed", "3",
         "--seconds", "0.1", "--trace", "0", "--record", str(record)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == stats.TAIL_BEYOND + 1
    assert set(summary["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert json.loads(record.read_text())["environment"]["blas_threads"] >= 1
