"""In-memory span tracing of rpsim's public functions, from outside the package.

A `Tracer` replaces each traced function with a timing wrapper in every
rpsim module namespace that binds it, so a call is recorded wherever it
is looked up (``protocols.evolve_exact``, ``protocols.compile_circuit``,
``qsim.run_density``, ``cli.resolve``, ``rpsim.yield_curve``, ...), and
puts the originals back on exit. Spans carry a name, start, end, parent
and op id; they stay in memory until the run ends.

A traced name that a later version of rpsim no longer defines is listed
in `Tracer.absent`, not treated as an error.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass

# Public functions traced per layer. `paulis` is deliberately absent: it is
# a leaf helper with no metric of its own. Hot per-gate helpers
# (qsim.gate_matrix, qsim.depolarize) are not traced because a wrapper on
# them would cost more than the work it measures.
TRACED = {
    "spinham": ("build_pauli_terms", "to_dense_matrix"),
    "circuit": ("compile", "lower_to_basis", "trotter_step"),
    "protocols": (
        "yield_curve",
        "population_trace",
        "reference_trace",
        "trotter_trace_statevector",
        "trotter_trace_density",
        "rate_sweep",
        "shot_sweep",
    ),
    "qsim": ("run_density", "sample_measurements", "electron_outcome_probabilities"),
    "refsolver": ("evolve_exact", "apply_decay", "initial_state"),
    "observables": ("singlet_yield", "anisotropy", "rescale_fit", "pearson_r"),
    "config": ("resolve", "load_config_file"),
    "cli": ("main",),
}


# Work counters: traced name -> (counter name, f(bound args, result) -> count).
# Arguments are bound by parameter name so positional and keyword calls count
# alike.
COUNTERS = {
    "qsim.run_density": ("gates_applied", lambda b, r: len(b.arguments["circuit"].gates)),
    "qsim.sample_measurements": ("shots", lambda b, r: int(b.arguments["shots"])),
    "circuit.lower_to_basis": ("gates_out", lambda b, r: len(r.gates)),
    "refsolver.evolve_exact": ("time_points", lambda b, r: len(r.times)),
    "protocols.trotter_trace_statevector": ("time_points", lambda b, r: len(r.times)),
    "protocols.trotter_trace_density": ("time_points", lambda b, r: len(r.times)),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list, None for a root
    op: int


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover.

    Children of one span may overlap (threads); their union is what is
    subtracted, clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def busy_times(spans: list[Span]) -> dict[str, float]:
    """Per name: summed duration of its spans, nested repeats counted once."""
    busy: dict[str, float] = {}
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            busy[span.name] = busy.get(span.name, 0.0) + (span.end - span.start)
    return busy


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.op = -1
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        index = len(self.spans)
        record = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
        self.spans.append(record)
        stack.append(index)
        record.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if counter:
                key = f"{name}.{counter[0]}"
                count = counter[1](signature.bind(*args, **kwargs), result)
                tracer.counts[key] = tracer.counts.get(key, 0) + count
            return result

        return traced

    # -- patching ---------------------------------------------------------
    def __enter__(self):
        import importlib

        modules = {}
        for mod in TRACED:
            try:
                modules[mod] = importlib.import_module(f"rpsim.{mod}")
            except ImportError:
                modules[mod] = None
        namespaces = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "rpsim" or key.startswith("rpsim."))
        ]
        self.absent = []
        for name in TRACED_NAMES:
            mod, fn_name = name.split(".")
            original = getattr(modules[mod], fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patched.append((namespace, attr, original))
                        setattr(namespace, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()
        return False

    # -- output -----------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "op": span.op,
                }) + "\n")
