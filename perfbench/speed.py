"""Host-speed calibration: op times in reference seconds.

The reference box is a 2-core share of a busy host. The same code runs up to
1.5-2 times as slow from one minute to the next there, and CPU time tracks
wall time through it, so the slowdown is the host's speed, not time spent
descheduled. A run that lands in a slow spell would read as a regression of
the program.

So every run also times a fixed calibration loop between ops. The loop is
independent of rpsim, so no change to rpsim can move it, but it does the
same kinds of work rpsim's ops do: an interpreter-bound dict loop, and
numpy on small complex matrices (eigh, a phase table, an einsum contraction,
as in the exact solver). Of the loops tried (interpreter alone, numpy alone,
scipy expm, matmul mixes, memory streaming) this mix tracked the op times of
all four workloads best. An op's time in reference seconds is its wall time
times NOMINAL_S over the mean of the calibration times measured just before
and just after it: the time the op would take on a machine where the loop
takes exactly NOMINAL_S. Raw wall times stay in the run record.

A workload whose ops do not follow the loop turns it off (its `calibrated`
attribute) and reports wall seconds: `noisy_curve` streams tens of MB of
step superoperators per op, so its time is bound by memory, which the
host's swings in compute speed barely touch. Over ten runs its median op
wall time spread 0.07 of the median while the loop's own median spread
0.23, so rescaling it added noise instead of removing it.

numpy is imported on first use, so that importing this module does not load
numpy before the BLAS thread count is pinned.
"""

from __future__ import annotations

import math
import statistics
import time

DICT_ITERATIONS = 12_500
NUMPY_REPEATS = 3
NOMINAL_S = 0.010  # the loop's time on the reference machine; 8-15 ms on the box
SHARE = 0.10  # calibration time between ops, as a share of one op's time
MIN_REPEATS = 3

_arrays = None


def _numpy_arrays():
    global _arrays
    if _arrays is None:
        import numpy as np

        rng = np.random.default_rng(0)
        h = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        proj = np.diag(rng.standard_normal(32)).astype(complex)
        _arrays = (np, h + h.conj().T, np.linspace(0.0, 1.0, 400), proj)
    return _arrays


def loop() -> float:
    counts: dict[int, int] = {}
    for i in range(DICT_ITERATIONS):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
    np, h, times, proj = _numpy_arrays()
    total = 0.0
    for _ in range(NUMPY_REPEATS):
        evals, evecs = np.linalg.eigh(h)
        coeff = np.exp(-1j * np.outer(times, evals)) * evecs[0]
        total += np.einsum("ta,ab,tb->t", coeff.conj(), proj, coeff).real.sum()
    return total + len(counts)


def time_loop() -> float:
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


class Calibration:
    """Times the calibration loop in the gaps between ops.

    `repeats` loops make one gap sample, their median; `size_for` sets it so
    a gap costs about SHARE of one op. A disabled calibration times nothing
    and reads NOMINAL_S, so `scale` leaves wall times as they are.
    """

    def __init__(self, repeats: int = MIN_REPEATS, enabled: bool = True):
        self.repeats = repeats
        self.enabled = enabled
        self.gaps: list[float] = []

    def size_for(self, op_s: float) -> None:
        if self.enabled:
            one = statistics.median(time_loop() for _ in range(MIN_REPEATS))
            self.repeats = max(MIN_REPEATS, math.ceil(SHARE * op_s / one))

    def gap(self) -> float:
        if not self.enabled:
            return NOMINAL_S
        sample = statistics.median(time_loop() for _ in range(self.repeats))
        self.gaps.append(sample)
        return sample

    def median(self) -> float:
        """The run's median gap sample: NOMINAL_S when disabled."""
        return statistics.median(self.gaps) if self.gaps else NOMINAL_S


def scale(wall_s: float, before_s: float, after_s: float) -> float:
    """Wall time in reference seconds, given the gap samples around it."""
    return wall_s * NOMINAL_S / ((before_s + after_s) / 2)
