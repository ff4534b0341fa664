"""Summary statistics shared by the runner and the compare mode."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile): the (N - TAIL_BEYOND)-th smallest sample
    and its percentile 100 (N - TAIL_BEYOND) / N.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float | None) -> str:
    """better / worse / unchanged / unresolved for one metric on one workload.

    `parent` and `change` are per-run values, paired by position. The gain
    rule: the change wins at least nine tenths of the pairs (ties count for
    neither) and the medians differ by more than the parent's quartile
    spread. A regression: the change's median is worse than the parent's by
    more than `bound` (a share of the parent's median). When either side's
    own quartile spread exceeds the bound, the result is unresolved rather
    than unchanged, unless every change run beats every parent run.
    Metrics without a bound (per-layer) are unchanged only when every run
    of both sides reads the same.
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    beyond_spread = abs(cm - pm) > (p3 - p1)
    if pairs and beyond_spread and wins >= 0.9 * len(pairs):
        return "better"
    if bound is None:
        if pairs and beyond_spread and losses >= 0.9 * len(pairs):
            return "worse"
        if len(set(parent) | set(change)) == 1:
            return "unchanged"
        return "unresolved"
    # end-to-end metrics are never 0, so the medians can divide
    if sign * (cm - pm) / abs(pm) > bound:
        return "worse"
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"
