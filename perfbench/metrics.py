"""Arithmetic shared by the benchmark: medians, tail percentiles,
rung summaries and run-to-run spread.  Standard library only."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for a tail, lowest first.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# A tail percentile needs at least this many samples strictly beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence, or None when it is empty."""
    return statistics.median(values) if values else None


def tail(values):
    """Highest percentile of TAIL_PERCENTILES with at least
    TAIL_MIN_BEYOND samples beyond it, by the nearest-rank rule.

    Returns (percentile, value), or None when even the median has
    fewer than TAIL_MIN_BEYOND samples above it.
    """
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            best = (p, xs[rank - 1])
    return best


def mean(values):
    """Mean of a non-empty sequence, or None when it is empty."""
    return statistics.fmean(values) if values else None


def rung_summary(samples):
    """Summarise one rung from (seconds, ok) samples.

    Timing uses successful samples only, so a rung that starts to
    succeed after a fix does not read as a slowdown.  A rung with no
    success has median and mean None and reports its failure count.
    """
    good = [s for s, ok in samples if ok]
    t = tail(good)
    return {
        "median_s": median(good),
        "mean_s": mean(good),
        "tail": None if t is None else {"percentile": t[0], "value_s": t[1]},
        "samples": len(good),
        "failures": len(samples) - len(good),
    }


def pass_summary(per_op):
    """Summarise a rung timed as one pass over several operations, from
    each operation's (seconds, ok) samples.

    The pass time is the sum of the operations' median (or mean) times
    over their successful samples.  It is None when some operation
    never succeeded.
    """
    good = [[s for s, ok in samples if ok] for samples in per_op]
    done = all(good)
    return {
        "median_s": sum(median(g) for g in good) if done else None,
        "mean_s": sum(mean(g) for g in good) if done else None,
        "tail": None,
        "samples": min(len(g) for g in good),
        "failures": sum(len(samples) - len(g) for samples, g in zip(per_op, good)),
    }


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
