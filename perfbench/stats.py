"""The benchmark's own arithmetic, kept apart so `test_stats.py` can pin it."""

import math
import statistics

# A tail percentile is reported only where at least this many samples lie
# beyond it, so one outlier cannot set it.
TAIL_BEYOND = 10


def quantile(values, q):
    """Nearest-rank quantile: the smallest value with at least `q` of the
    samples at or below it. Infinite values sort last."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    k = max(0, math.ceil(q * len(ordered) - 1e-9) - 1)
    return ordered[min(k, len(ordered) - 1)]


def tail(values, want=0.99, beyond=TAIL_BEYOND):
    """`(quantile, value)` of the highest quantile up to `want` that leaves
    at least `beyond` samples above it, or None when there are too few."""
    n = len(values)
    if n <= beyond:
        return None
    # Index arithmetic, not float quantiles: 0.975 * 400 must not round up
    # past the rank that still leaves `beyond` samples above it.
    k = min(math.ceil(want * n - 1e-9) - 1, n - beyond - 1)
    return (k + 1) / n, sorted(values)[k]


def slowdowns(pairs):
    """DieHard / glibc wall-time ratios of `(glibc_s, diehard_s, ok)` jobs.
    A failed job counts as infinitely slow, so failures can only raise
    the percentiles taken from this list, never drop out of it."""
    return [dh / gl if ok else math.inf for gl, dh, ok in pairs]


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, as `statistics.quantiles(values, n=4)` gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children count once).

    `spans` maps id -> {"start", "end", "parent"}; returns id -> seconds.
    """
    children = {}
    for sid, s in spans.items():
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for sid, s in spans.items():
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(sid, []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (s["end"] - s["start"]) - covered
    return out


def open_loop_latencies(records):
    """Latency of each open-loop request from the moment it was due, not
    from when the generator got round to sending it: a stall that delays
    the generator delays every request due during it, and that wait is
    counted. `records` hold `due` and `end` in the same time unit."""
    return [r["end"] - r["due"] for r in records]


def generator_lag(records):
    """How late the generator opened each request after it was due."""
    return [r["start"] - r["due"] for r in records]
