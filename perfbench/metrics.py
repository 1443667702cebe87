"""Arithmetic of the perfbench metrics: percentiles, ratios, due-time
latency, and the grouping of span self times into layers. Pure functions,
covered by test_perfbench.py. The span self times themselves come from
the engine's trace report (trace::buildReport, via hotg-bench-replay).
"""

import math

# A percentile is reported only when at least this many samples lie beyond
# it; with fewer, the tail is too thin for the figure to repeat.
MIN_TAIL = 10


def percentile(values, p):
    """Nearest-rank percentile (0 < p <= 100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, p):
    """How many of `count` samples rank after the nearest-rank p-th one."""
    return count - max(1, math.ceil(p / 100.0 * count))


def tail_percentile(values, p, min_tail=MIN_TAIL):
    """The p-th percentile, or None when fewer than `min_tail` samples lie
    beyond it."""
    if not values or samples_beyond(len(values), p) < min_tail:
        return None
    return percentile(values, p)


def min_samples_for(p, min_tail=MIN_TAIL):
    """Smallest sample count for which `tail_percentile(.., p)` reports."""
    n = 1
    while samples_beyond(n, p) < min_tail:
        n += 1
    return n


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def ratio(numerator, denominator):
    """numerator / denominator, defined as 0 when the base is empty (a
    layer that did no work reads zero, not NaN)."""
    return numerator / denominator if denominator else 0.0


def median_rate(work, ns, keys):
    """Work per second of one pass over the distinct jobs, each at its
    median wall: sum over jobs of median work / sum over jobs of median
    wall (ns). `work`, `ns` and `keys` give each sample's work, wall and
    job. A job's median wall ignores the rare samples a host stall
    stretched several-fold, which a plain sum(work) / sum(wall) charges in
    full."""
    by_job = {}
    for w, t, k in zip(work, ns, keys):
        works, walls = by_job.setdefault(k, ([], []))
        works.append(w)
        walls.append(t)
    return ratio(sum(median(w) for w, _ in by_job.values()),
                 sum(median(t) for _, t in by_job.values()) / 1e9)


def due_time_latencies(due, received):
    """Open-loop latency of each job: from when it was due to be sent (not
    when it was sent) to when its answer arrived, so a stalled generator or
    daemon charges its wait to every job queued behind it."""
    return [r - d for d, r in zip(due, received)]


def lateness(due, sent):
    """How late the generator sent each job (never negative)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def backlog_grew(outstanding, min_jobs=4):
    """True when the answers outstanding at send time trend upward: the
    mean over the last third exceeds the first third's by more than
    `min_jobs` jobs."""
    if len(outstanding) < 3:
        return False
    third = len(outstanding) // 3
    first = sum(outstanding[:third]) / third
    last = sum(outstanding[-third:]) / third
    return last - first > min_jobs


# ---------------------------------------------------------------------------
# Spans


# Engine span names grouped into the benchmark's layers.
LAYER_SPANS = {
    "search": ("search.run", "search.seed", "search.candidate", "search.test",
               "search.dispatch", "search.replica_rebuild",
               "search.worker_job"),
    "validity": ("validity.check",),
    "smt": ("solver.check",),
    "exec": ("vm.exec", "dse.execute"),
    "par": ("search.await",),
}


def layer_self_ms(totals):
    """Group per-span-name self times (ns) into layers (ms). Names outside
    LAYER_SPANS land in `other` so nothing is silently dropped."""
    known = {n: layer for layer, names in LAYER_SPANS.items() for n in names}
    layers = {layer: 0.0 for layer in LAYER_SPANS}
    layers["other"] = 0.0
    for name, ns in totals.items():
        layers[known.get(name, "other")] += ns / 1e6
    return layers
