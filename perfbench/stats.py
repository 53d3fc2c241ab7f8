"""Statistics and report helpers of the benchmark of record.

Everything here is pure Python over lists of numbers, so it is covered by
perfbench/test_perfbench.py without building anything.
"""

import json
import math
import statistics

# Fewest samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples beyond it."""


def samples_beyond(n, p):
    """Samples strictly beyond the nearest-rank p-th percentile of n samples."""
    rank = math.ceil(p * n / 100) if n else 0
    return n - rank


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p < 100).

    Refuses (TooFewSamples) unless at least MIN_BEYOND samples lie beyond
    it: a p95 needs 200 samples, a median 20.
    """
    if not 0 < p < 100:
        raise ValueError("percentile must be in (0, 100): %r" % p)
    n = len(values)
    beyond = samples_beyond(n, p)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            "p%g of %d samples has %d beyond it, needs %d"
            % (p, n, beyond, MIN_BEYOND))
    ordered = sorted(values)
    return ordered[math.ceil(p * n / 100) - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def iqr_share(values):
    """Interquartile distance as a share of the median (the spread rule)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def self_times(spans):
    """Total self time in ns per span name.

    A span's self time is its duration minus the part of it that its
    child spans cover (children of one span never overlap here: the
    benchmark calls layers one after another).
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    out = {}
    for i, s in enumerate(spans):
        own = s["end_ns"] - s["start_ns"] - child_ns[i]
        out[s["name"]] = out.get(s["name"], 0) + own
    return out


def result_line(correct, attempted, failed, metrics):
    """The contract's last stdout line: exactly these four keys."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=False)


def parse_result_line(line):
    """Inverse of result_line (for tests and tooling)."""
    obj = json.loads(line)
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys: %s" % sorted(obj))
    metrics = {name: (m["value"], m["unit"]) for name, m in obj["metrics"].items()}
    return obj["correct"], obj["attempted"], obj["failed"], metrics
