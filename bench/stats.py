"""Latency summaries: a median plus the highest percentile the sample
supports (at least ten samples beyond it), always with the count."""

from __future__ import annotations

import math

LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(len(sorted_values) * p / 100.0))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with >= MIN_BEYOND of ``n`` samples
    strictly beyond its nearest-rank position; ``None`` under 40."""
    for p in LADDER:
        if n - math.ceil(n * p / 100.0) >= MIN_BEYOND:
            return p
    return None


def summary(samples_ms: list[float]) -> dict:
    s = sorted(samples_ms)
    out = {"n": len(s), "p50_ms": percentile(s, 50.0)}
    tail = tail_percentile(len(s))
    if tail is not None:
        out["tail_pct"] = tail
        out["tail_ms"] = percentile(s, tail)
    return out
