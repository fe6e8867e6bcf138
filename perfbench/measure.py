"""Sample statistics and the stopping rule of time-bounded loops."""

from __future__ import annotations

import math
import statistics


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile, p in (0, 100]."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def half_drift(samples) -> float | None:
    """|median(first half) - median(second half)| / median(all): how far
    the machine's speed moved during a run.  Recorded with each result."""
    if len(samples) < 2:
        return None
    half = len(samples) // 2
    middle = statistics.median(samples)
    if middle == 0:
        return 0.0
    first = statistics.median(samples[:half])
    second = statistics.median(samples[half:])
    return abs(first - second) / middle


def keep_going(samples, elapsed: float, seconds: float, min_samples: int) -> bool:
    return len(samples) < min_samples or elapsed < seconds
