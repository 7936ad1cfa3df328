"""Measurement helpers: percentile summaries, time series and rate meters.

The experiment harness reports the same rows/series the paper does;
these classes are the common vocabulary it uses to collect them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = [
    "percentile",
    "Summary",
    "TimeSeries",
    "RateMeter",
]


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples`` (pct in [0, 100])."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile out of range: {pct!r}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


@dataclass
class Summary:
    """Five-number-style summary of a latency sample set."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float
    minimum: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Summary":
        if not samples:
            raise ValueError("summary of empty sample set")
        return cls(
            count=len(samples),
            mean=sum(samples) / len(samples),
            p50=percentile(samples, 50),
            p95=percentile(samples, 95),
            p99=percentile(samples, 99),
            maximum=max(samples),
            minimum=min(samples),
        )


class TimeSeries:
    """An append-only (time, value) series."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError("time series must be recorded in order")
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> List[float]:
        return list(self._times)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def points(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def mean_between(self, t0: float, t1: float) -> float:
        """Mean of values with t0 <= time < t1 (0.0 if none)."""
        window = [v for t, v in zip(self._times, self._values) if t0 <= t < t1]
        return sum(window) / len(window) if window else 0.0


class RateMeter:
    """Converts discrete completions into a per-interval rate series.

    Call :meth:`mark` on each completion (optionally weighted, e.g. by
    bytes); :meth:`flush` at interval boundaries appends
    ``count / interval`` to the underlying series.
    """

    def __init__(self, name: str = "", interval: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.series = TimeSeries(name)
        self.interval = interval
        self._accumulated = 0.0

    def mark(self, weight: float = 1.0) -> None:
        self._accumulated += weight

    def flush(self, now: float) -> float:
        rate = self._accumulated / self.interval
        self.series.record(now, rate)
        self._accumulated = 0.0
        return rate
