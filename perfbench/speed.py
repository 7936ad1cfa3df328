"""The box's speed, measured while a pass runs.

On a shared VM the speed of the whole box moves between a fast and a
slow regime, by up to about ±20%, and a regime can last longer than a
run.  Every piece of pure-Python code slows down alike, so the benchmark
times a fixed reference loop while it measures and scales each measured
time to a nominal box speed:

    scaled = measured * REFERENCE_S / median(reference loop times)

``REFERENCE_S`` is what one reference loop takes on the nominal box, so
a scaled time is the seconds the same work would take there.  The loop
is the benchmark's own code and no change to the program touches it.
"""

from __future__ import annotations

import signal
import statistics
import time
from types import FrameType
from typing import List, Optional

__all__ = ["REFERENCE_S", "reference", "Sampler"]

#: Seconds one reference loop takes at nominal speed (about the median
#: on the 2-core VM the benchmark was built on).
REFERENCE_S = 1e-3
#: Wall time between two reference loops while a :class:`Sampler` runs.
INTERVAL_S = 0.05


def reference() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i % 7
    return time.perf_counter() - start


class Sampler:
    """Times :func:`reference` every ``INTERVAL_S`` of wall time, from a
    ``SIGALRM`` handler, while the block it guards runs (and once on
    entry and once on exit).  The loops add about 2% to the block's wall
    time, at any speed."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def __enter__(self) -> "Sampler":
        self.samples.append(reference())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(reference())

    def _sample(self, signum: int, frame: Optional[FrameType]) -> None:
        self.samples.append(reference())

    def scale(self) -> float:
        """Factor that turns a time measured in the block into nominal
        seconds."""
        return REFERENCE_S / statistics.median(self.samples)
