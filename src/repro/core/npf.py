"""Network page fault (NPF) event records.

These are the observable artifacts of the paper's mechanism: every
fault serviced by the driver produces an :class:`NpfEvent` with its
Figure 3 breakdown, and every MMU-notifier invalidation produces an
:class:`InvalidationEvent`.  :class:`NpfLog` keeps every record;
experiments aggregate them for Figure 3 and Table 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from ..sim.stats import Summary
from .costs import InvalidationBreakdown, NpfBreakdown

__all__ = ["NpfKind", "NpfSide", "NpfEvent", "InvalidationEvent", "NpfLog"]


class NpfKind(enum.Enum):
    """Minor = page never present / reclaimed without content; major = swap read."""

    MINOR = "minor"
    MAJOR = "major"


class NpfSide(enum.Enum):
    """Which datapath hit the fault (paper §4: four concurrent classes)."""

    SEND = "send"                    # initiator read of local memory
    RECEIVE = "receive"              # responder write of incoming data
    RDMA_READ_INITIATOR = "rdma-read-initiator"
    RDMA_WRITE_RESPONDER = "rdma-write-responder"


@dataclass(slots=True)
class NpfEvent:
    """One serviced network page fault."""

    time: float
    side: NpfSide
    kind: NpfKind
    n_pages: int
    breakdown: NpfBreakdown
    channel: str = ""

    @property
    def latency(self) -> float:
        return self.breakdown.total


@dataclass(slots=True)
class InvalidationEvent:
    """One MMU-notifier-driven IOMMU invalidation."""

    time: float
    vpn: int
    was_mapped: bool
    breakdown: InvalidationBreakdown

    @property
    def latency(self) -> float:
        return self.breakdown.total


class NpfLog:
    """Accumulates every fault and invalidation event for the experiments.

    Every :class:`NpfEvent` / :class:`InvalidationEvent` is retained, so
    experiments slice them freely and compute exact percentiles.
    """

    def __init__(self):
        self.npf_events: List[NpfEvent] = []
        self.invalidation_events: List[InvalidationEvent] = []
        self.npf_count = 0
        self.minor_count = 0
        self.major_count = 0
        self.invalidation_count = 0

    def record_npf(self, event: NpfEvent) -> None:
        self.npf_count += 1
        if event.kind is NpfKind.MAJOR:
            self.major_count += 1
        else:
            self.minor_count += 1
        self.npf_events.append(event)

    def record_invalidation(self, event: InvalidationEvent) -> None:
        self.invalidation_count += 1
        self.invalidation_events.append(event)

    def latencies(self, side: Optional[NpfSide] = None) -> List[float]:
        return [
            ev.latency
            for ev in self.npf_events
            if side is None or ev.side is side
        ]

    def npf_summary(self, side: Optional[NpfSide] = None) -> Summary:
        """Latency summary of serviced NPFs, overall or for one side.

        Raises ``ValueError`` when no matching fault has been recorded.
        """
        return Summary.of(self.latencies(side))

    def invalidation_summary(self) -> Summary:
        """Latency summary of MMU-notifier invalidations."""
        return Summary.of([ev.latency for ev in self.invalidation_events])
