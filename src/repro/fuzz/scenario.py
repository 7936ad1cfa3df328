"""The fuzzer's scenario model: a JSON-serializable workload description.

A :class:`Scenario` is everything the executor needs to build a testbed
and replay a workload deterministically: the fabric, the pinning mode,
per-channel shapes, an op list and a fault-injection plan.  Replay files
written by the shrinker embed exactly this dictionary form, so a
minimized failure reproduces bit-for-bit on any checkout with the same
substrate semantics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List

from ..sim.units import PAGE_SIZE

__all__ = ["ChannelSpec", "Op", "FaultPlan", "Scenario", "TRAFFIC_OPS", "ENV_OPS"]

#: Traffic ops move IOuser-visible data; they run in BOTH the NPF run
#: and the static-pinning oracle run.
TRAFFIC_OPS = ("burst", "send_back", "ib_send", "ib_write", "ib_read", "ud_send")

#: Environment ops perturb the substrate rather than moving IOuser
#: data.  Memory perturbations (MMU-notifier invalidation storms, swap
#: pressure) are skipped by non-NPF runs — pinned memory cannot be
#: invalidated or reclaimed — and the IOuser-visible trace must match
#: anyway.  ``pause`` is a *network* perturbation (802.3x PAUSE on the
#: ingress link) that is mode-independent, so it runs in both the NPF
#: run and the static-pinning oracle run.
ENV_OPS = ("invalidate", "hog", "settle", "pause")


@dataclass
class ChannelSpec:
    """One IOchannel: an Ethernet ring, an RC queue pair or a UD endpoint."""

    kind: str = "eth"            # "eth" | "rc" | "ud"
    ring_size: int = 16          # eth: rx descriptors posted
    bm_factor: int = 4           # eth: fault bitmap = bm_factor * ring_size
    buffer_size: int = PAGE_SIZE  # eth: rx buffer bytes
    heap_pages: int = 32         # TX source heap (eth) / DMA target region (ib)
    max_outstanding: int = 8     # rc: send window
    rnr_for_reads: bool = False  # rc: §4 extension — RNR-NACK faulting reads
    ud_buffered: bool = True     # ud: buffered_fallback instead of dropping


@dataclass
class Op:
    """One workload step.  Which fields matter depends on ``kind``.

    ``channel`` is an index into ``Scenario.channels``; environment-wide
    ops (``hog``, ``settle``) use ``channel = -1`` and run on their own
    sequential stream, concurrent with every per-channel stream.
    """

    kind: str
    channel: int = 0
    count: int = 1       # packets / work requests
    size: int = 1024     # bytes per packet / WR
    gap_us: float = 2.0  # inter-send gap
    pages: int = 4       # invalidate / hog extent (pages)
    offset: int = 0      # invalidate: page offset into the target region
    target: str = "pool"  # invalidate: "pool" | "heap" | "next"
    ms: float = 1.0      # settle: duration


@dataclass
class FaultPlan:
    """Injected faults layered on top of the scenario's organic ones."""

    delay_p: float = 0.0    # P(an NPF resolution is delayed)
    delay_ms: float = 0.0   # extra resolution latency when delayed
    rnr_limit: int = 0      # >0: cap MAX_RNR_RETRIES on sender QPs

    def active(self) -> bool:
        return (self.delay_p > 0.0 and self.delay_ms > 0.0) or self.rnr_limit > 0


@dataclass
class Scenario:
    """A complete, self-contained fuzz case."""

    seed: int = 0
    fabric: str = "eth"        # "eth" | "ib"
    mode: str = "npf"          # "static" | "pdc" | "npf"
    #: topology axis (ib only): 0 = back-to-back pair, N > 0 = N senders
    #: through one switch port (the rack fabric, uncapped egress ports).
    n_senders: int = 0
    #: random loss on the congested switch->receiver downlink (percent);
    #: > 0 enables RC loss recovery on every QP.
    loss_pct: float = 0.0
    retransmit: str = "gbn"    # rc loss recovery: "gbn" | "irn"
    rx_policy: str = "backup"  # eth npf channels: "backup" | "drop"
    coalesce_faults: bool = False
    swap_burst: bool = False
    warm_iotlb: bool = False
    backup_size: int = 64      # IOprovider backup ring (eth)
    memory_mb: int = 16        # server physical memory (swap pressure knob)
    pdc_capacity_pages: int = 16  # pin-down cache capacity (mode "pdc")
    channels: List[ChannelSpec] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)
    faults: FaultPlan = field(default_factory=FaultPlan)

    # -- semantics -------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True when the scenario may *legitimately* lose traffic.

        Degraded scenarios are checked against graceful-degradation
        invariants (ordering of what survives, drop accounting, error
        completions, no crash) instead of differential equivalence:
        the drop rx-policy, unbuffered UD and injected faults all lose
        data by design, and a backup ring smaller than the worst-case
        faulting burst may overflow.
        """
        if self.faults.active():
            return True
        if self.loss_pct > 0.0:
            # Loss recovery makes RC reliable again, but the loss RNG
            # draws at delivery time: the NPF run and the oracle see
            # different packet interleavings, so different drop
            # patterns — timing-adjacent counters may not match.
            return True
        if self.fabric == "eth" and self.mode == "npf":
            if self.rx_policy == "drop":
                return True
            worst_burst = sum(
                c.ring_size for c in self.channels if c.kind == "eth"
            )
            if self.backup_size < worst_burst:
                return True
        if self.fabric == "ib" and self.mode == "npf":
            if any(c.kind == "ud" and not c.ud_buffered for c in self.channels):
                return True
        return False

    def oracle(self) -> "Scenario":
        """The static-pinning twin this scenario is compared against.

        Same channels, same traffic ops; pinning mode forced to static,
        NPF knobs and injected faults cleared.  Environment ops are kept
        in the op list (the executor skips them for non-NPF modes) so op
        indices line up between the two runs.
        """
        twin = Scenario.from_dict(self.to_dict())
        twin.mode = "static"
        twin.rx_policy = "backup"
        twin.coalesce_faults = False
        twin.swap_burst = False
        twin.warm_iotlb = False
        twin.faults = FaultPlan()
        return twin

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        data = dict(data)
        data["channels"] = [ChannelSpec(**c) for c in data.get("channels", [])]
        data["ops"] = [Op(**o) for o in data.get("ops", [])]
        data["faults"] = FaultPlan(**data.get("faults", {}))
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))
