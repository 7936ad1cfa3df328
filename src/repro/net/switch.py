"""Output-queued switch: per-port occupancy, optional tail-drop and PFC.

Used for the InfiniBand cluster topology (the paper's SwitchX-2) and
for demonstrating *congestion spreading*: when a receiver's port backs
up, PAUSE-based flow control stalls the switch's own upstream ports,
throttling unrelated flows — precisely the behaviour the paper's §3
"stream isolation" requirement forbids as an rNPF solution.

Every attached link is an egress port that tracks its own occupancy
(packets admitted but not yet delivered at the far end).  Two settings
choose the discipline:

* **best effort** (``pfc=None``) — ``egress_queue=N`` *drops* packets
  beyond ``N`` per port: a lossy Ethernet fabric, the substrate for the
  go-back-N vs IRN retransmit comparison.  ``egress_queue=None`` (the
  default) sets no cap; only the egress link's own buffer bounds the
  queue, which is sized to fit, so nothing is dropped.
* **PFC** (``egress_queue=N`` + ``pfc=PfcConfig(...)``) — per-priority
  PAUSE with hysteresis: when a port's occupancy for priority *p*
  crosses ``xoff``, PFC PAUSE frames go to every registered upstream for
  that port (a neighbouring switch's egress port, or a host uplink via
  :meth:`Switch.link_pause_handle`); the pause lifts once occupancy
  drains to ``xon``.  Admission is never refused — the fabric is
  lossless — so sustained incast *spreads* the pause upstream instead of
  dropping (and, on cyclic topologies, exhibits PFC's well-known
  congestion-tree pathologies, though never deadlock: forwarding
  progress is unconditional, only injection throttles).

A paused priority stages packets in a per-priority FIFO inside the
egress port; other priorities keep flowing on the wire.  Only when
*every* priority seen on a port is paused does the port pause the
underlying :class:`~repro.net.link.Link` itself — splitting an active
burst train at a packet boundary, the same datapath a plain 802.3x
PAUSE exercises.  In-flight packets of a paused priority that were
already committed to the wire finish normally (real PFC has the same
one-MTU-plus-cable slack, which is what the xoff/xon headroom is for).
Both PAUSE and its release are driven by admit and delivery events, so
a pause always lifts once its port drains; nothing has to poll.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set

from ..sim.engine import Environment
from .link import Link
from .packet import Packet

__all__ = ["Switch", "PfcConfig"]


@dataclass(frozen=True, slots=True)
class PfcConfig:
    """Per-priority PAUSE thresholds (packets of occupancy per port).

    ``xoff`` asserts the pause, ``xon`` releases it; the gap between
    them is the hysteresis band that stops a port at the threshold from
    flapping pause/resume on every packet.
    """

    xoff: int
    xon: int

    def __post_init__(self) -> None:
        if self.xoff <= 0:
            raise ValueError("pfc xoff must be positive")
        if not 0 <= self.xon < self.xoff:
            raise ValueError("pfc requires 0 <= xon < xoff (hysteresis)")


class _LinkPauseHandle:
    """Per-priority pause facade over a plain host uplink.

    A host NIC has one cable and no priority queues, so any paused
    priority pauses the whole link; it resumes once no priority is
    paused.  ``pause``/``resume`` return True when a PFC frame was
    actually emitted (a state transition), which is what the switch's
    pause-storm counters count; stalling the cable itself is what
    :attr:`Switch.upstream_pauses` counts.
    """

    __slots__ = ("switch", "link", "_paused")

    def __init__(self, switch: "Switch", link: Link):
        self.switch = switch
        self.link = link
        self._paused: Set[int] = set()

    def pause(self, priority: int) -> bool:
        if priority in self._paused:
            return False
        if not self._paused:
            self.link.pause()
            self.switch.upstream_pauses += 1
        self._paused.add(priority)
        return True

    def resume(self, priority: int) -> bool:
        if priority not in self._paused:
            return False
        self._paused.discard(priority)
        if not self._paused:
            self.link.resume()
        return True


class _EgressPort:
    """One egress port: occupancy, tail-drop, staging, PAUSE.

    Occupancy counts packets admitted but not yet delivered at the far
    end of the egress link (queue + wire).  ``capacity`` is the
    tail-drop cap (``None``: uncapped; always ``None`` under PFC, which
    never refuses admission).  The port is both a *source* of PFC
    frames (``_check_xoff`` on admit, XON on delivery) and a *target*
    (``pause``/``resume`` called by its downstream switch).
    """

    __slots__ = ("switch", "link", "capacity", "pfc", "peer", "occ",
                 "occ_total", "staged", "asserted", "paused_in", "seen",
                 "upstreams")

    def __init__(self, switch: "Switch", link: Link,
                 capacity: Optional[int], pfc: Optional[PfcConfig]):
        self.switch = switch
        self.link = link
        self.capacity = capacity if pfc is None else None
        self.pfc = pfc
        #: far-end node name, recovered from the ``a->b`` link name
        self.peer = link.name.split("->", 1)[1] if "->" in link.name \
            else link.name
        self.occ: Dict[int, int] = {}
        self.occ_total = 0
        #: per-priority FIFOs holding packets whose priority is paused
        self.staged: Dict[int, Deque[Packet]] = {}
        #: priorities we have XOFF'd our upstreams for
        self.asserted: Set[int] = set()
        #: priorities our downstream has XOFF'd us for
        self.paused_in: Set[int] = set()
        #: priorities ever transmitted through this port
        self.seen: Set[int] = set()
        self.upstreams: List = []

    # -- datapath ----------------------------------------------------------
    def admit(self, packet: Packet) -> bool:
        prio = packet.priority
        cap = self.capacity
        if cap is not None and self.occ_total >= cap:
            return False  # lossy fabric: tail-drop at the egress queue
        self.seen.add(prio)
        if prio in self.paused_in:
            self.occ_total += 1
            self.occ[prio] = self.occ.get(prio, 0) + 1
            self.staged.setdefault(prio, deque()).append(packet)
        else:
            if not self.link.send(packet):
                return False  # egress link buffer overflow (sized to fit)
            self.occ_total += 1
            self.occ[prio] = self.occ.get(prio, 0) + 1
        if self.pfc is not None:
            self._check_xoff(prio)
        return True

    def make_delivery(self) -> Callable[[Packet], None]:
        """Wrap the link's connected receiver with occupancy accounting.

        Must be installed after ``link.connect`` — it captures the real
        far-end receiver.
        """
        inner = self.link._receiver
        if inner is None:
            raise RuntimeError(
                f"egress {self.link.name!r}: connect the link before "
                "attaching it to a switch")

        def deliver(packet: Packet, _inner=inner, _port=self) -> None:
            _port.on_delivered(packet)
            _inner(packet)

        return deliver

    def on_delivered(self, packet: Packet) -> None:
        prio = packet.priority
        self.occ_total -= 1
        self.occ[prio] -= 1
        cfg = self.pfc
        if cfg is not None and prio in self.asserted \
                and self.occ[prio] <= cfg.xon:
            self.asserted.discard(prio)
            sw = self.switch
            for handle in self.upstreams:
                if handle.resume(prio):
                    sw.pfc_resumes += 1

    def _check_xoff(self, prio: int) -> None:
        cfg = self.pfc
        if prio in self.asserted or self.occ.get(prio, 0) < cfg.xoff:
            return
        self.asserted.add(prio)
        sw = self.switch
        for handle in self.upstreams:
            if handle.pause(prio):
                sw.pfc_pauses += 1

    # -- as a PFC target (our downstream pausing us) -----------------------
    def pause(self, priority: int) -> bool:
        if priority in self.paused_in:
            return False
        self.paused_in.add(priority)
        if self.seen and self.seen <= self.paused_in \
                and not self.link.is_paused:
            # Every priority this port carries is paused: stall the wire
            # itself (splits an active burst train at a packet boundary).
            self.link.pause()
        return True

    def resume(self, priority: int) -> bool:
        if priority not in self.paused_in:
            return False
        self.paused_in.discard(priority)
        if self.link.is_paused:
            self.link.resume()
        q = self.staged.get(priority)
        if q:
            sw = self.switch
            while q:
                if not self.link.send(q.popleft()):
                    self.occ_total -= 1
                    self.occ[priority] -= 1
                    sw.dropped += 1
        return True


class Switch:
    """Forwards packets between attached links by destination name."""

    __slots__ = ("env", "name", "forwarded", "dropped", "upstream_pauses",
                 "egress_queue", "pfc", "_eports", "_eport_by_link",
                 "_peer_ports", "_pause_handles", "pfc_pauses",
                 "pfc_resumes")

    def __init__(
        self,
        env: Environment,
        name: str = "switch",
        egress_queue: Optional[int] = None,
        pfc: Optional[PfcConfig] = None,
    ):
        if pfc is not None and egress_queue is None:
            raise ValueError("pfc requires egress_queue")
        if egress_queue is not None and egress_queue <= 0:
            raise ValueError("egress_queue must be positive")
        if pfc is not None and pfc.xoff > egress_queue:
            raise ValueError("pfc xoff beyond the egress queue never fires")
        self.env = env
        self.name = name
        self.forwarded = 0
        self.dropped = 0
        #: times this switch stalled a whole host uplink (PFC only)
        self.upstream_pauses = 0
        self.egress_queue = egress_queue
        self.pfc = pfc
        #: dest name -> egress port
        self._eports: Dict[str, _EgressPort] = {}
        self._eport_by_link: Dict[str, _EgressPort] = {}
        self._peer_ports: Dict[str, _EgressPort] = {}
        self._pause_handles: Dict[str, _LinkPauseHandle] = {}
        self.pfc_pauses = 0
        self.pfc_resumes = 0

    # -- wiring --------------------------------------------------------------
    def attach(self, destination: str, egress: Link) -> None:
        """Register the egress link that reaches ``destination``.

        Every distinct link gets one :class:`_EgressPort` shared by all
        destinations routed through it; the first attach wraps the
        link's (already connected) receiver so deliveries decrement
        port occupancy.
        """
        port = self._eport_by_link.get(egress.name)
        if port is None:
            port = _EgressPort(self, egress, self.egress_queue, self.pfc)
            self._eport_by_link[egress.name] = port
            self._peer_ports[port.peer] = port
            egress.connect(port.make_delivery())
        self._eports[destination] = port

    def register_pfc_upstream(self, destination: str, handle) -> None:
        """Register a PFC pause target feeding ``destination``'s port.

        ``handle`` exposes ``pause(priority) -> bool`` /
        ``resume(priority) -> bool``: another switch's egress port
        (:meth:`port_towards`) or a host uplink
        (:meth:`link_pause_handle`).
        """
        port = self._eports[destination]
        for existing in port.upstreams:
            if existing is handle:
                return
        port.upstreams.append(handle)

    def port_towards(self, peer: str) -> _EgressPort:
        """This switch's egress port whose link terminates at ``peer``."""
        return self._peer_ports[peer]

    def link_pause_handle(self, ingress: Link) -> _LinkPauseHandle:
        """A (cached) per-priority pause facade for a host uplink."""
        handle = self._pause_handles.get(ingress.name)
        if handle is None:
            handle = _LinkPauseHandle(self, ingress)
            self._pause_handles[ingress.name] = handle
        return handle

    def receive(self, packet: Packet) -> None:
        """Ingress handler: admit the packet at its destination port."""
        port = self._eports.get(packet.dst)
        if port is None:
            self.dropped += 1
        elif port.admit(packet):
            self.forwarded += 1
        else:
            self.dropped += 1
