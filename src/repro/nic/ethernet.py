"""The Ethernet NIC model (paper §5).

An :class:`EthernetNic` exposes :class:`EthChannel` IOchannels (the
hardware-multiplexed virtual NIC instances of direct network I/O).
Each channel owns a Figure 6 receive ring and runs in one of three
receive modes:

* :attr:`RxMode.PIN` — buffers pinned at startup; rNPFs cannot happen
  (the static-pinning baseline);
* :attr:`RxMode.DROP` — packets hitting an rNPF are discarded while the
  fault resolves in the background (the strawman that triggers the
  cold-ring problem);
* :attr:`RxMode.BACKUP` — the paper's solution: faulting packets are
  steered to the IOprovider's pinned backup ring and merged back after
  resolution, with ordering preserved by the ring's head/bitmap logic.

The channel is IOuser-facing: the IOuser's network stack posts receive
buffers, gets a completion callback per packet, and sends through a
per-channel TX queue that transparently absorbs send-side NPFs.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..core.npf import NpfSide
from ..core.regions import MemoryRegion, OdpMemoryRegion
from ..net.link import Link
from ..net.packet import Packet
from ..sim.engine import Environment, Event, Process, _NO_WAITERS
from ..sim.units import PAGE_SHIFT, pages_for
from .interrupts import InterruptLine
from .rings import RxDescriptor, RxRing

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.provider import IoProvider

__all__ = ["EthernetNic", "EthChannel", "RxMode"]


class RxMode(enum.Enum):
    PIN = "pin"
    DROP = "drop"
    BACKUP = "backup"


class EthChannel:
    """One IOchannel: RX ring + TX queue, bound to an IOuser's MR."""

    __slots__ = ("nic", "env", "name", "mode", "mr", "ring",
                 "rx_process_cost", "rx_handler", "inject_rnpf", "rx_irq",
                 "_txq", "_tx_busy", "_tx_fault_pkt", "_tx_step_cb",
                 "_tx_fault_cb", "_tail_waiters", "_drop_faults_pending",
                 "_injected_ready", "auto_repost", "dropped_rnpf",
                 "dropped_no_buffer", "tx_packets", "rx_packets")

    def __init__(
        self,
        nic: "EthernetNic",
        name: str,
        mode: RxMode,
        mr: MemoryRegion,
        ring_size: int = 64,
        bm_size: Optional[int] = None,
        rx_process_cost: float = 0.5e-6,
    ):
        self.nic = nic
        self.env = nic.env
        self.name = name
        self.mode = mode
        self.mr = mr
        self.ring = RxRing(ring_size, bm_size)
        self.rx_process_cost = rx_process_cost
        self.rx_handler: Optional[Callable[[Packet], None]] = None
        #: §6.4 what-if hook: synthetically fault an otherwise-fine packet;
        #: return None, "minor" or "major"
        self.inject_rnpf: Optional[Callable[[Packet], Optional[str]]] = None
        self.rx_irq = InterruptLine(self.env, self._drain, name=f"{name}-rx")
        # Callback-driven TX pipeline: a deque plus one deferred step per
        # packet replaces the old Store + generator loop (same one-hop
        # cadence, no generator resume, no Store traffic).
        self._txq: Deque[Tuple[Packet, Optional[int], int]] = deque()
        self._tx_busy = False
        self._tx_fault_pkt: Optional[Packet] = None
        self._tx_step_cb = self._tx_step
        self._tx_fault_cb = self._tx_fault_done
        self._tail_waiters: List[Event] = []
        self._drop_faults_pending: set[int] = set()
        #: end of the current injected-fault resolution window (§6.4)
        self._injected_ready: float = float("-inf")
        self.auto_repost = True
        self.dropped_rnpf = 0
        self.dropped_no_buffer = 0
        self.tx_packets = 0
        self.rx_packets = 0

    # -- IOuser-facing API ----------------------------------------------------
    def set_rx_handler(self, handler: Callable[[Packet], None]) -> None:
        self.rx_handler = handler

    def post_recv(self, addr: int, size: int) -> None:
        """Post one receive buffer; wakes the IOprovider's resolver."""
        self.ring.post(RxDescriptor(addr, size))
        waiters, self._tail_waiters = self._tail_waiters, []
        for ev in waiters:
            ev.succeed()

    def wait_tail_advance(self) -> Event:
        """Event firing on the next post_recv (used by the resolver thread)."""
        ev = self.env.event()
        self._tail_waiters.append(ev)
        return ev

    def send(self, packet: Packet, src_addr: Optional[int] = None, src_size: int = 0) -> None:
        """Queue a packet for transmission.

        ``src_addr``/``src_size`` describe the DMA source; if those pages
        are not IOMMU-mapped the NIC takes a send-side NPF, which stalls
        this channel's TX pipeline (but nothing else) until resolved.
        """
        self._txq.append((packet, src_addr, src_size))
        if not self._tx_busy:
            self._tx_busy = True
            self.env.defer(self._tx_step_cb)

    def send_many(self, items) -> None:
        """Bulk :meth:`send`: ``items`` are ``(packet, src_addr, src_size)``.

        One queue extend and (at most) one deferred pipeline kick for the
        whole batch; per-packet pacing through the pipeline is unchanged.
        """
        if not items:
            return
        self._txq.extend(items)
        if not self._tx_busy:
            self._tx_busy = True
            self.env.defer(self._tx_step_cb)

    # -- TX pipeline --------------------------------------------------------------
    def _tx_step(self, event) -> None:
        """Process one queued packet (deferred once per packet, matching
        the old Store-getter resume cadence event for event)."""
        packet, src_addr, src_size = self._txq.popleft()
        if src_addr is not None and isinstance(self.mr, OdpMemoryRegion):
            first_vpn = src_addr >> PAGE_SHIFT
            n_pages = pages_for(src_size) or 1
            if self.mr.unmapped_vpns(first_vpn, n_pages):
                # Send-side NPF: stall this channel's pipeline on the
                # driver's completion event (chained bare, like a
                # waiting process would be).
                self._tx_fault_pkt = packet
                ev = self.nic.driver_service_fault(
                    self.mr, first_vpn, n_pages, NpfSide.SEND, self.name
                )
                cbs = ev.callbacks
                if cbs is None:
                    # Already resolved: continue after the events queued
                    # at this timestamp, like a process resume would.
                    self.env.defer(self._tx_fault_cb)
                elif cbs is _NO_WAITERS:
                    ev.callbacks = self._tx_fault_cb
                elif cbs.__class__ is list:
                    cbs.append(self._tx_fault_cb)
                else:
                    if cbs.__class__ is Process:
                        cbs = cbs._resume_cb
                    ev.callbacks = [cbs, self._tx_fault_cb]
                return
            self._touch_lru(src_addr, src_size)
        self.tx_packets += 1
        self.nic.transmit(packet)
        if self._txq:
            self.env.defer(self._tx_step_cb)
        else:
            self._tx_busy = False

    def _tx_fault_done(self, event) -> None:
        """Fault resolved: transmit the stalled packet, resume the queue."""
        packet = self._tx_fault_pkt
        self._tx_fault_pkt = None
        self.tx_packets += 1
        self.nic.transmit(packet)
        if self._txq:
            self.env.defer(self._tx_step_cb)
        else:
            self._tx_busy = False

    # -- RX datapath (NIC side) ------------------------------------------------------
    def rx(self, packet: Packet) -> None:
        """Figure 6 ``recv()``: called by the NIC for each arriving packet."""
        ring = self.ring
        if ring.has_descriptor():
            descriptor = ring.descriptor_at(ring.store_target)
            assert descriptor is not None
            injected = self._check_injection(packet)
            if (injected is None and packet.size <= descriptor.buffer_size
                    and self._buffer_present(descriptor)):
                self._touch_lru(descriptor.buffer_addr, packet.size)
                if ring.store_direct(packet):
                    self.rx_irq.raise_irq()
                return
            self._handle_rnpf(packet, descriptor, injected)
            return
        # No posted descriptor at the target.
        if self.mode is RxMode.BACKUP:
            self._fault_to_backup(packet)
        else:
            self.dropped_no_buffer += 1

    def _check_injection(self, packet: Packet) -> Optional[str]:
        """§6.4 synthetic faults: one resolution window per injected fault.

        Packets arriving while an injected fault is "being resolved" also
        fault (the descriptor is unusable until resolution), mirroring how
        a real rNPF behaves at the NIC.
        """
        if self.inject_rnpf is None:
            return None
        if self.env.now < self._injected_ready:
            return "pending"
        kind = self.inject_rnpf(packet)
        if kind is None:
            return None
        swap = 0.010 if kind == "major" else 0.0
        breakdown = self.nic.driver.costs.npf_breakdown(1, swap_latency=swap)
        self._injected_ready = self.env.now + breakdown.total
        return kind

    def _buffer_present(self, descriptor: RxDescriptor) -> bool:
        first = descriptor.buffer_addr >> PAGE_SHIFT
        n_pages = pages_for(descriptor.buffer_size) or 1
        return self.mr.domain.all_mapped(first, n_pages)

    def _touch_lru(self, addr: int, size: int) -> None:
        # DMA'd pages count as accessed for the OS LRU.
        first = addr >> PAGE_SHIFT
        self.nic.memory_lru_touch_range(self.mr, first, pages_for(size) or 1)

    def _handle_rnpf(self, packet: Packet, descriptor: RxDescriptor,
                     injected: Optional[str] = None) -> None:
        if self.mode is RxMode.PIN and injected is None:
            # Pinned buffers cannot fault; reaching here is a model bug.
            raise RuntimeError("rNPF on a pinned channel")
        if self.mode is RxMode.DROP or self.mode is RxMode.PIN:
            # Drop the packet; the fault (if real) resolves in the background.
            # For injected faults the page is actually fine — the paper notes
            # the fault type does not matter when dropping, since the TCP
            # retransmission timer dwarfs even a major fault (§6.4).
            self.dropped_rnpf += 1
            if injected is not None:
                return
            first = descriptor.buffer_addr >> PAGE_SHIFT
            if first not in self._drop_faults_pending:
                self._drop_faults_pending.add(first)
                n_pages = pages_for(descriptor.buffer_size) or 1
                self.env.process(
                    self._background_resolve(first, n_pages),
                    name=f"{self.name}-drop-resolve",
                )
            return
        self._fault_to_backup(packet, injected)

    def _background_resolve(self, first_vpn: int, n_pages: int):
        try:
            yield self.nic.driver_service_fault(
                self.mr, first_vpn, n_pages, NpfSide.RECEIVE, self.name
            )
        finally:
            self._drop_faults_pending.discard(first_vpn)

    def _fault_to_backup(self, packet: Packet, injected: Optional[str] = None) -> None:
        provider = self.nic.provider
        if provider is None:
            raise RuntimeError("backup mode requires an attached IOprovider")
        if not self.ring.can_fault_to_backup() or not provider.backup_ring.has_room():
            self.dropped_rnpf += 1
            if not self.ring.can_fault_to_backup():
                self.ring.stats.dropped_bitmap_full += 1
            else:
                self.ring.stats.dropped_backup_full += 1
                provider.backup_ring.note_overflow_drop()
            return
        ring_index = self.ring.store_target
        bit_index = self.ring.mark_fault()
        # Injected faults carry the absolute resolution-ready time so the
        # IOprovider charges one resolution per fault, not per packet.
        ready = self._injected_ready if injected is not None else None
        provider.nic_fault(self, ring_index, bit_index, packet, ready)

    # -- completion delivery (IOuser side) ----------------------------------------------
    def _drain(self):
        """NAPI-style poll: consume all available completions."""
        while self.ring.completions_available():
            descriptor = self.ring.consume()
            yield self.env.timeout(self.rx_process_cost)
            self.rx_packets += 1
            if self.rx_handler is not None and descriptor.packet is not None:
                self.rx_handler(descriptor.packet)
            if self.auto_repost and self.ring.can_post():
                self.post_recv(descriptor.buffer_addr, descriptor.buffer_size)

    def resolve_from_backup(self, bit_index: int) -> None:
        """IOprovider finished an rNPF: advance the ring, maybe interrupt."""
        advanced = self.ring.resolve_fault(bit_index)
        if advanced:
            self.rx_irq.raise_irq()


class EthernetNic:
    """A multi-channel Ethernet NIC attached to one host and one link."""

    __slots__ = ("env", "name", "driver", "provider", "link", "channels",
                 "rx_total", "rx_unclaimed")

    def __init__(self, env: Environment, name: str, driver=None):
        self.env = env
        self.name = name
        self.driver = driver
        self.provider: Optional["IoProvider"] = None
        self.link: Optional[Link] = None
        self.channels: Dict[str, EthChannel] = {}
        self.rx_total = 0
        self.rx_unclaimed = 0

    # -- wiring ----------------------------------------------------------------
    def attach_link(self, link: Link) -> None:
        self.link = link

    def attach_provider(self, provider: "IoProvider") -> None:
        self.provider = provider

    def create_channel(
        self,
        name: str,
        mode: RxMode,
        mr: MemoryRegion,
        ring_size: int = 64,
        bm_size: Optional[int] = None,
    ) -> EthChannel:
        if name in self.channels:
            raise ValueError(f"channel {name!r} already exists")
        channel = EthChannel(self, name, mode, mr, ring_size, bm_size)
        self.channels[name] = channel
        return channel

    # -- datapath -----------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Link-side ingress: steer to the packet's IOchannel."""
        self.rx_total += 1
        channel = self.channels.get(packet.channel)
        if channel is None and len(self.channels) == 1:
            channel = next(iter(self.channels.values()))
        if channel is None:
            self.rx_unclaimed += 1
            return
        channel.rx(packet)

    def transmit(self, packet: Packet) -> None:
        if self.link is None:
            raise RuntimeError(f"NIC {self.name!r} has no attached link")
        self.link.send(packet)

    # -- services used by channels ----------------------------------------------------
    def driver_service_fault(self, mr, vpn, n_pages, side, channel_name):
        if self.driver is None:
            raise RuntimeError("NPF without an attached driver")
        return self.driver.service_fault_async(mr, vpn, n_pages, side, channel_name)

    def memory_lru_touch(self, mr: MemoryRegion, vpn: int) -> None:
        mr.space.memory._lru_touch(mr.space.asid, vpn)

    def memory_lru_touch_range(self, mr: MemoryRegion, first_vpn: int,
                               n_pages: int) -> None:
        mr.space.memory._lru_touch_range(mr.space.asid, first_vpn, n_pages)
