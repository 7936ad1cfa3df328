"""Point-to-point links with serialization, propagation and PAUSE.

A :class:`Link` is unidirectional: packets are queued, serialized at
the link rate, propagated after a fixed delay, and handed to the
receiver callback.  :meth:`pause`/:meth:`resume` model IEEE 802.3x
flow control — while paused the serializer stalls and the bounded
transmit buffer fills; overflow drops packets (a PFC switch instead
spreads the pause upstream before its ports overflow, see
:mod:`repro.net.switch`).

Burst-mode datapath
-------------------

The original datapath ran a generator process per link — ``Store.get``
yield, ``Gate.wait`` yield, serialization ``timeout`` yield and a
per-packet propagation lambda: ~4 event-queue operations per packet.
This version commits *packet trains* instead: when packets are
back-to-back (accepted while the wire is idle, or buffered behind an
active train), the whole train's serialization-completion timestamps
are computed analytically as a running float sum — bit-identical to the
old chained ``now + transfer_time`` arithmetic — and scheduled at once:
one pre-bound delivery event per packet (``Environment.schedule_train``)
plus a single train-done event.  That is ~1 event per packet, no
generator resumes, no Store/Gate traffic.

The slow path re-enters exactly where semantics demand it:

* **PAUSE** — :meth:`pause` splits the active train at the first packet
  whose serialization *start* is at or after the pause time; the
  cancelled tail returns to the head of the pending queue and its
  already-scheduled delivery events are disarmed by index (the engine
  has no cancel API; stale events fire as no-ops).  A packet mid-wire
  at pause time finishes, as on real hardware (and as the old gate
  check — between packets, never within one — behaved).
* **resume** — recommits the held packet plus the pending backlog as a
  fresh train starting at the resume time.
* **buffer overflow** — acceptance replays the old ``Store.try_put``
  rule exactly: a send onto an idle link is always accepted (the old
  serializer sat in ``get()``, a waiting getter); otherwise the packet
  is accepted iff fewer than ``buffer_packets`` packets are waiting for
  their serialization to start (committed-not-yet-started + pending).
* **receiver backpressure** — a receiver (e.g. :class:`~repro.net.switch.
  Switch`) may call :meth:`pause` from inside a delivery callback; the
  split rule above handles it mid-train.

``sent_packets``/``sent_bytes``/``queued_packets`` are computed
properties: the folded base plus a binary search over the active
train's completion/start timestamps, so observers that stop the clock
mid-train (``run(until=...)``) read exactly what the per-packet
datapath would have counted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Callable, Deque, List, Optional

from ..sim.engine import Environment
from ..sim.rng import Rng, derive_seed
from ..sim.units import transfer_time
from .packet import Packet

__all__ = ["Link"]

Receiver = Callable[[Packet], None]


class _Train:
    """One committed back-to-back packet train on the wire.

    ``starts[k]``/``ends[k]`` are packet *k*'s serialization start and
    completion timestamps; ``cbytes[k]`` the cumulative bytes through
    packet *k*.  Arrays shrink in lockstep when a PAUSE truncates the
    train — a scheduled delivery whose index is beyond the current
    length belongs to a cancelled packet and is dropped on the floor.
    """

    __slots__ = ("link", "packets", "starts", "ends", "cbytes")

    def __init__(self, link: "Link", packets: List[Packet],
                 starts: List[float], ends: List[float],
                 cbytes: List[int]):
        self.link = link
        self.packets = packets
        self.starts = starts
        self.ends = ends
        self.cbytes = cbytes

    def deliver(self, event) -> None:
        """Pre-bound per-packet delivery callback (event value = index)."""
        idx = event._value
        if idx >= len(self.ends):
            return  # cancelled by a PAUSE split after scheduling
        link = self.link
        if link.loss_rate:
            # Seeded random loss, decided at delivery time: a lost packet
            # still burned its wire time (the cable corrupted it, the far
            # end dropped it on CRC).  The guard keeps the zero-loss
            # default free of RNG draws.
            if link._loss_rng.random() < link.loss_rate:
                link.lost_packets += 1
                return
        receiver = link._receiver
        if receiver is None:
            raise RuntimeError(f"link {link.name!r} delivered into the void")
        receiver(self.packets[idx])


class Link:
    """Unidirectional link: ``send()`` → serialize → propagate → deliver."""

    __slots__ = ("env", "rate_bps", "propagation_delay", "buffer_packets",
                 "name", "_receiver", "_pending", "_train", "_held",
                 "_paused", "_sent_p", "_sent_b", "dropped_packets",
                 "_done_cb", "loss_rate", "_loss_rng", "lost_packets")

    def __init__(
        self,
        env: Environment,
        rate_bps: float,
        propagation_delay: float = 1e-6,
        buffer_packets: int = 1024,
        name: str = "link",
        loss_rate: float = 0.0,
        loss_rng: Optional[Rng] = None,
    ):
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation delay must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1): {loss_rate!r}")
        self.env = env
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.buffer_packets = buffer_packets
        self.name = name
        #: per-delivery random-loss probability (0.0 = reliable cable; the
        #: RNG is only consulted — indeed only created — when nonzero)
        self.loss_rate = loss_rate
        self._loss_rng = (loss_rng or Rng(derive_seed(0, "loss", name),
                                          name=f"loss:{name}")
                          if loss_rate > 0.0 else loss_rng)
        self.lost_packets = 0
        self._receiver: Optional[Receiver] = None
        #: accepted, not yet committed into a train
        self._pending: Deque[Packet] = deque()
        self._train: Optional[_Train] = None
        #: the packet the old serializer would hold at a closed gate
        self._held: Optional[Packet] = None
        self._paused = False
        self._sent_p = 0
        self._sent_b = 0
        self.dropped_packets = 0
        self._done_cb = self._train_done

    # -- wiring -----------------------------------------------------------
    def connect(self, receiver: Receiver) -> None:
        """Attach the far end's packet handler."""
        self._receiver = receiver

    # -- datapath -----------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Enqueue a packet; returns False if the tx buffer overflowed."""
        if self._train is None and self._held is None and not self._pending:
            # Idle wire: always accepted (the old serializer was a
            # waiting getter here, so try_put never failed).
            if self._paused:
                self._held = packet
            else:
                self._commit([packet], self.env.now)
            return True
        if self._waiting() >= self.buffer_packets:
            self.dropped_packets += 1
            return False
        self._pending.append(packet)
        return True

    def _waiting(self) -> int:
        """Packets waiting for their serialization to start (the old
        ``len(Store)``: committed-not-yet-started + pending; the held
        packet was already popped by the stalled serializer)."""
        n = len(self._pending)
        train = self._train
        if train is not None:
            starts = train.starts
            n += len(starts) - bisect_right(starts, self.env.now)
        return n

    # -- observability ------------------------------------------------------
    @property
    def queued_packets(self) -> int:
        return self._waiting()

    @property
    def sent_packets(self) -> int:
        train = self._train
        if train is None:
            return self._sent_p
        return self._sent_p + bisect_right(train.ends, self.env.now)

    @property
    def sent_bytes(self) -> int:
        train = self._train
        if train is None:
            return self._sent_b
        done = bisect_right(train.ends, self.env.now)
        return self._sent_b + (train.cbytes[done - 1] if done else 0)

    # -- flow control ---------------------------------------------------------
    def pause(self) -> None:
        """Assert link-level flow control (802.3x PAUSE).

        Splits the active train: every packet whose serialization start
        is at or after the pause time stalls (its delivery event is
        disarmed and it returns to the head of the pending queue); a
        packet already mid-wire finishes normally.
        """
        if self._paused:
            return
        self._paused = True
        train = self._train
        if train is None:
            return
        starts = train.starts
        s = bisect_left(starts, self.env.now)
        if s >= len(starts):
            return  # every packet already on the wire; finish the train
        pending = self._pending
        for packet in reversed(train.packets[s:]):
            pending.appendleft(packet)
        del train.packets[s:], train.starts[s:], train.ends[s:], \
            train.cbytes[s:]
        if s == 0:
            # Whole train cancelled: the first packet was about to start
            # — the old serializer had popped it and stalls at the gate.
            self._train = None
            self._held = pending.popleft()
        else:
            # The truncated train finishes earlier than the scheduled
            # done event; arm a fresh one (the stale original disarms
            # itself against the changed end time).
            self.env.at(train.ends[-1], self._done_cb, train)

    def resume(self) -> None:
        if not self._paused:
            return
        self._paused = False
        if self._train is not None:
            return  # mid-wire packet still finishing; its done recommits
        held = self._held
        if held is None:
            return
        self._held = None
        pending = self._pending
        packets = [held]
        if pending:
            packets.extend(pending)
            pending.clear()
        self._commit(packets, self.env.now)

    @property
    def is_paused(self) -> bool:
        return self._paused

    # -- internals ---------------------------------------------------------------
    def _commit(self, packets: List[Packet], t0: float) -> None:
        """Commit ``packets`` as one back-to-back train starting at ``t0``.

        The completion sequence is the same running float sum the old
        per-packet chain produced (``t += transfer_time(size)``), so
        every timestamp — and therefore every event tie — matches the
        generator datapath bit for bit.
        """
        rate = self.rate_bps
        starts: List[float] = []
        ends: List[float] = []
        cbytes: List[int] = []
        t = t0
        total = 0
        for packet in packets:
            starts.append(t)
            t = t + transfer_time(packet.size, rate)
            ends.append(t)
            total += packet.size
            cbytes.append(total)
        train = _Train(self, packets, starts, ends, cbytes)
        self._train = train
        env = self.env
        prop = self.propagation_delay
        env.schedule_train([e + prop for e in ends], train.deliver)
        env.at(t, self._done_cb, train)

    def _train_done(self, event) -> None:
        train = event._value
        if self._train is not train:
            return  # superseded (cancelled whole-train or already folded)
        ends = train.ends
        if not ends or ends[-1] != self.env.now:
            return  # stale: the train was truncated after this was armed
        # Fold the finished train into the base counters.
        self._sent_p += len(ends)
        self._sent_b += train.cbytes[-1]
        self._train = None
        pending = self._pending
        if self._paused:
            if pending:
                # The old serializer pops the next packet before it
                # checks the gate: it stalls holding one packet.
                self._held = pending.popleft()
            return
        if pending:
            packets = list(pending)
            pending.clear()
            self._commit(packets, self.env.now)
