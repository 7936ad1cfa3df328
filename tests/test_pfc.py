"""PFC edge cases: hysteresis, mid-train pause, priority isolation,
and deadlock freedom on a 3-switch cycle.

These drive the egress-queue/PFC switch modes directly (hand-wired
single ports) and through the topology builder (the cycle), asserting
the lossless contract: under PFC nothing is ever dropped, pauses assert
exactly once per xoff crossing, and forwarding progress continues even
when the pause graph is cyclic.
"""

import pytest

from repro.net import (Edge, Link, LinkSpec, PfcConfig, Switch, SwitchSpec,
                       TopologySpec)
from repro.net.packet import Packet
from repro.sim.engine import Environment
from repro.sim.units import Gbps


class _Sink:
    def __init__(self, name):
        self.name = name
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def _pfc_port(env, xoff=4, xon=1, queue=16, rate=1 * Gbps):
    """One PFC egress port: host uplink -> switch -> slow downlink."""
    sink = _Sink("recv")
    downlink = Link(env, rate, 1e-6, name="sw0->recv")
    downlink.connect(sink.receive)
    sw = Switch(env, "sw0", egress_queue=queue,
                pfc=PfcConfig(xoff=xoff, xon=xon))
    sw.attach("recv", downlink)
    uplink = Link(env, 10 * Gbps, 1e-6, name="s0->sw0")
    uplink.connect(sw.receive)
    sw.register_pfc_upstream("recv", sw.link_pause_handle(uplink))
    return sw, uplink, downlink, sink


def _pkt(seq, priority=0, size=1000):
    return Packet(src="s0", dst="recv", size=size, kind="pfc-test",
                  payload=seq, priority=priority)


# ---------------------------------------------------------------------------
# Hysteresis
# ---------------------------------------------------------------------------

def test_xoff_asserts_once_and_xon_releases_after_drain():
    env = Environment()
    sw, uplink, downlink, sink = _pfc_port(env, xoff=4, xon=1)

    for seq in range(8):
        sw.receive(_pkt(seq))
    # Occupancy 8 >= xoff 4: exactly one PAUSE despite four more admits
    # above the threshold (no flapping inside the hysteresis band).
    assert sw.pfc_pauses == 1
    assert uplink.is_paused

    env.run()
    # Drained to <= xon: exactly one RESUME, uplink released, no loss.
    assert sw.pfc_resumes == 1
    assert not uplink.is_paused
    assert [p.payload for p in sink.received] == list(range(8))
    assert sw.dropped == 0


def test_hysteresis_band_prevents_pause_flapping():
    """Hovering around xoff must not emit a PAUSE per packet."""
    env = Environment()
    sw, uplink, downlink, sink = _pfc_port(env, xoff=4, xon=1)
    port = sw.port_towards("recv")

    def trickle():
        # Keep occupancy oscillating across the xoff threshold: the
        # asserted flag only rearms after a full drain to xon.
        for seq in range(30):
            sw.receive(_pkt(seq))
            if port.occ_total >= 5:
                yield env.timeout(30e-6)  # let a few deliveries land
            else:
                yield env.timeout(1e-6)

    env.run(env.process(trickle()))
    env.run()
    assert len(sink.received) == 30
    assert sw.dropped == 0
    # Far fewer pause/resume cycles than packets: the band is working.
    assert sw.pfc_pauses == sw.pfc_resumes
    assert sw.pfc_pauses <= 10


# ---------------------------------------------------------------------------
# Mid-train pause (the burst-datapath split)
# ---------------------------------------------------------------------------

def test_pause_mid_train_splits_at_packet_boundary_without_loss():
    """Pausing the egress wire mid-burst must split the committed train
    at a packet boundary: every packet arrives exactly once, in order,
    and the tail is delayed by at least the pause window."""
    env = Environment()
    sw, uplink, downlink, sink = _pfc_port(env, xoff=32, xon=1, queue=64)
    port = sw.port_towards("recv")
    serialization = 1000 * 8 / (1 * Gbps)  # one packet on the downlink

    baseline_env = Environment()
    bsw, _, _, bsink = _pfc_port(baseline_env, xoff=32, xon=1, queue=64)
    for seq in range(8):
        bsw.receive(_pkt(seq))
    baseline_env.run()
    baseline_last = bsink.received[-1]

    hold = 20 * serialization

    def driver():
        for seq in range(8):
            sw.receive(_pkt(seq))  # one committed 8-packet train
        yield env.timeout(2.5 * serialization)  # ~2 packets delivered
        delivered_at_pause = len(sink.received)
        assert 1 <= delivered_at_pause < 8
        port.pause(0)           # every seen priority paused -> wire stalls
        assert downlink.is_paused
        yield env.timeout(hold)
        assert len(sink.received) <= delivered_at_pause + 1, \
            "packets kept arriving while the wire was paused"
        port.resume(0)

    env.run(env.process(driver()))
    env.run()
    assert [p.payload for p in sink.received] == list(range(8))
    assert sw.dropped == 0
    # The tail waited out the pause window.
    last = sink.received[-1]
    assert env.now >= baseline_env.now + hold * 0.9
    del last, baseline_last


# ---------------------------------------------------------------------------
# Priority isolation
# ---------------------------------------------------------------------------

def test_paused_nonzero_priority_does_not_stall_priority_zero():
    env = Environment()
    sw, uplink, downlink, sink = _pfc_port(env, xoff=8, xon=1, queue=32)
    port = sw.port_towards("recv")

    # Teach the port both priorities exist, then pause only priority 1.
    sw.receive(_pkt(0, priority=0))
    sw.receive(_pkt(100, priority=1))
    env.run()
    port.pause(1)
    assert not downlink.is_paused  # priority 0 still flows on the wire

    for seq in range(1, 5):
        sw.receive(_pkt(seq, priority=0))
        sw.receive(_pkt(100 + seq, priority=1))
    env.run()
    got_p0 = [p.payload for p in sink.received if p.priority == 0]
    got_p1 = [p.payload for p in sink.received if p.priority == 1]
    assert got_p0 == [0, 1, 2, 3, 4], "priority 0 stalled behind paused 1"
    assert got_p1 == [100], "paused priority leaked onto the wire"

    port.resume(1)
    env.run()
    got_p1 = [p.payload for p in sink.received if p.priority == 1]
    assert got_p1 == [100, 101, 102, 103, 104]  # staged FIFO kept order
    assert sw.dropped == 0


def test_all_seen_priorities_paused_stalls_the_wire():
    env = Environment()
    sw, uplink, downlink, sink = _pfc_port(env, xoff=8, xon=1, queue=32)
    port = sw.port_towards("recv")
    sw.receive(_pkt(0, priority=0))
    sw.receive(_pkt(1, priority=3))
    env.run()
    port.pause(0)
    assert not downlink.is_paused
    port.pause(3)
    assert downlink.is_paused
    port.resume(0)
    assert not downlink.is_paused
    port.resume(3)
    env.run()
    assert sw.dropped == 0


# ---------------------------------------------------------------------------
# Deadlock freedom on a cyclic pause graph
# ---------------------------------------------------------------------------

def test_three_switch_cycle_is_deadlock_free():
    """A 3-switch PFC ring with all-to-all incast pressure: the cyclic
    pause graph may throttle injection but must never deadlock — every
    packet is eventually delivered, nothing is dropped."""
    env = Environment()
    link = LinkSpec(rate_bps=1 * Gbps, propagation_delay=1e-6)
    spec = TopologySpec(
        hosts=("h0", "h1", "h2"),
        switches=tuple(
            SwitchSpec(f"sw{i}", egress_queue=8, pfc=PfcConfig(xoff=4, xon=1))
            for i in range(3)
        ),
        edges=(
            Edge("sw0", "sw1", link),
            Edge("sw1", "sw2", link),
            Edge("sw2", "sw0", link),
            Edge("h0", "sw0", link),
            Edge("h1", "sw1", link),
            Edge("h2", "sw2", link),
        ),
    )
    sinks = [_Sink(f"h{i}") for i in range(3)]
    topo = spec.build(env, sinks)

    n_each = 40
    sent = 0
    for i, src in enumerate(("h0", "h1", "h2")):
        uplink = topo.link(src, f"sw{i}")
        for dst in ("h0", "h1", "h2"):
            if dst == src:
                continue
            for seq in range(n_each):
                assert uplink.send(Packet(src=src, dst=dst, size=1000,
                                          kind="cycle", payload=seq))
                sent += 1

    env.run()  # must terminate: progress is unconditional under PFC

    delivered = sum(len(s.received) for s in sinks)
    assert delivered == sent, "PFC fabric lost packets"
    for sink in sinks:
        by_src = {}
        for p in sink.received:
            by_src.setdefault(p.src, []).append(p.payload)
        for src, seqs in by_src.items():
            assert seqs == sorted(seqs), f"{src}->{sink.name} reordered"
    total_pauses = sum(topo.switches[f"sw{i}"].pfc_pauses for i in range(3))
    assert total_pauses > 0, "cycle never engaged PFC backpressure"
    assert all(topo.switches[f"sw{i}"].dropped == 0 for i in range(3))
