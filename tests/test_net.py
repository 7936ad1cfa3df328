"""Unit tests for the network fabric: links, switches, topologies."""

import pytest

from repro.net import (Edge, Link, LinkSpec, Packet, PfcConfig, Switch,
                       SwitchSpec, TopologySpec, connect_back_to_back,
                       rack_spec)
from repro.sim import Environment
from repro.sim.units import Gbps, us


class Sink:
    """Test endpoint recording arrivals with timestamps."""

    def __init__(self, env, name):
        self.env = env
        self.name = name
        self.received = []

    def receive(self, packet):
        self.received.append((self.env.now, packet))


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet("a", "b", size=0)


def test_packet_ids_unique():
    a = Packet("a", "b", size=100)
    b = Packet("a", "b", size=100)
    assert a.pid != b.pid


def test_link_delivers_with_serialization_and_propagation():
    env = Environment()
    sink = Sink(env, "rx")
    link = Link(env, rate_bps=1 * Gbps, propagation_delay=5 * us)
    link.connect(sink.receive)
    link.send(Packet("tx", "rx", size=1250))  # 10 us serialization at 1 Gbps
    env.run()
    assert len(sink.received) == 1
    t, _ = sink.received[0]
    assert t == pytest.approx(10 * us + 5 * us)
    assert link.sent_packets == 1
    assert link.sent_bytes == 1250


def test_link_serializes_back_to_back_packets():
    env = Environment()
    sink = Sink(env, "rx")
    link = Link(env, rate_bps=1 * Gbps, propagation_delay=0.0)
    link.connect(sink.receive)
    for _ in range(3):
        link.send(Packet("tx", "rx", size=1250))
    env.run()
    times = [t for t, _ in sink.received]
    assert times == pytest.approx([10 * us, 20 * us, 30 * us])


def test_link_buffer_overflow_drops():
    env = Environment()
    sink = Sink(env, "rx")
    link = Link(env, rate_bps=1 * Gbps, buffer_packets=2)
    link.connect(sink.receive)
    results = [link.send(Packet("tx", "rx", size=100)) for _ in range(4)]
    # First is dequeued by the serializer immediately; queue holds 2 more.
    assert results.count(False) >= 1
    assert link.dropped_packets >= 1


def test_link_pause_stalls_delivery():
    env = Environment()
    sink = Sink(env, "rx")
    link = Link(env, rate_bps=1 * Gbps, propagation_delay=0.0)
    link.connect(sink.receive)
    link.pause()
    link.send(Packet("tx", "rx", size=1250))
    env.run(until=0.001)
    assert sink.received == []
    assert link.is_paused
    link.resume()
    env.run(until=0.002)
    assert len(sink.received) == 1


def test_link_parameter_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Link(env, rate_bps=0)
    with pytest.raises(ValueError):
        Link(env, rate_bps=1, propagation_delay=-1)


def test_link_without_receiver_raises():
    env = Environment()
    link = Link(env, rate_bps=1 * Gbps)
    link.send(Packet("tx", "rx", size=100))
    with pytest.raises(RuntimeError):
        env.run()


def test_back_to_back_bidirectional():
    env = Environment()
    a, b = Sink(env, "a"), Sink(env, "b")
    ab, ba = connect_back_to_back(env, a, b, rate_bps=10 * Gbps)
    ab.send(Packet("a", "b", size=1000))
    ba.send(Packet("b", "a", size=1000))
    env.run()
    assert len(a.received) == 1
    assert len(b.received) == 1


def test_back_to_back_asymmetric_rates():
    env = Environment()
    a, b = Sink(env, "a"), Sink(env, "b")
    ab, ba = connect_back_to_back(env, a, b, rate_bps=40 * Gbps, rate_b_to_a=12 * Gbps)
    assert ab.rate_bps == 40 * Gbps
    assert ba.rate_bps == 12 * Gbps


def test_switch_forwards_by_destination():
    env = Environment()
    a, b, c = (Sink(env, n) for n in "abc")
    spec = TopologySpec(
        hosts=("a", "b", "c"),
        switches=(SwitchSpec("sw"),),
        edges=tuple(Edge(n, "sw", LinkSpec(rate_bps=10 * Gbps))
                    for n in "abc"),
    )
    topo = spec.build(env, [a, b, c])
    switch = topo.switches["sw"]
    topo.link("a", "sw").send(Packet("a", "c", size=500))
    env.run()
    assert len(c.received) == 1
    assert b.received == []
    assert switch.forwarded == 1


def test_switch_drops_unknown_destination():
    env = Environment()
    switch = Switch(env)
    switch.receive(Packet("x", "nowhere", size=100))
    assert switch.dropped == 1


def test_pause_mid_train_splits_at_packet_boundary():
    """PAUSE during a committed train stalls exactly the packets whose
    serialization had not started; the one mid-wire finishes (802.3x
    pauses between frames, never within one)."""
    env = Environment()
    sink = Sink(env, "rx")
    link = Link(env, rate_bps=1 * Gbps, propagation_delay=0.0)
    link.connect(sink.receive)
    # 4 x 1250B back-to-back: serialization finishes at 10/20/30/40 us.
    assert all(link.send(Packet("tx", "rx", size=1250)) for _ in range(4))
    env.run(until=15 * us)  # packet 1 (ends at 20 us) is mid-wire
    link.pause()
    env.run(until=100 * us)
    times = [t for t, _ in sink.received]
    assert times == pytest.approx([10 * us, 20 * us])  # mid-wire one finished
    # Of the two stalled packets, one is held by the stalled serializer
    # (popped before the gate check) and one still queues.
    assert link.queued_packets == 1
    link.resume()
    env.run()
    times = [t for t, _ in sink.received]
    # The stalled tail restarts back-to-back at the resume time (100 us).
    assert times == pytest.approx([10 * us, 20 * us, 110 * us, 120 * us])
    assert link.sent_packets == 4
    assert link.sent_bytes == 4 * 1250


def test_idle_start_accepts_buffer_plus_one():
    """A burst onto an idle link: the first packet starts serializing at
    once and the buffer holds the next ``buffer_packets``; the rest drop."""
    env = Environment()
    sink = Sink(env, "rx")
    link = Link(env, rate_bps=1 * Gbps, buffer_packets=2,
                propagation_delay=0.0)
    link.connect(sink.receive)
    accepted = sum(1 for _ in range(6)
                   if link.send(Packet("tx", "rx", size=1250)))
    assert accepted == 3
    assert link.dropped_packets == 3
    env.run()
    assert [t for t, _ in sink.received] == pytest.approx(
        [10 * us, 20 * us, 30 * us])


def test_two_links_equal_time_fifo_delivery():
    """Deliveries scheduled for the same instant on different links keep
    schedule order — the engine's equal-time FIFO, which the analytic
    train timestamps must not break."""
    env = Environment()
    sink = Sink(env, "rx")
    links = [Link(env, rate_bps=1 * Gbps, propagation_delay=0.0, name=f"l{i}")
             for i in range(2)]
    for link in links:
        link.connect(sink.receive)
    first = Packet("a", "rx", size=1250)
    second = Packet("b", "rx", size=1250)
    links[0].send(first)       # delivers at exactly 10 us
    links[1].send(second)      # same timestamp, scheduled after
    env.run()
    assert [t for t, _ in sink.received] == pytest.approx([10 * us, 10 * us])
    assert [p for _, p in sink.received] == [first, second]


@pytest.mark.parametrize("pfc", [None, PfcConfig(xoff=48, xon=16)],
                         ids=["lossless", "pfc"])
def test_incast_quiesces_with_no_link_paused(pfc):
    """A 2-to-1 incast through one switch drains completely: once the
    simulation quiesces no link is left paused, no uplink still holds
    packets, and every packet sent is delivered or counted as a drop.
    Under PFC the congested port pauses both uplinks on the way, and
    still drops nothing."""
    env = Environment()
    senders = [Sink(env, "s0"), Sink(env, "s1")]
    recv = Sink(env, "recv")
    spec = rack_spec(2, egress_queue=64 if pfc else None, pfc=pfc)
    topo = spec.build(env, senders + [recv])
    switch = topo.switches["sw0"]
    uplinks = [topo.link(s.name, "sw0") for s in senders]
    sent = 0
    for _ in range(2000):
        for s, uplink in zip(senders, uplinks):
            uplink.send(Packet(s.name, "recv", size=1500))
            sent += 1
    env.run()
    assert not [name for name, link in topo.links.items() if link.is_paused]
    assert [u.queued_packets for u in uplinks] == [0, 0]
    link_drops = sum(link.dropped_packets + link.lost_packets
                     for link in topo.links.values())
    assert len(recv.received) + switch.dropped + link_drops == sent
    if pfc is None:
        assert switch.upstream_pauses == 0
    else:
        assert switch.dropped == link_drops == 0
        assert len(recv.received) == sent
        assert switch.upstream_pauses >= 2  # both host uplinks stalled
