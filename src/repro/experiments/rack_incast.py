"""Rack-scale N-to-1 incast: lossy-RDMA retransmit modes vs NPF stalls.

The paper's cluster experiments run two hosts back to back, where the
only packet drops are the RNR window itself.  This sweep reproduces the
interaction *Revisiting Network Support for RDMA* (Mittal et al.)
predicts at rack scale: N senders blast RC SENDs at one receiver behind
a single switch port, under three fabrics × three memory regimes:

* **fabric** — ``pfc`` (lossless: finite egress queues + per-priority
  PAUSE with hysteresis), ``gbn`` (lossy downlink, classic go-back-N
  retransmit) and ``irn`` (same lossy downlink, IRN-style selective
  retransmit with a bounded SACK bitmap);
* **memory** — ``static`` (everything pinned up front), ``pdc``
  (senders pin through an undersized pin-down cache, paying
  registration latency on misses), ``npf`` (the receiver ring is ODP
  and an invalidation storm keeps unmapping slots, so incoming messages
  take real network page faults and RNR-NACK the senders).

Each cell reports goodput, the 99th-percentile NPF service latency at
the receiver, PFC pause-storm counters and retransmission/loss
accounting.  The headline result: at 1% loss, go-back-N's goodput
collapses (every drop resends the whole in-flight window into the
already-congested port) while IRN degrades only by the retransmitted
holes — the gap the bench gate asserts.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from ..core.pin_down_cache import PinDownCache
from ..host.ib import ib_rack
from ..net.switch import PfcConfig
from ..sim.engine import Environment
from ..sim.rng import Rng, derive_seed
from ..sim.stats import percentile
from ..sim.units import KB, PAGE_SHIFT, PAGE_SIZE, us
from ..transport.verbs import Opcode, RecvWr, SendWr
from .base import ExperimentResult
from .cells import Cell, cell

__all__ = ["cells", "merge", "cell_incast", "NETS", "MEMS"]

NETS = ("pfc", "gbn", "irn")
MEMS = ("static", "pdc", "npf")

#: egress-port capacity and PFC thresholds (packets).  The senders'
#: aggregate window (16 QPs x 16 outstanding) sits right at the lossy
#: capacity, so injected losses compound: go-back-N's full-window
#: retransmits overflow the port and shed further packets, while IRN's
#: hole-only resends barely move the occupancy.
EGRESS_QUEUE = 256
PFC_XOFF = 96
PFC_XON = 32


def cell_incast(net: str, memory: str, n_senders: int, loss_pct: float,
                messages: int, size: int, seed: int) -> dict:
    """One (fabric, memory) point of the incast sweep."""
    env = Environment()
    lossy = net in ("gbn", "irn")
    senders, receiver, topo = ib_rack(
        env, n_senders,
        egress_queue=EGRESS_QUEUE,
        pfc=PfcConfig(xoff=PFC_XOFF, xon=PFC_XON) if net == "pfc" else None,
        loss_rate=(loss_pct / 100.0) if lossy else 0.0,
        loss_seed=seed,
    )
    retransmit = "irn" if net == "irn" else "gbn"
    loss_recovery = lossy
    ring_depth = 16
    pool_slots = 8

    send_qps, recv_qps, recv_mrs, recv_bases = [], [], [], []
    pdcs, pools, send_mrs, spaces = [], [], [], []
    for i, sender in enumerate(senders):
        sq = sender.nic.create_qp(max_outstanding=16, retransmit=retransmit,
                                  loss_recovery=loss_recovery, rto=1e-3)
        rq = receiver.nic.create_qp(max_outstanding=16, retransmit=retransmit,
                                    loss_recovery=loss_recovery, rto=1e-3)
        sq.connect(rq)
        send_qps.append(sq)
        recv_qps.append(rq)

        sspace = sender.memory.create_space(f"incast-tx{i}")
        sregion = sspace.mmap(pool_slots * size)
        spaces.append(sspace)
        pools.append(sregion.base)
        if memory == "pdc":
            # Undersized cache: half the working set fits, the rest pays
            # registration (and eviction) latency on every miss.
            pdcs.append(PinDownCache(sender.driver,
                                     capacity_bytes=(pool_slots // 2) * size))
            send_mrs.append(None)
        else:
            pdcs.append(None)
            send_mrs.append(sender.driver.register_pinned(sspace, sregion))

        rspace = receiver.memory.create_space(f"incast-rx{i}")
        rregion = rspace.mmap(ring_depth * size)
        if memory == "npf":
            mr = receiver.driver.register_odp(rspace, rregion)
        else:
            mr = receiver.driver.register_pinned(rspace, rregion)
        receiver.nic.register_mr(mr)
        recv_mrs.append(mr)
        recv_bases.append(rregion.base)

    received = [0]
    total_expected = n_senders * messages
    done = env.event()

    def receiver_proc(idx: int):
        rq = recv_qps[idx]
        base = recv_bases[idx]
        mr = recv_mrs[idx]
        for slot in range(ring_depth):
            rq.post_recv(RecvWr(base + slot * size, size, mr=mr))
        got = 0
        while got < messages:
            yield rq.recv_cq.wait()
            got += 1
            slot = got % ring_depth
            rq.post_recv(RecvWr(base + slot * size, size, mr=mr))
            received[0] += 1
            if received[0] >= total_expected and not done.triggered:
                done.succeed(env.now)

    def sender_proc(idx: int):
        sq = send_qps[idx]
        base = pools[idx]
        pdc = pdcs[idx]
        rng = Rng(derive_seed(seed, "pdc", idx), name=f"pdc{idx}")
        for m in range(messages):
            if pdc is not None:
                slot = rng.zipf_index(pool_slots)
                addr = base + slot * size
                mr, latency = pdc.acquire(spaces[idx], addr, size)
                if latency:
                    yield env.timeout(latency)
                pdc.release(spaces[idx], addr, size)
            else:
                addr = base + (m % pool_slots) * size
                mr = send_mrs[idx]
            sq.post_send(SendWr(Opcode.SEND, size, local_addr=addr, mr=mr))
        for m in range(messages):
            yield sq.send_cq.wait()

    def storm_proc():
        # NPF regime: keep unmapping receive-ring slots so in-flight
        # messages take real faults and RNR-NACK their senders.
        rng = Rng(derive_seed(seed, "storm"), name="storm")
        pages_per_slot = max(1, size // PAGE_SIZE)
        while not done.triggered:
            yield env.timeout(rng.uniform(30 * us, 70 * us))
            idx = rng.randint(0, n_senders - 1)
            slot = rng.randint(0, ring_depth - 1)
            vpn = (recv_bases[idx] + slot * size) >> PAGE_SHIFT
            receiver.driver.invalidate_range(recv_mrs[idx], vpn,
                                             pages_per_slot)

    def prefault_rings():
        # Warm the ODP rings: cold-ring startup is fig4's experiment,
        # not this one — here only the storm's faults should count.
        for idx in range(n_senders):
            yield env.process(receiver.driver.prefault(
                recv_mrs[idx], recv_bases[idx], ring_depth * size))

    if memory == "npf":
        env.run(env.process(prefault_rings()))
        env.process(storm_proc(), name="storm")
    start = env.now
    for idx in range(n_senders):
        env.process(receiver_proc(idx), name=f"rx{idx}")
        env.process(sender_proc(idx), name=f"tx{idx}")
    env.run(until=env.any_of([done, env.timeout(5.0)]))
    elapsed = max(env.now - start, 1e-9)

    fault_lat = [e.latency for e in receiver.driver.log.npf_events
                 if e.n_pages > 0 and e.latency > 0]
    switch = topo.switches["sw0"]
    downlink = topo.link("sw0", "recv")
    return dict(
        net=net,
        memory=memory,
        goodput_gbps=(received[0] * size * 8) / elapsed / 1e9,
        p99_fault_us=(percentile(fault_lat, 99) / us) if fault_lat else 0.0,
        pfc_pauses=switch.pfc_pauses,
        retransmits=sum(q.retransmits for q in send_qps),
        rnr_nacks=sum(q.rnr_nacks_sent for q in recv_qps),
        lost=downlink.lost_packets,
        switch_drops=switch.dropped,
        delivered=received[0],
    )


def cells(n_senders: int = 16, loss_pct: float = 1.0, messages: int = 150,
          size: int = 16 * KB, seed: int = 11) -> List[Cell]:
    out: List[Cell] = []
    i = 0
    for net in NETS:
        for memory in MEMS:
            out.append(cell("rack-incast", i, cell_incast, net=net,
                            memory=memory, n_senders=n_senders,
                            loss_pct=loss_pct, messages=messages, size=size,
                            seed=seed))
            i += 1
    return out


def merge(sweep: Sequence[Cell], fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="rack-incast",
        title="N-to-1 incast: PFC vs lossy GBN vs lossy IRN under NPF",
        columns=["net", "memory", "goodput_gbps", "p99_fault_us",
                 "pfc_pauses", "retransmits", "rnr_nacks", "lost",
                 "switch_drops", "delivered"],
        scaling="16 senders, 150 msgs x 16KB each (paper cluster: 8 hosts)",
    )
    for row in fragments:
        result.add_row(**row)
    for regime in ("static", "npf"):
        by_net = {row["net"]: row["goodput_gbps"] for row in fragments
                  if row["memory"] == regime}
        if len(by_net) == len(NETS) and by_net["pfc"] > 0:
            deg_gbn = 1.0 - by_net["gbn"] / by_net["pfc"]
            deg_irn = 1.0 - by_net["irn"] / by_net["pfc"]
            result.notes.append(
                f"{regime}: goodput degradation vs lossless PFC — "
                f"gbn {deg_gbn:.1%}, irn {deg_irn:.1%}")
    return result
