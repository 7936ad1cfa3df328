"""InfiniBand testbed composition (the paper's §6 cluster nodes)."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.costs import NpfCosts
from ..core.driver import NpfDriver
from ..iommu.iommu import Iommu
from ..mem.memory import Memory
from ..net.fabric import connect_back_to_back
from ..net.switch import PfcConfig
from ..net.topology import Topology, rack_spec
from ..nic.infiniband import InfiniBandNic, QueuePair
from ..sim.engine import Environment
from ..sim.units import GB, Gbps

__all__ = ["IbHost", "ib_pair", "ib_rack", "connected_qp_pair"]


class IbHost:
    """One InfiniBand node: memory + IOMMU + driver + Connect-IB NIC."""

    def __init__(
        self,
        env: Environment,
        name: str,
        memory_bytes: int = 128 * GB,
        rate_bps: float = 56 * Gbps,
        costs: Optional[NpfCosts] = None,
    ):
        self.env = env
        self.name = name
        self.memory = Memory(memory_bytes)
        self.iommu = Iommu()
        self.driver = NpfDriver(env, self.iommu, costs=costs)
        self.nic = InfiniBandNic(env, name, self.driver, rate_bps=rate_bps,
                                 costs=costs)

    def receive(self, packet) -> None:  # Endpoint protocol
        self.nic.receive(packet)


def ib_pair(
    env: Environment,
    memory_bytes: int = 128 * GB,
    rate_bps: float = 56 * Gbps,
    propagation_delay: float = 1e-6,
    costs: Optional[NpfCosts] = None,
) -> Tuple[IbHost, IbHost]:
    """Two nodes of the paper's Connect-IB cluster, cabled together."""
    a = IbHost(env, "ib-a", memory_bytes, rate_bps, costs)
    b = IbHost(env, "ib-b", memory_bytes, rate_bps, costs)
    ab, ba = connect_back_to_back(env, a, b, rate_bps, propagation_delay)
    a.nic.attach_link(ab)
    b.nic.attach_link(ba)
    return a, b


def ib_rack(
    env: Environment,
    n_senders: int,
    memory_bytes: int = 128 * GB,
    rate_bps: float = 56 * Gbps,
    propagation_delay: float = 0.5e-6,
    egress_queue: Optional[int] = None,
    pfc: Optional[PfcConfig] = None,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
    costs: Optional[NpfCosts] = None,
) -> Tuple[List[IbHost], IbHost, Topology]:
    """An N-to-1 incast rack: senders ``s0..sN-1`` and ``recv`` behind
    one switch port.  Returns ``(senders, receiver, topology)``.

    ``egress_queue``/``pfc``/``loss_rate`` select the fabric flavour
    (see :class:`~repro.net.switch.Switch`): uncapped egress ports
    (lossless best effort, the default), finite lossy queues, or
    PFC-backpressured lossless.  Loss, if any, sits on the congested
    switch->receiver downlink; ACK and NACK return paths stay reliable.
    """
    spec = rack_spec(n_senders, receiver="recv", rate_bps=rate_bps,
                     propagation_delay=propagation_delay,
                     egress_queue=egress_queue, pfc=pfc,
                     loss_rate=loss_rate)
    senders = [IbHost(env, f"s{i}", memory_bytes, rate_bps, costs)
               for i in range(n_senders)]
    receiver = IbHost(env, "recv", memory_bytes, rate_bps, costs)
    topo = spec.build(env, senders + [receiver], loss_seed=loss_seed)
    for sender in senders:
        sender.nic.attach_link(topo.link(sender.name, "sw0"))
    receiver.nic.attach_link(topo.link("recv", "sw0"))
    return senders, receiver, topo


def connected_qp_pair(a: IbHost, b: IbHost,
                      max_outstanding: int = 8,
                      retransmit: str = "gbn",
                      loss_recovery: bool = False,
                      priority: int = 0,
                      rto: Optional[float] = None,
                      irn_bitmap: int = 64) -> Tuple[QueuePair, QueuePair]:
    """Create and connect one RC QP on each node.

    The retransmit-mode knobs apply to both ends (sender discipline and
    receiver NACK/buffer behaviour are two halves of one protocol).
    """
    qa = a.nic.create_qp(max_outstanding=max_outstanding,
                         retransmit=retransmit, loss_recovery=loss_recovery,
                         priority=priority, rto=rto, irn_bitmap=irn_bitmap)
    qb = b.nic.create_qp(max_outstanding=max_outstanding,
                         retransmit=retransmit, loss_recovery=loss_recovery,
                         priority=priority, rto=rto, irn_bitmap=irn_bitmap)
    qa.connect(qb)
    return qa, qb
