"""Topology helper: cable two endpoints back to back.

Endpoints are any objects exposing ``name`` (str) and ``receive(packet)``.
:func:`connect_back_to_back` reproduces the paper's Ethernet testbed (two
servers, NICs cabled directly).  It is a thin facade over the
declarative builder in :mod:`repro.net.topology`: it constructs a
two-host :class:`TopologySpec` and returns the two built links, so the
testbed and the rack-scale specs (:func:`~repro.net.topology.rack_spec`,
the InfiniBand cluster's switch fabric) share one
wiring/validation/routing path.
"""

from __future__ import annotations

from typing import Protocol, Tuple

from ..sim.engine import Environment
from .link import Link
from .packet import Packet
from .topology import Edge, LinkSpec, TopologySpec

__all__ = ["Endpoint", "connect_back_to_back"]


class Endpoint(Protocol):
    """Anything that can terminate a link."""

    name: str

    def receive(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


def connect_back_to_back(
    env: Environment,
    a: Endpoint,
    b: Endpoint,
    rate_bps: float,
    propagation_delay: float = 1e-6,
    rate_b_to_a: float | None = None,
) -> Tuple[Link, Link]:
    """Cable two endpoints directly; returns (link a->b, link b->a).

    ``rate_b_to_a`` allows asymmetric NICs, like the paper's 12 Gb/s
    NPF prototype server facing a 40 Gb/s stock client.
    """
    spec = TopologySpec(
        hosts=(a.name, b.name),
        edges=(Edge(a.name, b.name,
                    LinkSpec(rate_bps=rate_bps,
                             propagation_delay=propagation_delay,
                             reverse_rate_bps=rate_b_to_a)),),
    )
    topo = spec.build(env, (a, b))
    return topo.link(a.name, b.name), topo.link(b.name, a.name)

