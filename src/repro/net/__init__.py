"""Network fabric: packets, links, switches and topology helpers."""

from .fabric import connect_back_to_back
from .link import Link
from .packet import ETHERNET_HEADER, ETHERNET_MTU, IB_HEADER, IB_MTU, Packet
from .switch import PfcConfig, Switch
from .topology import (Edge, LinkSpec, SwitchSpec, Topology, TopologyError,
                       TopologySpec, rack_spec)

__all__ = [
    "connect_back_to_back",
    "Link",
    "Packet",
    "Switch",
    "PfcConfig",
    "Edge",
    "LinkSpec",
    "SwitchSpec",
    "Topology",
    "TopologyError",
    "TopologySpec",
    "rack_spec",
    "ETHERNET_HEADER",
    "ETHERNET_MTU",
    "IB_HEADER",
    "IB_MTU",
]
