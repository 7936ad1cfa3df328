"""Declarative rack-scale topology builder.

A :class:`TopologySpec` declares an arbitrary fabric **as data** —
hosts, switches, link specs and oversubscription budgets — and
:meth:`TopologySpec.build` turns it into live :class:`~repro.net.link.Link`
and :class:`~repro.net.switch.Switch` objects with deterministic wiring:

* **validation** — duplicate names, dangling edge endpoints, switch port
  budgets and declared oversubscription ceilings are all rejected before
  anything is instantiated;
* **routing** — per-switch forwarding tables are computed with a
  breadth-first search from every destination host, with deterministic
  tie-breaks (declaration order), so every host pair is routed or the
  build fails with the unreachable pair named;
* **reproducibility** — building the same spec twice produces the same
  objects in the same order; :meth:`Topology.wiring` returns the
  canonical wiring transcript (used by the property tests to assert
  byte-identical construction).

Switches built in PFC mode (``SwitchSpec.egress_queue`` +
``SwitchSpec.pfc``) get their per-priority PAUSE plumbing wired
automatically: every egress port knows the upstream pause handles —
neighbouring switches' egress ports or host uplinks — that feed it, in
declaration order.

Example::

    spec = TopologySpec(
        hosts=("s0", "s1", "recv"),
        switches=(SwitchSpec("sw0", ports=3, egress_queue=64,
                             pfc=PfcConfig(xoff=48, xon=16)),),
        edges=(
            Edge("s0", "sw0", LinkSpec(rate_bps=10 * Gbps)),
            Edge("s1", "sw0", LinkSpec(rate_bps=10 * Gbps)),
            Edge("sw0", "recv", LinkSpec(rate_bps=10 * Gbps)),
        ),
    )
    topo = spec.build(env, endpoints=[s0, s1, recv])
    topo.link("s0", "sw0").send(packet)          # first hop
    topo.switches["sw0"].forwarded               # counters
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.engine import Environment
from ..sim.rng import derive_seed, Rng
from .link import Link
from .switch import PfcConfig, Switch

__all__ = ["LinkSpec", "SwitchSpec", "Edge", "TopologySpec", "Topology",
           "TopologyError"]


class TopologyError(ValueError):
    """A topology spec failed validation (before anything was built)."""


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """Parameters of one (bidirectional) cable.

    ``reverse_rate_bps`` allows asymmetric cables (the paper's 12 Gb/s
    NPF prototype facing a 40 Gb/s stock peer); ``loss_rate`` arms the
    link's seeded random-loss model in the forward direction (the
    declaration order ``a -> b``), modelling a lossy fabric for the
    go-back-N vs IRN comparison.
    """

    rate_bps: float
    propagation_delay: float = 1e-6
    buffer_packets: int = 1024
    reverse_rate_bps: Optional[float] = None
    loss_rate: float = 0.0
    loss_both_ways: bool = False

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise TopologyError("link rate must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise TopologyError(f"loss_rate must be in [0, 1): {self.loss_rate}")


@dataclass(frozen=True, slots=True)
class SwitchSpec:
    """One switch: port budget, queueing discipline and PFC config.

    ``ports`` bounds how many edges may terminate here (0 = unlimited).
    ``egress_queue`` caps each egress port's occupancy (packets beyond
    it are dropped — a *lossy* fabric; ``None`` leaves ports uncapped);
    adding ``pfc`` layers per-priority PAUSE backpressure on top, making
    the fabric lossless up to the PFC thresholds.
    ``oversubscription`` is a declared ceiling on the ratio of attached
    ingress capacity to any single egress port's rate; builds whose
    wiring exceeds it are rejected (the knob exists so a spec *states*
    its contention level instead of smuggling it in).
    """

    name: str
    ports: int = 0
    egress_queue: Optional[int] = None
    pfc: Optional[PfcConfig] = None
    oversubscription: Optional[float] = None


@dataclass(frozen=True, slots=True)
class Edge:
    """One cable between two named nodes (host or switch)."""

    a: str
    b: str
    spec: LinkSpec = field(default_factory=lambda: LinkSpec(rate_bps=10e9))


class Topology:
    """The built fabric: live links, switches, routes and a transcript."""

    __slots__ = ("spec", "switches", "links", "routes", "_wiring")

    def __init__(self, spec: "TopologySpec", switches: Dict[str, Switch],
                 links: Dict[Tuple[str, str], Link],
                 routes: Dict[str, Dict[str, str]],
                 wiring: List[str]):
        self.spec = spec
        self.switches = switches
        self.links = links
        #: per-switch forwarding tables: switch -> dest host -> next hop
        self.routes = routes
        self._wiring = wiring

    def link(self, a: str, b: str) -> Link:
        """The directed link ``a -> b`` (raises ``KeyError`` if absent)."""
        return self.links[(a, b)]

    def wiring(self) -> List[str]:
        """Canonical wiring transcript, line per construction step.

        Two builds of the same spec return identical transcripts — the
        property tests assert this byte for byte.
        """
        return list(self._wiring)

    def path(self, src: str, dst: str) -> List[str]:
        """Hop sequence from host ``src`` to host ``dst`` (inclusive)."""
        hops = [src]
        here = src
        visited = {src}
        while here != dst:
            if here in self.routes:                      # at a switch
                nxt = self.routes[here].get(dst)
                if nxt is None:
                    raise TopologyError(f"no route {src}->{dst} at {here}")
            else:                                        # at a host
                nxt = self.spec.neighbor_of_host(here, dst)
            if nxt in visited:
                raise TopologyError(f"routing loop {src}->{dst} at {nxt}")
            visited.add(nxt)
            hops.append(nxt)
            here = nxt
        return hops


@dataclass(frozen=True, slots=True)
class TopologySpec:
    """A rack fabric declared as data.  See the module docstring."""

    hosts: Tuple[str, ...] = ()
    switches: Tuple[SwitchSpec, ...] = ()
    edges: Tuple[Edge, ...] = ()

    # -- validation helpers ------------------------------------------------
    def node_names(self) -> Tuple[str, ...]:
        return tuple(self.hosts) + tuple(s.name for s in self.switches)

    def validate(self) -> None:
        """Raise :class:`TopologyError` on any structural defect."""
        names = self.node_names()
        seen = set()
        for name in names:
            if name in seen:
                raise TopologyError(f"duplicate node name {name!r}")
            seen.add(name)
        if not self.hosts:
            raise TopologyError("a topology needs at least one host")
        switch_names = {s.name for s in self.switches}
        degree: Dict[str, int] = {}
        edge_seen = set()
        for edge in self.edges:
            for end in (edge.a, edge.b):
                if end not in seen:
                    raise TopologyError(f"edge endpoint {end!r} is not "
                                        "a declared host or switch")
            if edge.a == edge.b:
                raise TopologyError(f"self-loop edge at {edge.a!r}")
            key = (edge.a, edge.b)
            if key in edge_seen or (edge.b, edge.a) in edge_seen:
                raise TopologyError(f"duplicate edge {edge.a!r}<->{edge.b!r}")
            edge_seen.add(key)
            degree[edge.a] = degree.get(edge.a, 0) + 1
            degree[edge.b] = degree.get(edge.b, 0) + 1
        for host in self.hosts:
            if degree.get(host, 0) == 0:
                raise TopologyError(f"host {host!r} has no edge")
            if degree[host] > 1 and host not in switch_names:
                # Hosts are single-homed in this model: one NIC, one cable.
                raise TopologyError(f"host {host!r} is multi-homed "
                                    f"({degree[host]} edges)")
        for sw in self.switches:
            if sw.ports and degree.get(sw.name, 0) > sw.ports:
                raise TopologyError(
                    f"switch {sw.name!r} exceeds its port budget: "
                    f"{degree.get(sw.name, 0)} edges > {sw.ports} ports")
            if sw.pfc is not None and sw.egress_queue is None:
                raise TopologyError(
                    f"switch {sw.name!r} declares pfc without egress_queue")
            if sw.oversubscription is not None:
                self._check_oversubscription(sw)
        self._check_routable()

    def _check_oversubscription(self, sw: SwitchSpec) -> None:
        """Ingress capacity into ``sw`` must not exceed the declared
        ratio over its slowest egress port."""
        rates = []
        for edge in self.edges:
            if sw.name == edge.a or sw.name == edge.b:
                into = (edge.spec.reverse_rate_bps
                        if edge.a == sw.name and edge.spec.reverse_rate_bps
                        else edge.spec.rate_bps)
                rates.append(into)
        if len(rates) < 2:
            return
        total_in = sum(rates)
        for rate in rates:
            ratio = (total_in - rate) / rate
            if ratio > sw.oversubscription + 1e-9:
                raise TopologyError(
                    f"switch {sw.name!r} oversubscribed {ratio:.2f}:1, "
                    f"declared ceiling {sw.oversubscription}:1")

    def neighbors(self, name: str) -> List[str]:
        """Adjacent node names, in edge-declaration order."""
        out = []
        for edge in self.edges:
            if edge.a == name:
                out.append(edge.b)
            elif edge.b == name:
                out.append(edge.a)
        return out

    def neighbor_of_host(self, host: str, dst: str) -> str:
        """A host's single next hop (its one cable's far end)."""
        nbrs = self.neighbors(host)
        if len(nbrs) == 1:
            return nbrs[0]
        if dst in nbrs:
            return dst
        raise TopologyError(f"host {host!r} has ambiguous next hop")

    def _check_routable(self) -> None:
        routes = self.compute_routes()
        for src in self.hosts:
            for dst in self.hosts:
                if src == dst:
                    continue
                here = self.neighbor_of_host(src, dst)
                hops = 0
                while here != dst:
                    if here not in routes or routes[here].get(dst) is None:
                        raise TopologyError(
                            f"no route from {src!r} to {dst!r} "
                            f"(stuck at {here!r})")
                    here = routes[here][dst]
                    hops += 1
                    if hops > len(self.edges) + 1:
                        raise TopologyError(
                            f"routing loop between {src!r} and {dst!r}")

    # -- routing ----------------------------------------------------------------
    def compute_routes(self) -> Dict[str, Dict[str, str]]:
        """Per-switch forwarding tables: switch -> dest host -> next hop.

        BFS outward from every destination host over the undirected
        graph; at equal distance the neighbour declared first wins, so
        the tables are a pure function of the spec.
        """
        adjacency: Dict[str, List[str]] = {n: [] for n in self.node_names()}
        for edge in self.edges:
            adjacency[edge.a].append(edge.b)
            adjacency[edge.b].append(edge.a)
        switch_names = [s.name for s in self.switches]
        routes: Dict[str, Dict[str, str]] = {n: {} for n in switch_names}
        for dst in self.hosts:
            # BFS tree rooted at dst: each node's parent is its next hop
            # towards dst.  Deterministic: neighbours expand in
            # declaration order, first visit wins.
            parent: Dict[str, str] = {dst: dst}
            frontier = deque((dst,))
            while frontier:
                here = frontier.popleft()
                if here != dst and here in adjacency and here not in routes:
                    continue  # hosts do not forward transit traffic
                for nxt in adjacency[here]:
                    if nxt not in parent:
                        parent[nxt] = here
                        frontier.append(nxt)
            for sw in switch_names:
                if sw in parent:
                    routes[sw][dst] = parent[sw]
        return routes

    # -- building ---------------------------------------------------------------
    def build(self, env: Environment, endpoints: Iterable[object],
              loss_seed: int = 0) -> Topology:
        """Instantiate the fabric.

        ``endpoints`` supplies one object per declared host (matched by
        ``.name``); each must expose ``receive(packet)``.  ``loss_seed``
        seeds the per-link loss RNGs (each link forks its own stream
        from it, so adding a link never shifts another link's draws).
        """
        self.validate()
        by_name = {}
        for ep in endpoints:
            by_name[ep.name] = ep
        missing = [h for h in self.hosts if h not in by_name]
        if missing:
            raise TopologyError(f"no endpoint supplied for host(s) "
                                f"{', '.join(repr(m) for m in missing)}")

        wiring: List[str] = []
        switches: Dict[str, Switch] = {}
        for sw in self.switches:
            switches[sw.name] = Switch(env, name=sw.name,
                                       egress_queue=sw.egress_queue, pfc=sw.pfc)
            mode = ("pfc" if sw.pfc is not None
                    else "lossy" if sw.egress_queue is not None
                    else "lossless")
            wiring.append(f"switch {sw.name} mode={mode} "
                          f"queue={sw.egress_queue} ports={sw.ports or '*'}")

        links: Dict[Tuple[str, str], Link] = {}
        receivers = {}
        for name, sw in switches.items():
            receivers[name] = sw.receive
        for name, ep in by_name.items():
            receivers[name] = ep.receive

        for edge in self.edges:
            spec = edge.spec
            for src, dst, rate, lossy in (
                (edge.a, edge.b, spec.rate_bps, True),
                (edge.b, edge.a, spec.reverse_rate_bps or spec.rate_bps,
                 spec.loss_both_ways),
            ):
                loss = spec.loss_rate if lossy else 0.0
                link = Link(
                    env, rate, spec.propagation_delay,
                    buffer_packets=spec.buffer_packets,
                    name=f"{src}->{dst}",
                    loss_rate=loss,
                    loss_rng=(Rng(derive_seed(loss_seed, "loss", src, dst),
                                  name=f"loss:{src}->{dst}")
                              if loss > 0.0 else None),
                )
                link.connect(receivers[dst])
                links[(src, dst)] = link
                wiring.append(f"link {src}->{dst} rate={rate:g} "
                              f"delay={spec.propagation_delay:g} "
                              f"buf={spec.buffer_packets} loss={loss:g}")

        routes = self.compute_routes()
        # Attach egress ports: every destination host maps, per switch, to
        # the link towards its next hop (ports towards another switch are
        # shared by every destination behind it).
        for sw_spec in self.switches:
            sw = switches[sw_spec.name]
            table = routes[sw_spec.name]
            for dst in self.hosts:
                nxt = table.get(dst)
                if nxt is None:
                    continue
                egress = links[(sw_spec.name, nxt)]
                sw.attach(dst, egress)
                wiring.append(f"attach {sw_spec.name}: {dst} via {nxt}")
        # PFC pause targets are registered in a second pass: a neighbor
        # switch's egress port towards us only exists once ITS attach
        # pass ran, and with cyclic wiring that can be after ours.
        for sw_spec in self.switches:
            if sw_spec.pfc is None:
                continue
            sw = switches[sw_spec.name]
            table = routes[sw_spec.name]
            for dst in self.hosts:
                nxt = table.get(dst)
                if nxt is None:
                    continue
                for nbr in self.neighbors(sw_spec.name):
                    if nbr == nxt:
                        continue
                    if nbr in switches and routes[nbr].get(dst) != sw_spec.name:
                        # That neighbor never forwards dst through us
                        # (possible once the graph has cycles) — no
                        # traffic to pause.
                        continue
                    if nbr in switches:
                        handle = switches[nbr].port_towards(sw_spec.name)
                    else:
                        handle = sw.link_pause_handle(
                            links[(nbr, sw_spec.name)])
                    sw.register_pfc_upstream(dst, handle)
                    wiring.append(f"pfc-upstream {sw_spec.name}: "
                                  f"{dst} <- {nbr}")
        return Topology(self, switches, links, routes, wiring)


def rack_spec(n_senders: int, receiver: str = "recv",
              rate_bps: float = 10e9, propagation_delay: float = 0.5e-6,
              egress_queue: Optional[int] = None,
              pfc: Optional[PfcConfig] = None,
              loss_rate: float = 0.0,
              uplink_buffer: int = 4096,
              sender_prefix: str = "s") -> TopologySpec:
    """The canonical N-to-1 incast rack: N senders, one switch, one
    receiver behind the single (congested) egress port.

    Loss, when requested, is injected on the switch->receiver downlink —
    the hot direction — leaving ACK/NACK return paths reliable.
    """
    senders = tuple(f"{sender_prefix}{i}" for i in range(n_senders))
    edges: List[Edge] = [
        Edge(s, "sw0", LinkSpec(rate_bps=rate_bps,
                                propagation_delay=propagation_delay,
                                buffer_packets=uplink_buffer))
        for s in senders
    ]
    edges.append(Edge("sw0", receiver,
                      LinkSpec(rate_bps=rate_bps,
                               propagation_delay=propagation_delay,
                               buffer_packets=uplink_buffer,
                               loss_rate=loss_rate)))
    return TopologySpec(
        hosts=senders + (receiver,),
        switches=(SwitchSpec("sw0", ports=n_senders + 1,
                             egress_queue=egress_queue, pfc=pfc,
                             oversubscription=float(n_senders)),),
        edges=tuple(edges),
    )


__all__.append("rack_spec")
