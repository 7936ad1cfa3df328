"""Figure 7 — dynamic working sets: NPF vs static pinning.

Two memcached instances share one memory-capped host (the paper's 1 GB
cgroup).  At the switch point, one instance's working set grows 9x while
the other's shrinks 9x.  With NPFs the physical memory follows demand
and both instances end up equally served; with pinning, memory was
split 500/500 up front and whichever instance needs 900 MB is stuck at
~55 % hit rate.  The metric is hits/sec (memcached is an LRU cache; its
hit rate reflects its effective memory).

The two configurations (NPF, pinning) are independent cells — the
longest-running sweep in the suite parallelizes down to its slower
half.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from ..apps.framing import MessageFramer
from ..apps.kvstore import KvServer
from ..apps.memaslap import Memaslap
from ..host.host import EthernetHost
from ..net.fabric import connect_back_to_back
from ..nic.ethernet import RxMode
from ..sim.engine import Environment
from ..sim.rng import Rng
from ..sim.units import Gbps, KB, MB
from .base import ExperimentResult
from .cells import Cell, cell
from .config import scaled_tcp_params

__all__ = ["cells", "merge", "cell_mode"]

# Scaled from the paper's 100 MB / 900 MB working sets under a 1 GB cap.
SMALL_KEYS = 400      # ~1.6 MB at 4 KB per item slab
LARGE_KEYS = 3600     # ~14.1 MB
HOST_MEMORY = 20 * MB
PIN_SPLIT = 8 * MB    # the paper's static 500 MB per instance


def cell_mode(npf: bool, duration: float, switch_at: float,
              seed: int) -> Dict[str, List]:
    """One full dynamic-working-set run for one registration mode."""
    MessageFramer.reset_registry()
    env = Environment()
    params = scaled_tcp_params()
    server = EthernetHost(env, "server", HOST_MEMORY)
    client = EthernetHost(env, "client", 256 * MB)
    to_server, to_client = connect_back_to_back(env, client, server,
                                                rate_bps=12 * Gbps)
    server.nic.attach_link(to_client)
    client.nic.attach_link(to_server)
    mode = RxMode.BACKUP if npf else RxMode.PIN

    generators = []
    for i, initial_keys in enumerate((SMALL_KEYS, LARGE_KEYS)):
        vm = server.create_iouser(f"vm{i}", mode, ring_size=64,
                                  tcp_params=params)
        capacity = (HOST_MEMORY if npf else PIN_SPLIT)
        KvServer(vm, capacity_bytes=capacity, item_value_size=4 * KB - 256,
                 heap_bytes=18 * MB if npf else PIN_SPLIT)
        cli = client.create_iouser(f"cli{i}", RxMode.PIN, ring_size=256,
                                   tcp_params=params)
        generators.append(
            Memaslap(cli, "server", f"vm{i}", Rng(seed + i), connections=8,
                     get_ratio=0.9, n_keys=initial_keys,
                     value_size=4 * KB - 256,
                     report_interval=0.5, think_time=0.002,
                     set_on_miss=True)
        )

    for gen in generators:
        gen.start()
    env.run(until=switch_at)
    # The working sets trade places: 100MB -> 900MB and vice versa.
    generators[0].set_working_set(LARGE_KEYS)
    generators[1].set_working_set(SMALL_KEYS)
    env.run(until=duration)
    for gen in generators:
        gen.stop()
    return {
        "times": list(generators[0].hps.series.times),
        "grow": list(generators[0].hps.series.values),    # 10% -> 90%
        "shrink": list(generators[1].hps.series.values),  # 90% -> 10%
    }


def cells(duration: float = 6.0, switch_at: float = 2.0,
          seed: int = 23) -> List[Cell]:
    return [
        cell("fig7", i, cell_mode, npf=npf, duration=duration,
             switch_at=switch_at, seed=seed)
        for i, npf in enumerate((True, False))
    ]


def merge(sweep: Sequence[Cell], fragments: List[Any]) -> ExperimentResult:
    switch_at = dict(sweep[0].config)["switch_at"] if sweep else 0.0
    result = ExperimentResult(
        experiment_id="figure-7",
        title="Hits/sec with dynamic working sets (switch at "
              f"t={switch_at}s scaled)",
        columns=["time_s", "npf_grow", "npf_shrink", "pin_grow",
                 "pin_shrink", "npf_total", "pin_total"],
        scaling="memory ~1/32 of the paper's 1GB cgroup; time ~1/5 of "
                "the paper's 250s run",
    )
    npf, pin = fragments
    n = min(len(npf["times"]), len(pin["times"]))
    for i in range(n):
        result.add_row(
            time_s=npf["times"][i],
            npf_grow=npf["grow"][i],
            npf_shrink=npf["shrink"][i],
            pin_grow=pin["grow"][i],
            pin_shrink=pin["shrink"][i],
            npf_total=npf["grow"][i] + npf["shrink"][i],
            pin_total=pin["grow"][i] + pin["shrink"][i],
        )
    result.notes.append(
        "paper: with NPFs both instances converge to equal throughput after "
        "the switch; with pinning the 900MB-working-set instance is stuck "
        "with 500MB and suffers; aggregate NPF throughput wins"
    )
    return result
