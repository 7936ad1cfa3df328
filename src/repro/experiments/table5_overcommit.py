"""Table 5 — memory overcommitment with VM memcached instances.

The paper: an 8 GB host runs memcached VMs that each *think* they have
3 GB but whose working sets stay under 2 GB.  With NPF support four VMs
run productively (aggregate throughput scales); with static pinning the
IOprovider cannot even start the third VM, because 3 x 3 GB of pinned
guest memory exceeds physical memory.

Scaled by ``MEM_SCALE`` (1/64): 128 MB host, 48 MB VMs, 24 MB working
sets.

Each (instance count, npf-or-pin) point is one cell.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..apps.framing import MessageFramer
from ..apps.kvstore import KvServer
from ..apps.memaslap import Memaslap
from ..host.host import EthernetHost
from ..mem.memory import OutOfMemoryError
from ..net.fabric import connect_back_to_back
from ..nic.ethernet import RxMode
from ..sim.engine import Environment
from ..sim.rng import Rng
from ..sim.units import GB, Gbps, KB
from .base import ExperimentResult
from .cells import Cell, cell
from .config import scale_bytes, scaled_tcp_params

__all__ = ["run_config", "cells", "merge", "cell_instances"]

HOST_MEMORY = scale_bytes(8 * GB)       # 128 MB
VM_MEMORY = scale_bytes(3 * GB)         # 48 MB: what each VM pins/thinks it has
WORKING_SET = scale_bytes(3 * GB) // 2  # 24 MB (< the paper's "2 GB")


def run_config(n_instances: int, npf: bool, ops_per_vm: int = 2500,
               seed: int = 17) -> Optional[float]:
    """Aggregate KTPS for ``n_instances`` VMs, or None if launch fails."""
    MessageFramer.reset_registry()
    env = Environment()
    params = scaled_tcp_params()
    server = EthernetHost(env, "server", HOST_MEMORY)
    client = EthernetHost(env, "client", HOST_MEMORY)
    to_server, to_client = connect_back_to_back(
        env, client, server, rate_bps=12 * Gbps
    )
    server.nic.attach_link(to_client)
    client.nic.attach_link(to_server)

    mode = RxMode.BACKUP if npf else RxMode.PIN
    generators: List[Memaslap] = []
    try:
        for i in range(n_instances):
            vm = server.create_iouser(f"vm{i}", mode, ring_size=64,
                                      tcp_params=params)
            # The VM's guest-physical memory: what static pinning must pin.
            KvServer(vm, capacity_bytes=VM_MEMORY - 4 * 1024 * 1024,
                     item_value_size=1 * KB,
                     heap_bytes=VM_MEMORY)
            cli = client.create_iouser(f"cli{i}", RxMode.PIN, ring_size=256,
                                       tcp_params=params)
            generators.append(
                Memaslap(cli, "server", f"vm{i}", Rng(seed + i),
                         connections=4, n_keys=WORKING_SET // (4 * 1024),
                         think_time=0.001)
            )
    except OutOfMemoryError:
        return None

    done_events = [g.start(ops_limit=ops_per_vm) for g in generators]
    env.run(env.all_of(done_events))
    finish = max(ev.value for ev in done_events)
    total_ops = sum(g.completed_ops for g in generators)
    return (total_ops / finish) / 1000.0  # KTPS


def cell_instances(n_instances: int, npf: bool, ops_per_vm: int,
                   seed: int) -> Optional[float]:
    """One (instance count, registration mode) sweep point."""
    return run_config(n_instances, npf=npf, ops_per_vm=ops_per_vm, seed=seed)


def cells(max_instances: int = 4, ops_per_vm: int = 2500,
          seed: int = 17) -> List[Cell]:
    out: List[Cell] = []
    for n in range(1, max_instances + 1):
        for npf in (True, False):
            out.append(cell("table5", len(out), cell_instances,
                            n_instances=n, npf=npf, ops_per_vm=ops_per_vm,
                            seed=seed))
    return out


def merge(sweep: Sequence[Cell], fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table-5",
        title="Aggregate memcached throughput vs #VM instances (KTPS)",
        columns=["instances", "npf_ktps", "pinning_ktps"],
        scaling="memory /64 (8GB host -> 128MB; 3GB VMs -> 48MB)",
    )
    rows: Dict[int, dict] = {}
    for spec, ktps in zip(sweep, fragments):
        config = spec.kwargs()
        row = rows.setdefault(config["n_instances"],
                              {"instances": config["n_instances"]})
        if config["npf"]:
            row["npf_ktps"] = round(ktps, 1) if ktps is not None else "FAIL"
        else:
            row["pinning_ktps"] = round(ktps, 1) if ktps is not None else "N/A"
    for row in rows.values():
        result.add_row(**row)
    result.notes.append(
        "paper: NPF 186/311/407/484 KTPS for 1-4 instances; pinning matches "
        "for 1-2 and cannot launch 3+ (aggregate pinned memory > physical)"
    )
    return result
