"""Table 4 — tail latency of NPFs (50/95/99/max percentiles).

One cell per message size; each cell runs its own fault storm and
returns the measured percentiles.  The paper's reference numbers are
attached at merge time (they are presentation, not measurement).
"""

from __future__ import annotations

from typing import Any, List, Sequence

from ..core.costs import NpfCosts
from ..core.driver import NpfDriver
from ..core.npf import NpfSide
from ..iommu.iommu import Iommu
from ..mem.memory import Memory
from ..sim.engine import Environment
from ..sim.rng import Rng
from ..sim.stats import percentile
from ..sim.units import KB, MB, PAGE_SIZE, us
from .base import ExperimentResult
from .cells import Cell, cell

__all__ = ["cells", "merge", "cell_tail"]

PAPER = {
    "4KB": {"p50": 215, "p95": 250, "p99": 261, "max": 464},
    "4MB": {"p50": 352, "p95": 431, "p99": 440, "max": 687},
}


def cell_tail(label: str, size: int, samples: int, seed: int) -> dict:
    """Measure NPF latency percentiles for one message size."""
    env = Environment()
    memory = Memory(4 * 1024 * PAGE_SIZE)
    iommu = Iommu()
    driver = NpfDriver(env, iommu, costs=NpfCosts(rng=Rng(seed)))
    space = memory.create_space()
    n_pages = size // PAGE_SIZE
    region = space.mmap(2 * size)
    mr = driver.register_odp(space, region)
    base_vpn = region.vpns()[0]

    def faults():
        for i in range(samples):
            vpn = base_vpn + (i % 2) * n_pages
            yield driver.service_fault_async(mr, vpn, n_pages, NpfSide.SEND)
            # Unmap again so every iteration is a fresh minor fault.
            driver.invalidate_range(mr, vpn, n_pages)

    env.run(env.process(faults()))
    latencies = [e.latency for e in driver.log.npf_events if e.n_pages > 0]
    return dict(
        message=label,
        p50_us=percentile(latencies, 50) / us,
        p95_us=percentile(latencies, 95) / us,
        p99_us=percentile(latencies, 99) / us,
        max_us=max(latencies) / us,
    )


def cells(samples: int = 2000, seed: int = 7) -> List[Cell]:
    return [
        cell("table4", i, cell_tail, label=label, size=size,
             samples=samples, seed=seed)
        for i, (label, size) in enumerate((("4KB", 4 * KB), ("4MB", 4 * MB)))
    ]


def merge(sweep: Sequence[Cell], fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table-4",
        title="Tail latency of NPFs",
        columns=["message", "p50_us", "p95_us", "p99_us", "max_us",
                 "paper_p50", "paper_p99"],
        scaling="none (microbenchmark)",
    )
    for row in fragments:
        paper = PAPER[row["message"]]
        result.add_row(**row, paper_p50=paper["p50"], paper_p99=paper["p99"])
    return result
