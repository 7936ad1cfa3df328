"""Figure 3 — execution breakdown of NPFs and invalidations.

Drives real NPF service flows through the driver (4 KB and 4 MB work
requests, i.e. 1 and 1024 pages) and real MMU-notifier invalidations,
then reports the mean per-component latencies the paper plots.

The sweep decomposes into four cells (two NPF cases, two invalidation
cases); each builds its own environment and returns one row.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from ..core.driver import NpfDriver
from ..core.npf import NpfSide
from ..iommu.iommu import Iommu
from ..mem.memory import Memory
from ..sim.engine import Environment
from ..sim.rng import Rng
from ..sim.units import KB, MB, PAGE_SIZE, us
from ..core.costs import NpfCosts
from .base import ExperimentResult
from .cells import Cell, cell

__all__ = ["cells", "merge", "cell_npf", "cell_invalidation"]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def cell_npf(label: str, size: int, samples: int, seed: int,
             logs=None) -> dict:
    """One NPF breakdown case (4 KB or 4 MB faults); returns its row."""
    env = Environment()
    memory = Memory(4 * size)  # roomy: no reclaim noise in the breakdown
    iommu = Iommu()
    costs = NpfCosts(rng=Rng(seed))
    driver = NpfDriver(env, iommu, costs=costs)
    space = memory.create_space()
    n_pages = size // PAGE_SIZE
    region = space.mmap(2 * size)
    mr = driver.register_odp(space, region)
    base_vpn = region.vpns()[0]

    def faults():
        for i in range(samples):
            vpn = base_vpn + (i % 2) * n_pages
            yield driver.service_fault_async(mr, vpn, n_pages, NpfSide.SEND)
            driver.invalidate_range(mr, vpn, n_pages)

    env.run(env.process(faults()))
    if logs is not None:
        logs.append(driver.log)
    events = driver.log.npf_events
    return dict(
        case=label,
        interrupt_us=_mean([e.breakdown.trigger_interrupt for e in events]) / us,
        driver_us=_mean([e.breakdown.driver for e in events]) / us,
        update_pt_us=_mean([e.breakdown.update_pt for e in events]) / us,
        resume_us=_mean([e.breakdown.resume for e in events]) / us,
        total_us=_mean([e.latency for e in events]) / us,
        hw_fraction=_mean([e.breakdown.hardware_fraction for e in events]),
    )


def cell_invalidation(label: str, premap: bool, samples: int, seed: int,
                      logs=None) -> dict:
    """Invalidation flow, mapped vs never-mapped pages (Figure 3(b))."""
    env = Environment()
    memory = Memory(8 * 1024 * PAGE_SIZE)
    iommu = Iommu()
    costs = NpfCosts(rng=Rng(seed))
    driver = NpfDriver(env, iommu, costs=costs)
    space = memory.create_space()
    region = space.mmap(samples * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    if premap:
        env.run(env.process(driver.prefault(mr, region.base, region.size)))
    vpns = region.vpns()
    driver.invalidate_range(mr, vpns[0], len(vpns))
    if logs is not None:
        logs.append(driver.log)
    events = driver.log.invalidation_events
    return dict(
        case=label,
        interrupt_us=0.0,
        driver_us=_mean([e.breakdown.checks for e in events]) / us,
        update_pt_us=_mean([e.breakdown.update_pt for e in events]) / us,
        resume_us=_mean([e.breakdown.updates for e in events]) / us,
        total_us=_mean([e.latency for e in events]) / us,
        hw_fraction=0.0,
    )


def cells(samples: int = 200, seed: int = 42) -> List[Cell]:
    """The canonical sweep: two NPF cases, two invalidation cases.

    Every cell also takes ``logs=``: a list that collects each phase's
    :class:`NpfLog` when the cell runs in-process through
    ``cells.execute(spec, logs=logs)`` (the determinism tests compare
    full event streams this way).
    """
    return [
        cell("fig3", 0, cell_npf, label="npf-4KB", size=4 * KB,
             samples=samples, seed=seed),
        cell("fig3", 1, cell_npf, label="npf-4MB", size=4 * MB,
             samples=samples, seed=seed),
        cell("fig3", 2, cell_invalidation, label="invalidate-mapped",
             premap=True, samples=samples, seed=seed + 1),
        cell("fig3", 3, cell_invalidation, label="invalidate-unmapped",
             premap=False, samples=samples, seed=seed + 1),
    ]


def merge(sweep: Sequence[Cell], fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="figure-3",
        title="Execution breakdown of NPF and invalidation",
        columns=["case", "interrupt_us", "driver_us", "update_pt_us",
                 "resume_us", "total_us", "hw_fraction"],
        scaling="none (microbenchmark, paper-calibrated constants)",
    )
    for row in fragments:
        result.add_row(**row)
    result.notes.append(
        "paper: 4KB NPF ~220us (90% hw), 4MB ~350us; invalidations cheaper, "
        "dominated by the hw page-table update when the page was mapped"
    )
    result.notes.append(
        "invalidate-* rows map Figure 3(b)'s components onto the columns: "
        "driver_us=checks [sw], update_pt_us=update hw PT [sw+hw], "
        "resume_us=updates [sw]"
    )
    return result
