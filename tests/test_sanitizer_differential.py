"""DMAsan on vs off: the sanitized run computes the same numbers.

The sanitizer's hooks fire inside the one driver / IOMMU implementation
that produces every experiment output; no hook site switches to another
code path.  So a run under DMAsan must be byte-identical to one without
it.  Covered here: the cells that drive the NPF driver's fault,
batched-map and invalidation paths (fig3, table4, ablation-batching),
and a cell with the batch-pipeline options no experiment turns on
(fault coalescing, swap bursts, IOTLB warming) plus MMU-notifier
invalidations under memory pressure.
"""

import pytest

from repro.analysis import hooks
from repro.analysis.sanitizer import DmaSanitizer
from repro.core import NpfCosts, NpfDriver, NpfSide
from repro.experiments.base import ExperimentResult, results_to_json
from repro.experiments.runner import run_experiment
from repro.iommu import Iommu
from repro.mem import Memory
from repro.sim import Environment
from repro.sim.rng import Rng
from repro.sim.units import PAGE_SIZE


def _unsanitized(monkeypatch, run):
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    with hooks.session(None):
        return run()


def _sanitized(monkeypatch, run):
    # The runner wraps every cell in its own DMAsan session and raises
    # on any violation; the outer session covers code run outside cells.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    san = DmaSanitizer()
    with hooks.session(san):
        out = run()
        san.final_check()
    assert san.violations == [], san.summary()
    return out


@pytest.mark.parametrize("name,sizes", [
    ("fig3", {"samples": 10}),
    ("table4", {"samples": 20}),
    ("ablation-batching", {}),
], ids=["fig3", "table4", "ablation-batching"])
def test_experiment_cells_identical_under_dmasan(monkeypatch, name, sizes):
    def run():
        result = run_experiment(name, jobs=1, cache=False, **sizes)
        return results_to_json([result])

    plain = _unsanitized(monkeypatch, run)
    checked = _sanitized(monkeypatch, run)
    assert checked == plain


def _batch_options_result() -> ExperimentResult:
    """Coalesced, swap-bursting, IOTLB-warming faults plus evictions."""
    env = Environment()
    memory = Memory(16 * PAGE_SIZE)
    iommu = Iommu()
    driver = NpfDriver(env, iommu, costs=NpfCosts(rng=Rng(11)),
                       coalesce_faults=True, swap_burst=True,
                       warm_iotlb=True)
    space = memory.create_space("iouser")
    region = space.mmap(32 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    base = region.vpns()[0]
    other = memory.create_space("neighbor")
    hog = other.mmap(8 * PAGE_SIZE)

    def body():
        first = driver.service_fault_async(mr, base, 8, NpfSide.SEND, "qp0")
        merged = driver.service_fault_async(mr, base + 4, 8, NpfSide.SEND,
                                            "qp0")
        recv = driver.service_fault_async(mr, base + 12, 4,
                                          NpfSide.RECEIVE, "qp0")
        yield env.all_of([first, merged, recv])
        for vpn in range(base, base + 4):
            mr.translate(vpn)
        # Memory pressure: the notifier invalidates the evicted pages.
        other.touch_range(hog.base, hog.size)
        yield driver.service_fault_async(mr, base, 12, NpfSide.SEND, "qp1")
        driver.invalidate_range(mr, base, 32)

    env.run(env.process(body()))
    log = driver.log
    assert driver.coalesced_faults == 1
    assert log.major_count > 0
    assert any(not ev.was_mapped for ev in log.invalidation_events)
    result = ExperimentResult(
        experiment_id="batch-options",
        title="coalesce + swap burst + warm IOTLB",
        columns=["kind", "detail"],
    )
    for ev in log.npf_events:
        result.add_row(kind="npf", detail=[ev.time, ev.side.value,
                                           ev.kind.value, ev.n_pages,
                                           ev.latency, ev.channel])
    for ev in log.invalidation_events:
        result.add_row(kind="inv", detail=[ev.time, ev.vpn, ev.was_mapped,
                                           ev.latency])
    table = iommu.domain(mr.domain.domain_id)
    result.add_row(kind="counters", detail=[
        log.npf_count, log.invalidation_count, table.maps, table.unmaps,
        iommu.iotlb.hits, iommu.iotlb.misses, iommu.iotlb.invalidations,
        env.now,
    ])
    return result


def test_batch_options_cell_identical_under_dmasan(monkeypatch):
    def run():
        return results_to_json([_batch_options_result()])

    plain = _unsanitized(monkeypatch, run)
    checked = _sanitized(monkeypatch, run)
    assert checked == plain
