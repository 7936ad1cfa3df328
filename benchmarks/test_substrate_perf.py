"""Perf-PR benchmarks: the hot paths the substrate optimization targets.

Companion to ``tools/bench_substrate.py`` (which records JSON evidence
for before/after comparisons); these pytest-benchmark variants keep the
same paths under continuous measurement:

* DES kernel event dispatch and process churn (``sim.engine``);
* bulk demand-paging (``AddressSpace.touch_range`` aggregate form);
* bulk IOMMU translation (``Iommu.translate_range(detail=False)``);
* streaming stats (``StreamingSummary`` / ``NpfLog(keep_events=False)``);
* one end-to-end experiment as the integration check.
"""

from repro.core.costs import NpfBreakdown
from repro.core.npf import NpfEvent, NpfKind, NpfLog, NpfSide
from repro.experiments.runner import run_experiment
from repro.iommu import Iommu
from repro.mem import Memory
from repro.sim import Environment
from repro.sim.stats import StreamingSummary
from repro.sim.units import PAGE_SIZE


def test_des_dispatch(benchmark):
    """Schedule + dispatch 50k timeouts through one process."""

    def run():
        env = Environment()

        def ticker():
            timeout = env.timeout
            for _ in range(50_000):
                yield timeout(1e-6)

        env.process(ticker())
        env.run()
        return env.now

    assert benchmark(run) > 0


def test_des_process_churn(benchmark):
    """Spawn/bootstrap/join 5k child processes (stresses _resume)."""

    def run():
        env = Environment()

        def child():
            yield env.timeout(1e-6)
            return 1

        def parent():
            total = 0
            for _ in range(5_000):
                total += yield env.process(child())
                yield None
            return total

        done = env.process(parent())
        env.run(done)
        return done.value

    assert benchmark(run) == 5_000


def test_touch_range_resident(benchmark):
    """Bulk touch of a fully resident 1024-page buffer (steady-state DMA)."""
    memory = Memory(4096 * PAGE_SIZE)
    space = memory.create_space()
    region = space.mmap(1024 * PAGE_SIZE)
    space.touch_range(region.base, region.size)  # warm

    def run():
        total_hits = 0
        for _ in range(50):
            total_hits += space.touch_range(region.base, region.size).hits
        return total_hits

    assert benchmark(run) == 50 * 1024


def test_touch_range_faulting(benchmark):
    """Cold bulk touches with LRU reclaim churn (4x overcommit)."""

    def run():
        memory = Memory(256 * PAGE_SIZE)
        space = memory.create_space()
        region = space.mmap(1024 * PAGE_SIZE)
        faults = space.touch_range(region.base, region.size)
        return faults.minors + faults.majors

    assert benchmark(run) == 1024


def test_iommu_translate_range_bulk(benchmark):
    """Bulk translation of a warm 128-page run, aggregate form."""
    iommu = Iommu(iotlb_capacity=256)
    dom = iommu.create_domain()
    for i in range(128):
        iommu.map(dom.domain_id, i, i + 1000)
    iommu.translate_range(dom.domain_id, 0, 128, detail=False)  # warm

    def run():
        mapped = 0
        for _ in range(100):
            mapped += iommu.translate_range(dom.domain_id, 0, 128,
                                            detail=False).mapped
        return mapped

    assert benchmark(run) == 100 * 128


def test_streaming_summary(benchmark):
    """Online count/sum/min/max + P2 percentiles over 20k samples."""

    def run():
        s = StreamingSummary()
        add = s.add
        for i in range(20_000):
            add(float(i % 997))
        return s.count

    assert benchmark(run) == 20_000


def test_npf_log_streaming_mode(benchmark):
    """NpfLog(keep_events=False): record 5k events without retaining them."""
    breakdown = NpfBreakdown(1.0, 2.0, 3.0, 4.0)

    def run():
        log = NpfLog(keep_events=False)
        record = log.record_npf
        for i in range(5_000):
            record(NpfEvent(time=float(i), side=NpfSide.SEND,
                            kind=NpfKind.MINOR, n_pages=1,
                            breakdown=breakdown))
        assert not log.npf_events
        return log.npf_summary().count

    assert benchmark(run) == 5_000


def test_e2e_fig3_small(benchmark):
    """End-to-end Figure 3 run — integration cost of all layers together."""

    def run():
        return run_experiment("fig3", samples=50, jobs=1, cache=False)

    assert benchmark(run) is not None
