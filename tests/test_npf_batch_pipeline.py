"""Tests for the batched NPF fault-service pipeline.

Covers batched work-request faults, fault coalescing, the invalidation
loop against the composed per-page unmap/breakdown/record reference,
the bulk page-in / range-install paths, and the swap-burst batch
amortization.
"""

import pytest

from repro.analysis import hooks
from repro.core import NpfCosts, NpfDriver, NpfSide
from repro.core.npf import InvalidationEvent
from repro.iommu import Iommu
from repro.iommu.iotlb import Iotlb
from repro.iommu.page_table import IoPageTable
from repro.mem import Memory
from repro.sim import Environment
from repro.sim.rng import Rng
from repro.sim.units import PAGE_SIZE


def make_stack(mem_pages=64, seed=None, **driver_kwargs):
    env = Environment()
    memory = Memory(mem_pages * PAGE_SIZE)
    iommu = Iommu()
    costs = NpfCosts(rng=Rng(seed)) if seed is not None else None
    driver = NpfDriver(env, iommu, costs=costs, **driver_kwargs)
    return env, memory, iommu, driver


def test_batched_wqe_fault_matches_n_pages_aggregate():
    """One 4-page WQE pre-fault == one NpfEvent covering all four pages."""
    env, memory, iommu, driver = make_stack(seed=11)
    space = memory.create_space()
    region = space.mmap(8 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    base = region.vpns()[0]

    def body():
        yield driver.service_fault_async(mr, base, 4, NpfSide.SEND)

    env.run(env.process(body()))
    assert driver.log.npf_count == 1
    (event,) = driver.log.npf_events
    assert event.n_pages == 4
    assert mr.domain.all_mapped(base, 4)
    # Batch amortization: fixed per-batch cost plus per-page increments.
    costs = driver.costs
    assert event.breakdown.driver == costs.os_batch_time(4)
    assert costs.os_batch_time(4) == costs.driver_base + 4 * costs.os_per_page


# ------------------------------------------------------- fault coalescing
def test_coalescing_merges_overlapping_faults():
    env, memory, iommu, driver = make_stack(coalesce_faults=True)
    space = memory.create_space()
    region = space.mmap(16 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    base = region.vpns()[0]

    first = driver.service_fault_async(mr, base, 4, NpfSide.SEND, "qp0")
    second = driver.service_fault_async(mr, base + 2, 4, NpfSide.SEND, "qp0")
    # The overlapping fault merged into the pre-OS window of the first:
    # both callers complete on the same event, one round-trip total.
    assert second is first
    assert driver.coalesced_faults == 1

    def body():
        yield first

    env.run(env.process(body()))
    assert driver.log.npf_count == 1
    (event,) = driver.log.npf_events
    assert event.n_pages == 6  # widened to [base, base+6)
    assert mr.domain.all_mapped(base, 6)


def test_coalescing_only_merges_same_class():
    env, memory, iommu, driver = make_stack(coalesce_faults=True)
    space = memory.create_space()
    region = space.mmap(16 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    base = region.vpns()[0]
    a = driver.service_fault_async(mr, base, 2, NpfSide.SEND, "qp0")
    b = driver.service_fault_async(mr, base, 2, NpfSide.RECEIVE, "qp0")
    c = driver.service_fault_async(mr, base + 8, 2, NpfSide.SEND, "qp1")
    assert b is not a and c is not a
    assert driver.coalesced_faults == 0

    def body():
        yield env.all_of([a, b, c])

    env.run(env.process(body()))
    assert driver.log.npf_count == 3


def test_coalescing_preserves_class_concurrency_bound():
    """A merged fault takes no extra slot; distinct ranges serialize."""
    env, memory, iommu, driver = make_stack(coalesce_faults=True)
    space = memory.create_space()
    region = space.mmap(32 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    base = region.vpns()[0]
    events = [
        driver.service_fault_async(mr, base + 8 * i, 2, NpfSide.SEND, "qp0")
        for i in range(3)
    ]
    assert len(set(map(id, events))) == 3  # disjoint ranges: no merge
    slot = driver._slot_for("qp0", NpfSide.SEND)
    assert slot.capacity == 1  # one in-flight NPF per (channel, side) class

    def body():
        yield env.all_of(events)

    env.run(env.process(body()))
    assert driver.log.npf_count == 3


# ------------------------------------------------ invalidate_range parity
class _UnmapRecorder:
    """Hook observer recording the unmap events and the state they see.

    ``on_pt_unmap`` notes whether the PTE is already gone;
    ``on_iommu_unmap`` notes whether the IOTLB entry is already shot
    down.  Every other hook is accepted and ignored.
    """

    def __init__(self):
        self.calls = []

    def on_pt_unmap(self, table, iopn):
        self.calls.append(("pt", table.domain_id, iopn,
                           table.is_mapped(iopn)))

    def on_iommu_unmap(self, iommu, domain_id, iopn, n_pages):
        cached = any((domain_id, p) in iommu.iotlb._cache
                     for p in range(iopn, iopn + n_pages))
        self.calls.append(("iommu", domain_id, iopn, n_pages, cached))

    def __getattr__(self, name):
        if name.startswith("on_"):
            return lambda *args, **kwargs: None
        raise AttributeError(name)


def _invalidation_run(mode):
    """Fault 4 of 8 pages in, warm two IOTLB entries, invalidate all 8.

    ``mode`` is ``"range"`` (one :meth:`NpfDriver.invalidate_range`),
    ``"page"`` (per-page :meth:`NpfDriver.invalidate`) or
    ``"reference"`` — the composed per-page flow built here from
    ``Iommu.unmap`` + ``NpfCosts.invalidation_breakdown`` +
    ``NpfLog.record_invalidation``.
    """
    recorder = _UnmapRecorder()
    with hooks.session(recorder):
        env, memory, iommu, driver = make_stack(seed=5)
        space = memory.create_space()
        region = space.mmap(8 * PAGE_SIZE)
        mr = driver.register_odp(space, region)
        base = region.vpns()[0]
        domain_id = mr.domain.domain_id
        env.run(driver.service_fault_async(mr, base, 4, NpfSide.SEND))
        mr.translate(base + 1)
        mr.translate(base + 3)
        assert len(iommu.iotlb) == 2
        del recorder.calls[:]
        if mode == "range":
            total = driver.invalidate_range(mr, base, 8)
        elif mode == "page":
            total = 0.0
            for vpn in range(base, base + 8):
                total += driver.invalidate(mr, vpn)
        else:
            total = 0.0
            for vpn in range(base, base + 8):
                was_mapped = iommu.unmap(domain_id, vpn)
                breakdown = driver.costs.invalidation_breakdown(was_mapped)
                driver.log.record_invalidation(
                    InvalidationEvent(env.now, vpn, was_mapped, breakdown))
                total += breakdown.total
    table = iommu.domain(domain_id)
    return dict(
        total=total,
        events=driver.log.invalidation_events,
        count=driver.log.invalidation_count,
        unmaps=table.unmaps,
        entries=dict(table._entries),
        iotlb=dict(iommu.iotlb._cache),
        shootdowns=iommu.iotlb.invalidations,
        rng=driver.costs.rng._random.getstate(),
        hooks=recorder.calls,
    )


def test_invalidate_range_matches_per_page_loop():
    want = _invalidation_run("reference")
    for mode in ("range", "page"):
        got = _invalidation_run(mode)
        assert got["total"] == want["total"], mode    # same draws, same sum
        assert got["events"] == want["events"], mode  # incl. breakdowns
        for key in ("count", "unmaps", "entries", "iotlb", "shootdowns",
                    "rng"):
            assert got[key] == want[key], (mode, key)
    assert len(want["events"]) == 8
    assert sum(ev.was_mapped for ev in want["events"]) == 4
    assert want["iotlb"] == {}


def test_invalidate_range_fires_per_page_unmap_hooks():
    want = _invalidation_run("reference")["hooks"]
    for mode in ("range", "page"):
        assert _invalidation_run(mode)["hooks"] == want, mode
    # One on_pt_unmap per mapped page, after its PTE is gone, and one
    # on_iommu_unmap per page (mapped or not) after its shootdown.
    kinds = [c[0] for c in want]
    assert kinds.count("pt") == 4 and kinds.count("iommu") == 8
    assert not any(c[3] for c in want if c[0] == "pt")
    assert not any(c[4] for c in want if c[0] == "iommu")


# ------------------------------------------------- bulk page-in / batches
def test_swap_burst_batches_major_reads():
    latencies = {}
    for burst in (False, True):
        env = Environment()
        memory = Memory(8 * PAGE_SIZE)
        space = memory.create_space()
        region = space.mmap(16 * PAGE_SIZE)
        for vpn in region.vpns():  # evict the first half to swap
            space.touch_page(vpn)
        swapped = region.vpns()[:4]
        assert all(memory.swap.holds(space.asid, v) for v in swapped)
        result = space.touch_vpns(list(swapped), swap_burst=burst)
        assert result.majors == 4
        latencies[burst] = result.latency
    swap = memory.swap
    seek_saving = 3 * (swap.read_latency(1) - swap.read_transfer_latency(1))
    # A burst pays one seek; majors 2..4 pay transfer only.
    assert latencies[True] < latencies[False]
    assert latencies[False] - latencies[True] == pytest.approx(
        seek_saving, rel=1e-12)


def test_swap_load_batch_matches_sequential_loads():
    env = Environment()
    memory = Memory(4 * PAGE_SIZE)
    swap = memory.swap
    for vpn in (1, 2, 3):
        swap.store(0, vpn)
    latency = swap.load_batch([(0, 1), (0, 2), (0, 3)])
    assert latency == swap.read_latency(3)
    assert swap.reads == 3
    assert not any(swap.holds(0, v) for v in (1, 2, 3))
    with pytest.raises(KeyError):
        swap.load_batch([(0, 9)])


def test_page_table_map_batch_matches_sequential_maps():
    a, b = IoPageTable(domain_id=1), IoPageTable(domain_id=1)
    entries = {10: 100, 11: 101, 12: 102}
    a.map_batch(entries)
    for iopn, frame in entries.items():
        b.map(iopn, frame)
    assert a._entries == b._entries
    assert a.maps == b.maps == 3
    with pytest.raises(ValueError):
        a.map_batch({20: 200, 21: -1})
    assert a.all_mapped(10, 3)
    assert not a.all_mapped(10, 4)


def test_iotlb_fill_batch_matches_sequential_fills():
    a, b = Iotlb(capacity=4), Iotlb(capacity=4)
    entries = {i: 100 + i for i in range(6)}
    a.fill_batch(1, entries)
    for iopn, frame in entries.items():
        b.fill(1, iopn, frame)
    assert a._cache == b._cache
    assert list(a._cache) == list(b._cache)  # same LRU order
    assert len(a._cache) == 4  # trimmed to capacity


def test_warm_iotlb_preloads_batch_translations():
    env, memory, iommu, driver = make_stack(warm_iotlb=True)
    space = memory.create_space()
    region = space.mmap(8 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    base = region.vpns()[0]

    def body():
        yield driver.service_fault_async(mr, base, 4, NpfSide.SEND)

    env.run(env.process(body()))
    cached = [k for k in iommu.iotlb._cache if k[0] == mr.domain.domain_id]
    assert len(cached) == 4


def test_lru_touch_range_matches_per_page_touches():
    orders = []
    for bulk in (True, False):
        env = Environment()
        memory = Memory(8 * PAGE_SIZE)
        space = memory.create_space()
        region = space.mmap(6 * PAGE_SIZE)
        for vpn in region.vpns():
            space.touch_page(vpn)
        first = region.vpns()[0]
        if bulk:
            memory._lru_touch_range(space.asid, first, 3)
        else:
            for vpn in range(first, first + 3):
                space.touch_page(vpn)
        orders.append(list(memory._lru))
    assert orders[0] == orders[1]
