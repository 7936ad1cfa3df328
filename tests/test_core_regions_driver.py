"""Tests for memory regions (pinned/ODP) and the NPF driver flows."""

import pytest

from repro.core import NpfCosts, NpfDriver, NpfKind, NpfSide
from repro.iommu import Iommu
from repro.mem import Memory, OutOfMemoryError
from repro.sim import Environment
from repro.sim.units import MB, PAGE_SIZE, us


def make_stack(mem_pages=64, **driver_kwargs):
    env = Environment()
    memory = Memory(mem_pages * PAGE_SIZE)
    iommu = Iommu()
    driver = NpfDriver(env, iommu, **driver_kwargs)
    return env, memory, iommu, driver


# ------------------------------------------------------------- pinned MRs
def test_pinned_mr_maps_everything_up_front():
    env, memory, iommu, driver = make_stack()
    space = memory.create_space()
    region = space.mmap(4 * PAGE_SIZE)
    mr = driver.register_pinned(space, region)
    assert mr.registration_latency > 0
    for vpn in region.vpns():
        assert space.is_pinned(vpn)
        assert not mr.translate(vpn).fault


def test_pinned_mr_never_evicted():
    env, memory, iommu, driver = make_stack(mem_pages=4)
    space = memory.create_space()
    pinned_region = space.mmap(2 * PAGE_SIZE)
    driver.register_pinned(space, pinned_region)
    other = space.mmap(8 * PAGE_SIZE)
    # Thrash the rest of memory; pinned pages must survive.
    for vpn in other.vpns():
        space.touch_page(vpn)
    for vpn in pinned_region.vpns():
        assert space.is_present(vpn)


def test_pinned_mr_fails_when_memory_too_small():
    """Static pinning of a too-big space fails (Table 5's N/A)."""
    env, memory, iommu, driver = make_stack(mem_pages=4)
    space = memory.create_space()
    region = space.mmap(8 * PAGE_SIZE)
    with pytest.raises(OutOfMemoryError):
        driver.register_pinned(space, region)


def test_pinned_mr_deregister_releases():
    env, memory, iommu, driver = make_stack()
    space = memory.create_space()
    region = space.mmap(2 * PAGE_SIZE)
    mr = driver.register_pinned(space, region)
    latency = mr.deregister()
    assert latency > 0
    assert not mr.is_registered
    for vpn in region.vpns():
        assert not space.is_pinned(vpn)
        assert mr.translate(vpn).fault
    with pytest.raises(ValueError):
        mr.deregister()


# ------------------------------------------------------------------ ODP MRs
def test_odp_registration_is_free_and_lazy():
    env, memory, iommu, driver = make_stack()
    space = memory.create_space()
    region = space.mmap(4 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    assert mr.registration_latency == 0.0
    assert space.resident_pages == 0
    for vpn in region.vpns():
        assert mr.translate(vpn).fault  # everything faults until first use


def test_odp_fault_service_maps_pages():
    env, memory, iommu, driver = make_stack()
    space = memory.create_space()
    region = space.mmap(4 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    vpn0 = region.vpns()[0]
    event = env.run(driver.service_fault_async(mr, vpn0, n_pages=1))
    assert event.kind is NpfKind.MINOR
    assert event.n_pages == 1
    assert not mr.translate(vpn0).fault
    assert event.latency == pytest.approx(220 * us, rel=0.15)


def test_odp_batched_prefault_covers_work_request():
    """One fault on a 4-page WR maps all four pages (the paper's batching)."""
    env, memory, iommu, driver = make_stack()
    space = memory.create_space()
    region = space.mmap(4 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    vpn0 = region.vpns()[0]
    event = env.run(driver.service_fault_async(mr, vpn0, n_pages=4))
    assert event.n_pages == 4
    for vpn in region.vpns():
        assert not mr.translate(vpn).fault


def test_odp_without_batching_resolves_one_page():
    env, memory, iommu, driver = make_stack(batch_prefault=False)
    space = memory.create_space()
    region = space.mmap(4 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    vpn0 = region.vpns()[0]
    event = env.run(driver.service_fault_async(mr, vpn0, n_pages=4))
    assert event.n_pages == 1
    assert not mr.translate(vpn0).fault
    assert mr.translate(vpn0 + 1).fault


def test_odp_major_fault_includes_swap_latency():
    env, memory, iommu, driver = make_stack(mem_pages=2)
    space = memory.create_space()
    region = space.mmap(4 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    vpns = list(region.vpns())
    # Fault in page 0, then thrash it out via pages 1 and 2.
    env.run(driver.service_fault_async(mr, vpns[0]))
    space.touch_page(vpns[1])
    space.touch_page(vpns[2])
    assert not space.is_present(vpns[0])
    event = env.run(driver.service_fault_async(mr, vpns[0]))
    assert event.kind is NpfKind.MAJOR
    assert event.breakdown.swap >= memory.swap.seek_time


def test_odp_eviction_invalidates_io_pte():
    """The full Figure 2 loop: fault -> evict -> invalidation -> fault."""
    env, memory, iommu, driver = make_stack(mem_pages=2)
    space = memory.create_space()
    region = space.mmap(4 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    vpns = list(region.vpns())
    env.run(driver.service_fault_async(mr, vpns[0]))
    assert mr.is_mapped(vpns[0])
    space.touch_page(vpns[1])
    space.touch_page(vpns[2])  # evicts vpns[0]
    assert not mr.is_mapped(vpns[0])  # notifier tore the PTE down
    assert driver.log.invalidation_count >= 1
    assert mr.translate(vpns[0]).fault


def test_invalidation_of_unmapped_page_is_cheap():
    env, memory, iommu, driver = make_stack()
    space = memory.create_space()
    region = space.mmap(2 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    vpn = region.vpns()[0]
    cheap = driver.invalidate(mr, vpn)
    env.run(driver.service_fault_async(mr, vpn))
    expensive = driver.invalidate(mr, vpn)
    assert cheap < expensive


def test_odp_deregister_stops_notifications():
    env, memory, iommu, driver = make_stack(mem_pages=2)
    space = memory.create_space()
    region = space.mmap(4 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    vpns = list(region.vpns())
    env.run(driver.service_fault_async(mr, vpns[0]))
    mr.deregister()
    before = driver.log.invalidation_count
    space.touch_page(vpns[1])
    space.touch_page(vpns[2])  # eviction, but MR is gone
    assert driver.log.invalidation_count == before
    with pytest.raises(ValueError):
        mr.deregister()


def test_concurrent_fault_classes_serialize_same_class():
    """Two same-class faults serialize; different classes overlap."""
    env, memory, iommu, driver = make_stack()
    space = memory.create_space()
    region = space.mmap(8 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    vpns = list(region.vpns())
    done = {}

    def faulter(tag, vpn, side):
        yield driver.service_fault_async(mr, vpn, side=side, channel="qp1")
        done[tag] = env.now

    env.process(faulter("recv-a", vpns[0], NpfSide.RECEIVE))
    env.process(faulter("recv-b", vpns[1], NpfSide.RECEIVE))
    env.process(faulter("send-a", vpns[2], NpfSide.SEND))
    env.run()
    # Same class (receive) serialized: b finished well after a.
    assert done["recv-b"] > done["recv-a"]
    # Different class overlapped with recv-a: finished around the same time.
    assert done["send-a"] < done["recv-b"]


def test_firmware_bypass_makes_second_fault_cheap():
    """A same-class fault racing an in-flight one pays only the resume path."""
    env, memory, iommu, driver = make_stack()
    space = memory.create_space()
    region = space.mmap(2 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    vpn = region.vpns()[0]
    events = []

    def faulter():
        ev = yield driver.service_fault_async(mr, vpn, n_pages=2, channel="qp")
        events.append(ev)

    env.process(faulter())
    env.process(faulter())  # same pages, same class, racing
    env.run()
    full, bypassed = events
    assert bypassed.n_pages == 0          # nothing left to map
    assert bypassed.breakdown.trigger_interrupt == 0.0
    assert bypassed.latency < full.latency / 3


def test_prefault_warms_range():
    env, memory, iommu, driver = make_stack()
    space = memory.create_space()
    region = space.mmap(4 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    count = env.run(env.process(driver.prefault(mr, region.base, region.size)))
    assert count == 4
    for vpn in region.vpns():
        assert not mr.translate(vpn).fault
    # Second prefault is a no-op.
    assert env.run(env.process(driver.prefault(mr, region.base, region.size))) == 0
