#!/usr/bin/env python3
"""Quickstart: on-demand paging memory regions and network page faults.

Builds the smallest possible NPF stack — one host's memory, an IOMMU
and the NPF driver — then walks the paper's Figure 2 loop end to end:

1. register an ODP memory region (nothing pinned, nothing mapped);
2. the NIC touches it -> a network page fault is serviced (~220 us);
3. the OS evicts a page under memory pressure -> the MMU notifier tears
   the I/O page-table entry down (the invalidation flow);
4. the NIC touches the evicted page again -> a *major* fault brings it
   back from swap.

Run:  python examples/quickstart.py
"""

from repro import Environment, Iommu, Memory, NpfDriver, NpfSide
from repro.sim.units import MB, PAGE_SIZE, us


def main() -> None:
    env = Environment()
    memory = Memory(2 * MB)               # a deliberately tiny host
    iommu = Iommu()
    driver = NpfDriver(env, iommu)

    # An IOuser's address space, with a buffer bigger than physical memory.
    space = memory.create_space("iouser")
    region = space.mmap(4 * MB, name="dma-buffer")
    mr = driver.register_odp(space, region)
    print(f"registered ODP MR over {region.size // MB} MB "
          f"(resident: {space.resident_bytes} bytes — nothing pinned)")

    # 1. The NIC DMAs into the first 16 pages: one batched NPF.
    first_vpn = region.vpns()[0]
    event = env.run(driver.service_fault_async(
        mr, first_vpn, n_pages=16, side=NpfSide.RECEIVE))
    print(f"NPF resolved {event.n_pages} pages in {event.latency / us:.0f} us "
          f"({event.kind.value} fault, "
          f"{event.breakdown.hardware_fraction:.0%} hardware time)")

    # 2. Memory pressure: another tenant's pages push ours out.
    other = memory.create_space("noisy-neighbor")
    hog = other.mmap(2 * MB)
    other.touch_range(hog.base, hog.size)
    print(f"after pressure: MR page 0 mapped in the IOMMU? "
          f"{mr.is_mapped(first_vpn)} "
          f"(invalidations so far: {driver.log.invalidation_count})")

    # 3. The NIC touches the evicted page again: major fault (swap read).
    event = env.run(driver.service_fault_async(
        mr, first_vpn, n_pages=1, side=NpfSide.RECEIVE))
    print(f"re-fault was a {event.kind.value} fault: "
          f"{event.latency * 1000:.1f} ms (includes the disk)")

    print(f"\ntotals: {driver.log.npf_count} NPFs "
          f"({driver.log.minor_count} minor / {driver.log.major_count} major), "
          f"{driver.log.invalidation_count} invalidations, "
          f"simulated time {env.now * 1000:.2f} ms")


if __name__ == "__main__":
    main()
