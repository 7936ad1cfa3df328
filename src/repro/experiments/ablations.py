"""Ablations of the paper's §4/§5 design choices.

Each function isolates one mechanism DESIGN.md calls out:

* batched work-request pre-faulting vs ATS/PRI one-page-per-request
  (the paper: a cold 4 MB message would take >220 *milliseconds* under
  PRI rules);
* the firmware-bypass bitmap for same-class concurrent faults;
* concurrent fault classes (4 per IOchannel) vs one global slot;
* backup-ring bitmap size (``bm_size``), which bounds how many faulting
  packets the IOprovider will buffer for one IOuser;
* pin-down cache capacity: small caches degenerate to fine-grained
  pinning, large ones to static pinning (§2.2's "floating point").

Every ablation arm (one mechanism setting, or one sweep point) is an
independent cell.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from ..core.driver import NpfDriver
from ..core.npf import NpfSide
from ..core.pin_down_cache import PinDownCache
from ..iommu.iommu import Iommu
from ..mem.memory import Memory
from ..sim.engine import Environment
from ..sim.units import MB, PAGE_SIZE, ms, us
from .base import ExperimentResult
from .cells import Cell, cell

__all__ = [
    "batching_cells", "merge_batching", "cell_batching",
    "firmware_bypass_cells", "merge_firmware_bypass", "cell_firmware_bypass",
    "concurrent_classes_cells", "merge_concurrent_classes",
    "cell_concurrent_classes",
    "bm_size_cells", "merge_bm_size", "cell_bm_size",
    "pdc_capacity_cells", "merge_pdc_capacity", "cell_pdc_capacity",
    "read_rnr_cells", "merge_read_rnr", "cell_read_rnr",
]


def _stack(batch=True, bypass=True, classes=True, mem_mb=64):
    env = Environment()
    memory = Memory(mem_mb * MB)
    driver = NpfDriver(env, Iommu(), batch_prefault=batch,
                       firmware_bypass=bypass,
                       concurrent_fault_classes=classes)
    return env, memory, driver


# -- batching ----------------------------------------------------------------

def cell_batching(batch: bool) -> dict:
    """Cold 4MB send under one prefault policy."""
    env, memory, driver = _stack(batch=batch)
    space = memory.create_space()
    region = space.mmap(4 * MB)
    mr = driver.register_odp(space, region)
    n_pages = region.page_count()

    def cold_send():
        vpn = region.vpns()[0]
        while mr.unmapped_vpns(vpn, n_pages):
            first = mr.unmapped_vpns(vpn, n_pages)[0]
            yield driver.service_fault_async(mr, first, n_pages, NpfSide.SEND)

    env.run(env.process(cold_send()))
    return {"faults": driver.log.npf_count, "total_ms": env.now / ms}


def batching_cells() -> List[Cell]:
    """Cold 4MB send: batched pre-fault vs one page per PRI request."""
    return [cell("ablation-batching", i, cell_batching, batch=batch)
            for i, batch in enumerate((True, False))]


def merge_batching(sweep: Sequence[Cell],
                   fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-batching",
        title="Cold 4MB message: batched prefault vs ATS/PRI page-at-a-time",
        columns=["mode", "faults", "total_ms"],
        scaling="none",
    )
    for spec, fragment in zip(sweep, fragments):
        batch = spec.kwargs()["batch"]
        result.add_row(mode="batched (paper)" if batch else "ats-pri",
                       faults=fragment["faults"],
                       total_ms=fragment["total_ms"])
    result.notes.append(
        "paper: PRI's one-page-per-request would make a cold 4MB message "
        "cost >220ms; batching resolves it in one ~350us fault"
    )
    return result


# -- firmware bypass ---------------------------------------------------------

def cell_firmware_bypass(bypass: bool) -> float:
    """16 racing same-class faults; returns the total time (us)."""
    env, memory, driver = _stack(bypass=bypass)
    space = memory.create_space()
    region = space.mmap(16 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    procs = [
        driver.service_fault_async(mr, region.vpns()[0], 16,
                                   NpfSide.RECEIVE, "qp0")
        for _ in range(16)
    ]
    env.run(env.all_of(procs))
    return env.now / us


def firmware_bypass_cells() -> List[Cell]:
    """Same-class racing faults with and without the bypass bitmap."""
    return [cell("ablation-bypass", i, cell_firmware_bypass, bypass=bypass)
            for i, bypass in enumerate((True, False))]


def merge_firmware_bypass(sweep: Sequence[Cell],
                          fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-firmware-bypass",
        title="16 racing same-class faults: bypass bitmap on/off",
        columns=["bypass", "total_us"],
        scaling="none",
    )
    for spec, total_us in zip(sweep, fragments):
        result.add_row(bypass="on" if spec.kwargs()["bypass"] else "off",
                       total_us=total_us)
    result.notes.append(
        "with the bypass, racing faults skip the interrupt re-report and "
        "pay only the fast resume path"
    )
    return result


# -- concurrent fault classes ------------------------------------------------

def cell_concurrent_classes(classes: bool) -> float:
    """Four overlapping fault classes vs one global slot; total us."""
    env, memory, driver = _stack(classes=classes, bypass=False)
    space = memory.create_space()
    region = space.mmap(8 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    vpns = list(region.vpns())
    procs = [
        driver.service_fault_async(mr, vpns[0], 2, NpfSide.SEND, "qp0"),
        driver.service_fault_async(mr, vpns[2], 2, NpfSide.RECEIVE, "qp0"),
        driver.service_fault_async(mr, vpns[4], 2,
                                   NpfSide.RDMA_READ_INITIATOR, "qp0"),
        driver.service_fault_async(mr, vpns[6], 2,
                                   NpfSide.RDMA_WRITE_RESPONDER, "qp0"),
    ]
    env.run(env.all_of(procs))
    return env.now / us


def concurrent_classes_cells() -> List[Cell]:
    """Send+receive faults overlapping (4 classes) vs one global slot."""
    return [cell("ablation-classes", i, cell_concurrent_classes,
                 classes=classes)
            for i, classes in enumerate((True, False))]


def merge_concurrent_classes(sweep: Sequence[Cell],
                             fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-concurrent-classes",
        title="Concurrent send/recv faults: per-class slots vs serialized",
        columns=["classes", "total_us"],
        scaling="none",
    )
    for spec, total_us in zip(sweep, fragments):
        result.add_row(
            classes="4-per-channel" if spec.kwargs()["classes"] else "single",
            total_us=total_us,
        )
    result.notes.append(
        "the paper services up to four fault classes per IOchannel "
        "concurrently (initiator/responder x read/write)"
    )
    return result


# -- backup-ring bitmap size -------------------------------------------------

def cell_bm_size(bm_size: int) -> dict:
    """A 200-packet wire-speed burst against one bitmap size."""
    from ..host.host import ethernet_testbed
    from ..apps.framing import MessageFramer
    from ..nic.ethernet import RxMode
    from ..net.packet import Packet
    from ..sim.units import Gbps

    MessageFramer.reset_registry()
    env = Environment()
    _, _, srv_user, cli_user = ethernet_testbed(
        env, RxMode.BACKUP, ring_size=64, bm_size=bm_size,
        backup_size=1024,
    )
    received = []
    srv_user.channel.set_rx_handler(lambda p: received.append(p))
    link = cli_user.host.nic.link

    def burst():
        for i in range(200):
            link.send(Packet("client", "server", size=1000,
                             channel="srv0", payload=i))
            yield env.timeout(1000 * 8 / (12 * Gbps))

    env.run(env.process(burst()))
    env.run(until=env.now + 1.0)
    return {"delivered": len(received),
            "dropped": srv_user.channel.dropped_rnpf}


def bm_size_cells(bm_sizes=(8, 32, 128, 512)) -> List[Cell]:
    """Backup-ring bitmap size vs packets lost during a fault burst."""
    return [cell("ablation-bm-size", i, cell_bm_size, bm_size=bm_size)
            for i, bm_size in enumerate(bm_sizes)]


def merge_bm_size(sweep: Sequence[Cell],
                  fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-bm-size",
        title="Faulting burst vs bm_size: packets dropped at the bitmap",
        columns=["bm_size", "delivered", "dropped"],
        scaling="200-packet cold burst at wire speed",
    )
    for spec, fragment in zip(sweep, fragments):
        result.add_row(bm_size=spec.kwargs()["bm_size"],
                       delivered=fragment["delivered"],
                       dropped=fragment["dropped"])
    result.notes.append(
        "bm_size bounds how many faulting packets the IOprovider buffers "
        "per IOuser; small bitmaps drop bursts that larger ones absorb"
    )
    return result


# -- RC read RNR extension ---------------------------------------------------

def cell_read_rnr(extension: bool, n_reads: int) -> dict:
    """Faulting RDMA reads under one recovery scheme."""
    from ..host.ib import ib_pair
    from ..transport.verbs import Opcode, SendWr

    env = Environment()
    a, b = ib_pair(env)
    qa = a.nic.create_qp(rnr_for_reads=extension)
    qb = b.nic.create_qp(rnr_for_reads=extension)
    qa.connect(qb)
    space_a = a.memory.create_space("init")
    ra = space_a.mmap(n_reads * 64 * 1024)
    mra = a.driver.register_odp(space_a, ra)
    a.nic.register_mr(mra)
    space_b = b.memory.create_space("resp")
    rb = space_b.mmap(n_reads * 64 * 1024)
    mrb = b.driver.register_pinned(space_b, rb)
    b.nic.register_mr(mrb)
    for i in range(n_reads):
        qa.post_send(SendWr(Opcode.RDMA_READ, 16 * 1024,
                            local_addr=ra.base + i * 64 * 1024, mr=mra,
                            remote_addr=rb.base + i * 64 * 1024))
    for _ in range(n_reads):
        env.run(qa.send_cq.wait())
    return {"total_ms": env.now / ms, "rewinds": qa.read_rewinds,
            "read_rnr_nacks": qa.read_rnr_nacks}


def read_rnr_cells(n_reads: int = 8) -> List[Cell]:
    """§4's recommendation: extend RC with RNR flow control for reads.

    Compares faulting RDMA reads under the standard rewind-only recovery
    against the proposed extension where the initiator can RNR-NACK the
    responder.
    """
    return [cell("ablation-read-rnr", i, cell_read_rnr, extension=extension,
                 n_reads=n_reads)
            for i, extension in enumerate((False, True))]


def merge_read_rnr(sweep: Sequence[Cell],
                   fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-read-rnr",
        title="Faulting RDMA reads: rewind-only RC vs the proposed extension",
        columns=["mode", "total_ms", "rewinds", "read_rnr_nacks"],
        scaling="none",
    )
    for spec, fragment in zip(sweep, fragments):
        extension = spec.kwargs()["extension"]
        result.add_row(mode=("extended (read RNR)" if extension
                             else "rc-standard (rewind)"),
                       **fragment)
    result.notes.append(
        "the paper: 'we recommend to extend the end-to-end flow control RC "
        "standard to support remote read operations too' — this quantifies "
        "the win"
    )
    return result


# -- pin-down cache capacity -------------------------------------------------

def cell_pdc_capacity(capacity_mb: int) -> dict:
    """Hit rate of one pin-down cache size over a 16MB working set."""
    env, memory, driver = _stack(mem_mb=128)
    space = memory.create_space()
    region = space.mmap(16 * MB)
    cache = PinDownCache(driver, capacity_bytes=capacity_mb * MB)
    buffers = [(region.base + i * 512 * 1024, 512 * 1024)
               for i in range(32)]
    latency = 0.0
    for round_ in range(8):
        for addr, size in buffers:
            _, cost = cache.acquire(space, addr, size)
            cache.release(space, addr, size)
            latency += cost
    return {"hit_rate": round(cache.stats.hit_rate, 3),
            "registration_ms": latency / ms}


def pdc_capacity_cells(capacities_mb=(1, 4, 16, 64)) -> List[Cell]:
    """Pin-down cache capacity: hit rate across a 16MB buffer working set."""
    return [cell("ablation-pdc", i, cell_pdc_capacity,
                 capacity_mb=capacity_mb)
            for i, capacity_mb in enumerate(capacities_mb)]


def merge_pdc_capacity(sweep: Sequence[Cell],
                       fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-pdc-capacity",
        title="Pin-down cache capacity vs hit rate (16MB working set)",
        columns=["capacity_mb", "hit_rate", "registration_ms"],
        scaling="none",
    )
    for spec, fragment in zip(sweep, fragments):
        result.add_row(capacity_mb=spec.kwargs()["capacity_mb"], **fragment)
    result.notes.append(
        "paper §2.2: small caches behave like fine-grained pinning "
        "(every access re-registers); big ones like static pinning"
    )
    return result
