"""Figure 10 — what-if analysis: throughput vs injected rNPF frequency.

Both benchmarks pre-fault their receive rings, then inject synthetic
rNPFs at a swept frequency (faults per received byte):

* Ethernet: the stream receiver runs in backup-ring or drop mode, with
  minor or major fault resolution times;
* InfiniBand: RNR-NACK handling with minor faults, reported relative to
  the no-fault optimum.

The paper's findings: the backup ring sustains throughput orders of
magnitude deeper into the frequency sweep than dropping (whose TCP
timeouts dwarf even major-fault resolution — fault *type* is irrelevant
when dropping), and InfiniBand's RNR path stays near the optimum
because the sender resumes right after the NPF-specific timeout.

Each (frequency, mode, kind) point of the Ethernet sweep and each
frequency of the InfiniBand sweep — plus its no-fault optimum — is an
independent cell.
"""

from __future__ import annotations

import math

from typing import Any, Dict, List, Optional, Sequence

from ..apps.framing import MessageFramer
from ..apps.stream import EthernetStream, IbStream
from ..host.host import ethernet_testbed
from ..host.ib import ib_pair
from ..nic.ethernet import RxMode
from ..sim.engine import Environment
from ..sim.rng import Rng
from ..sim.units import Gbps, MB
from .base import ExperimentResult
from .cells import Cell, cell

__all__ = [
    "DEFAULT_FREQUENCIES",
    "ethernet_cells", "merge_ethernet", "cell_ethernet",
    "infiniband_cells", "merge_infiniband", "cell_infiniband",
]

# Faults per received byte; 2^-24 is roughly one fault per 16 MB.
DEFAULT_FREQUENCIES = tuple(2.0 ** -e for e in (14, 16, 18, 20, 22, 24))

#: (column, RxMode name, fault kind) of Figure 10's Ethernet series.
_ETHERNET_SERIES = (
    ("minor_brng", "backup", "minor"),
    ("major_brng", "backup", "major"),
    ("minor_drop", "drop", "minor"),
    ("major_drop", "drop", "major"),
)


def cell_ethernet(mode: str, kind: str, frequency: float, total_bytes: int,
                  seed: int) -> float:
    """Stream throughput (bytes/s) at one (mode, kind, frequency) point."""
    MessageFramer.reset_registry()
    env = Environment()
    # Unscaled TCP timers: this figure measures fault-resolution time
    # *against* the retransmission timeout, so compressing the timers
    # would distort exactly the ratio under study.
    _, _, srv_user, cli_user = ethernet_testbed(env, RxMode[mode.upper()],
                                                ring_size=256)
    stream = EthernetStream(cli_user, srv_user, "server", Rng(seed),
                            fault_frequency=frequency, fault_kind=kind)
    return stream.run(total_bytes=total_bytes, timeout=60.0)


def ethernet_cells(frequencies=DEFAULT_FREQUENCIES,
                   total_bytes: int = 8 * MB, seed: int = 37) -> List[Cell]:
    out: List[Cell] = []
    for frequency in frequencies:
        for _, mode, kind in _ETHERNET_SERIES:
            out.append(cell("fig10-eth", len(out), cell_ethernet, mode=mode,
                            kind=kind, frequency=frequency,
                            total_bytes=total_bytes, seed=seed))
    return out


def _frequency_label(frequency: float) -> str:
    return f"2^{round(-math.log2(frequency))}" if frequency else "0"


def merge_ethernet(sweep: Sequence[Cell],
                   fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="figure-10-ethernet",
        title="Ethernet stream throughput vs rNPF frequency (Gb/s)",
        columns=["frequency", "minor_brng", "major_brng", "minor_drop",
                 "major_drop"],
        scaling="frequency = faults per received byte; unscaled TCP timers",
    )
    columns = {(mode, kind): name for name, mode, kind in _ETHERNET_SERIES}
    rows: Dict[float, dict] = {}
    for spec, throughput in zip(sweep, fragments):
        config = spec.kwargs()
        row = rows.setdefault(config["frequency"], {
            "frequency": _frequency_label(config["frequency"]),
        })
        row[columns[(config["mode"], config["kind"])]] = throughput / Gbps
    for row in rows.values():
        result.add_row(**row)
    result.notes.append(
        "paper: backup ring sustains near-line-rate far deeper into the "
        "sweep; drop throughput is timer-bound so minor vs major makes "
        "no difference"
    )
    return result


def cell_infiniband(frequency: Optional[float], n_messages: int,
                    seed: int) -> float:
    """IB stream throughput at one frequency (None = no-fault optimum)."""
    env = Environment()
    a, b = ib_pair(env)
    if frequency is None:
        return IbStream(a, b, Rng(seed)).run(n_messages=n_messages)
    stream = IbStream(a, b, Rng(seed), fault_frequency=frequency,
                      fault_kind="minor")
    return stream.run(n_messages=n_messages)


def infiniband_cells(frequencies=DEFAULT_FREQUENCIES, n_messages: int = 2000,
                     seed: int = 41) -> List[Cell]:
    # Cell 0 is the no-fault optimum the paper normalizes against.
    out = [cell("fig10-ib", 0, cell_infiniband, frequency=None,
                n_messages=n_messages, seed=seed)]
    for frequency in frequencies:
        out.append(cell("fig10-ib", len(out), cell_infiniband,
                        frequency=frequency, n_messages=n_messages,
                        seed=seed))
    return out


def merge_infiniband(sweep: Sequence[Cell],
                     fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="figure-10-infiniband",
        title="InfiniBand stream throughput vs rNPF frequency",
        columns=["frequency", "minor_gbps", "pct_of_optimum"],
        scaling="frequency = faults per received byte",
    )
    optimum = fragments[0]
    for spec, throughput in zip(sweep[1:], fragments[1:]):
        result.add_row(
            frequency=_frequency_label(spec.kwargs()["frequency"]),
            minor_gbps=throughput / Gbps,
            pct_of_optimum=round(100 * throughput / optimum, 1),
        )
    result.notes.append(
        "paper: RNR NACKs let the sender resume right after resolution, so "
        "throughput approaches the optimum once faults are sparse"
    )
    return result
