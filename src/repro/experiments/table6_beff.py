"""Table 6 — the effective communication bandwidth benchmark (beff).

Mixed message sizes and patterns (sendrecv rings + all-to-alls), one
aggregate MB/s per registration mode.  The paper: pinning 16,410, NPF
16,440 (statistically equal), copying 8,020 — RDMA zero-copy's ~2x win
over bounce buffers, available under NPF without any pinning.

One cell per registration mode; the vs-pin ratios are computed at merge
time once all three are in.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from ..apps.mpi import MpiWorld
from ..sim.engine import Environment
from ..sim.units import KB, MB
from .base import ExperimentResult
from .cells import Cell, cell

__all__ = ["cells", "merge", "cell_beff"]

PAPER = {"pin": 16410, "npf": 16440, "copy": 8020}

MODES = ("pin", "npf", "copy")


def cell_beff(mode: str, n_ranks: int, iterations: int) -> float:
    """Steady-state beff bandwidth (MB/s) for one registration mode."""
    env = Environment()
    world = MpiWorld(env, n_ranks=n_ranks, mode=mode,
                     memory_bytes=512 * MB, copy_bandwidth=4 * 1024**3)
    sizes = [32 * KB, 128 * KB]
    # Warm-up pass (registers/faults-in every rotating buffer), then
    # the measured pass — beff reports steady-state bandwidth.
    # One full rotation of the off_cache buffers warms every slot.
    warm = env.process(world.beff(sizes=sizes, iterations=world.n_buffers))
    env.run(until=warm)
    proc = env.process(world.beff(sizes=sizes, iterations=iterations))
    return env.run(until=proc)


def cells(n_ranks: int = 4, iterations: int = 24) -> List[Cell]:
    return [
        cell("table6", i, cell_beff, mode=mode, n_ranks=n_ranks,
             iterations=iterations)
        for i, mode in enumerate(MODES)
    ]


def merge(sweep: Sequence[Cell], fragments: List[Any]) -> ExperimentResult:
    n_ranks = dict(sweep[0].config)["n_ranks"] if sweep else 0
    result = ExperimentResult(
        experiment_id="table-6",
        title="beff effective bandwidth (MB/s)",
        columns=["mode", "beff_mb_s", "paper_mb_s", "vs_pin"],
        scaling=f"{n_ranks} ranks instead of 8",
    )
    measured: Dict[str, float] = {
        spec.kwargs()["mode"]: bandwidth
        for spec, bandwidth in zip(sweep, fragments)
    }
    for mode in MODES:
        result.add_row(
            mode=mode,
            beff_mb_s=round(measured[mode], 0),
            paper_mb_s=PAPER[mode],
            vs_pin=round(measured[mode] / measured["pin"], 2),
        )
    result.notes.append(
        "paper: NPF ~= pinning; copying achieves roughly half the "
        "effective bandwidth"
    )
    return result
