"""Figure 4 — the cold ring problem (paper §5).

(a) memcached startup throughput over time with a 64-entry receive
    ring, comparing drop / backup / pin;
(b) time to complete a fixed number of operations as a function of the
    receive-ring size; dropping degrades linearly with ring size and the
    TCP stack eventually reports failure, while the backup ring pays a
    tolerable, bounded warm-up cost.

Time is compressed by ``TIME_SCALE`` (see :mod:`repro.experiments.config`).

Each (mode) point of (a) and each (ring size, mode) point of (b) is an
independent cell; cells carry the mode by value (its enum name) so they
stay pure and picklable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..apps.framing import MessageFramer
from ..apps.kvstore import KvServer
from ..apps.memaslap import Memaslap
from ..host.host import ethernet_testbed
from ..nic.ethernet import RxMode
from ..sim.engine import Environment
from ..sim.rng import Rng
from ..sim.units import KB, MB
from .base import ExperimentResult
from .cells import Cell, cell
from .config import TIME_SCALE, scaled_tcp_params

__all__ = [
    "MODES",
    "startup_cells", "merge_startup", "cell_startup",
    "ring_sweep_cells", "merge_ring_sweep", "cell_ring_point",
]

MODES = {"drop": RxMode.DROP, "backup": RxMode.BACKUP, "pin": RxMode.PIN}


def _build(mode: RxMode, ring_size: int, seed: int,
           max_total_timeouts=None) -> Tuple[Environment, KvServer, Memaslap]:
    MessageFramer.reset_registry()
    env = Environment()
    params = scaled_tcp_params(max_total_timeouts=max_total_timeouts)
    server, client, srv_user, cli_user = ethernet_testbed(
        env, mode, ring_size=ring_size, tcp_params=params,
    )
    kv = KvServer(srv_user, capacity_bytes=8 * MB, item_value_size=1 * KB)
    # think_time throttles the closed loop enough to keep simulation cost
    # bounded while still arriving much faster than fault resolution
    # (~60us inter-arrival vs ~220us per fault), which is what makes the
    # cold ring deadly in the paper's full-speed runs.
    gen = Memaslap(
        cli_user, "server", "srv0", Rng(seed), connections=8,
        get_ratio=0.9, n_keys=512, value_size=1 * KB,
        report_interval=0.25, think_time=0.001,
    )
    return env, kv, gen


def cell_startup(mode: str, duration: float, seed: int) -> dict:
    """One startup run (64-entry ring): throughput series for one mode."""
    env, kv, gen = _build(RxMode[mode.upper()], ring_size=64, seed=seed)
    gen.start()
    env.run(until=duration)
    gen.stop()
    points = gen.tps.series.points()
    return {
        "mode": mode,
        "times": [t for t, _ in points],
        "values": [v for _, v in points],
    }


def startup_cells(duration: float = 3.0, seed: int = 11) -> List[Cell]:
    """Figure 4(a): throughput vs time during startup (64-entry ring).

    ``duration`` is in scaled seconds (multiply by TIME_SCALE for the
    paper's axis).
    """
    return [
        cell("fig4a", i, cell_startup, mode=mode, duration=duration,
             seed=seed)
        for i, mode in enumerate(MODES)
    ]


def merge_startup(sweep: Sequence[Cell],
                  fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="figure-4a",
        title="Startup throughput over time, 64-entry receive ring",
        columns=["time_s"] + [f["mode"] for f in fragments],
        scaling=f"TCP timers and time axis compressed {TIME_SCALE}x",
    )
    series: Dict[str, List[float]] = {f["mode"]: f["values"]
                                      for f in fragments}
    # The time axis is shared across modes (same report interval and
    # duration); take the longest series' axis so it never silently
    # depends on whichever mode happens to come last in the sweep.
    times: List[float] = max((f["times"] for f in fragments),
                             key=len, default=[])
    for i, t in enumerate(times):
        result.add_row(
            time_s=t,
            **{name: values[i] if i < len(values) else 0.0
               for name, values in series.items()},
        )
    result.notes.append(
        "paper: pinning reaches steady state immediately; dropping stays "
        "near zero for ~60s (scaled: ~6s); backup tracks pinning"
    )
    return result


def cell_ring_point(mode: str, ring_size: int, ops: int, seed: int,
                    max_total_timeouts=None) -> dict:
    """Time for ``ops`` operations at one (mode, ring size) point."""
    env, kv, gen = _build(
        RxMode[mode.upper()], ring_size=ring_size, seed=seed,
        max_total_timeouts=max_total_timeouts,
    )
    done = gen.start(ops_limit=ops)
    env.run(until=60.0)
    return {
        "mode": mode,
        "ring_size": ring_size,
        "seconds": done.value if done.triggered else float("inf"),
        "failures": gen.failed_connections,
    }


def ring_sweep_cells(ring_sizes=(16, 64, 256, 1024), ops: int = 1500,
                     seed: int = 13) -> List[Cell]:
    """Figure 4(b): time for ``ops`` operations vs receive-ring size."""
    out: List[Cell] = []
    for ring_size in ring_sizes:
        for mode in MODES:
            out.append(cell(
                "fig4b", len(out), cell_ring_point, mode=mode,
                ring_size=ring_size, ops=ops, seed=seed,
                max_total_timeouts=12 if mode == "drop" else None,
            ))
    return out


def merge_ring_sweep(sweep: Sequence[Cell],
                     fragments: List[Any]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="figure-4b",
        title="Time to perform a fixed operation count vs ring size",
        columns=["ring_size", "drop_s", "backup_s", "pin_s", "drop_failures"],
        scaling=(f"TCP timers compressed {TIME_SCALE}x; "
                 f"{dict(sweep[0].config)['ops']} ops instead of the "
                 f"paper's 10,000" if sweep else "n/a"),
    )
    rows: "Dict[int, dict]" = {}
    for fragment in fragments:
        row = rows.setdefault(fragment["ring_size"],
                              {"ring_size": fragment["ring_size"]})
        row[f"{fragment['mode']}_s"] = fragment["seconds"]
        if fragment["mode"] == "drop":
            row["drop_failures"] = fragment["failures"]
    for row in rows.values():  # insertion order == sweep order
        result.add_row(**row)
    result.notes.append(
        "paper: drop grows with ring size until the stack gives up "
        "(>=128 entries); backup's warm-up cost grows slowly; pin is flat"
    )
    return result
