"""The sweep-cell engine: the one way an experiment's cells run.

Every experiment is a sweep of independent cells (mode x ring size x
capacity points) that each build their own ``Environment``.  This
engine:

* asks each experiment for its cells (``ExperimentSpec.cells``), in
  canonical order;
* skips cells whose result is already in the on-disk cache under
  ``.repro-cache/`` — keyed by a content hash of the cell config plus
  a fingerprint of the ``src/repro`` tree, so results invalidate
  themselves when the code changes (:func:`repro.experiments.cells
  .cell_fingerprint`);
* runs the remaining cells in-process, or on dispatch workers
  (:mod:`repro.experiments.dispatch`) — explicit ``workers``
  endpoints, or ``jobs`` spawned localhost workers when that can win;
  then
* merges fragments back per experiment, in canonical cell order.

Because each cell seeds its own RNGs from its config and the merge
order is the cell order — never completion order — the output is
bit-identical whatever ``jobs`` or the worker fleet is.
``REPRO_SANITIZE=1`` (read once per :func:`execute_cells` call) wraps
every cell in a fresh DMAsan session, wherever it runs, and turns any
violation into a hard error.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..sim.walltime import walltime
from . import (
    ablations,
    fig3_breakdown,
    fig4_cold_ring,
    fig7_dynamic,
    fig8_storage,
    fig9_imb,
    fig10_whatif,
    rack_incast,
    sec63_loc,
    table3_tradeoffs,
    table4_tail,
    table5_overcommit,
    table6_beff,
)
from .base import ExperimentResult
from .cells import Cell, cell_fingerprint, execute, source_fingerprint

__all__ = [
    "ExperimentSpec",
    "SPECS",
    "CacheStats",
    "RunReport",
    "default_jobs",
    "usable_cpus",
    "execute_cells",
    "run_experiment",
    "run_many",
]

DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry entry: how to enumerate and fold a sweep."""

    name: str
    cells: Callable[..., List[Cell]]
    merge: Callable[[Sequence[Cell], List[Any]], ExperimentResult]
    #: include in ``run all``?  Opt-out entries (the rack-incast sweep)
    #: run by explicit name only, so the run-all transcript — a golden,
    #: byte-compared artifact — is not changed by adding them.
    default: bool = True


SPECS: "OrderedDict[str, ExperimentSpec]" = OrderedDict(
    (spec.name, spec) for spec in (
        ExperimentSpec("fig3", fig3_breakdown.cells, fig3_breakdown.merge),
        ExperimentSpec("table4", table4_tail.cells, table4_tail.merge),
        ExperimentSpec("fig4a", fig4_cold_ring.startup_cells,
                       fig4_cold_ring.merge_startup),
        ExperimentSpec("fig4b", fig4_cold_ring.ring_sweep_cells,
                       fig4_cold_ring.merge_ring_sweep),
        ExperimentSpec("table5", table5_overcommit.cells,
                       table5_overcommit.merge),
        ExperimentSpec("fig7", fig7_dynamic.cells, fig7_dynamic.merge),
        ExperimentSpec("fig8a", fig8_storage.bandwidth_cells,
                       fig8_storage.merge_bandwidth),
        ExperimentSpec("fig8b", fig8_storage.resident_cells,
                       fig8_storage.merge_resident),
        ExperimentSpec("fig9", fig9_imb.cells, fig9_imb.merge),
        ExperimentSpec("table6", table6_beff.cells, table6_beff.merge),
        ExperimentSpec("fig10-eth", fig10_whatif.ethernet_cells,
                       fig10_whatif.merge_ethernet),
        ExperimentSpec("fig10-ib", fig10_whatif.infiniband_cells,
                       fig10_whatif.merge_infiniband),
        ExperimentSpec("table3", table3_tradeoffs.cells,
                       table3_tradeoffs.merge),
        ExperimentSpec("sec63", sec63_loc.cells, sec63_loc.merge),
        ExperimentSpec("ablation-batching", ablations.batching_cells,
                       ablations.merge_batching),
        ExperimentSpec("ablation-bypass", ablations.firmware_bypass_cells,
                       ablations.merge_firmware_bypass),
        ExperimentSpec("ablation-classes", ablations.concurrent_classes_cells,
                       ablations.merge_concurrent_classes),
        ExperimentSpec("ablation-bm-size", ablations.bm_size_cells,
                       ablations.merge_bm_size),
        ExperimentSpec("ablation-pdc", ablations.pdc_capacity_cells,
                       ablations.merge_pdc_capacity),
        ExperimentSpec("ablation-read-rnr", ablations.read_rnr_cells,
                       ablations.merge_read_rnr),
        ExperimentSpec("rack-incast", rack_incast.cells, rack_incast.merge,
                       default=False),
    )
)


@dataclass
class CacheStats:
    """Hit/miss accounting for one ``execute_cells`` pass."""

    total: int = 0
    hits: int = 0
    misses: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.total += other.total
        self.hits += other.hits
        self.misses += other.misses


@dataclass
class RunReport:
    """What one ``run_many`` invocation did, for the CLI summary line.

    ``mode`` is the *effective* execution mode — ``"in-process"`` or
    ``"dispatch(n=K, stolen=S, reassigned=R)"`` — as chosen by
    :func:`execute_cells` after the fallback heuristics, not the
    requested ``jobs``/workers.  Benchmarks record it so a worker
    fan-out that would lose to (or silently degrade to) in-process
    execution can never be reported as parallel silently (see
    ``tools/bench_substrate.py``).  ``notes`` records fallback and
    degradation events (dead or wedged workers) for the stderr summary.
    """

    jobs: int
    results: "OrderedDict[str, ExperimentResult]" = field(
        default_factory=OrderedDict)
    stats: CacheStats = field(default_factory=CacheStats)
    wall_s: float = 0.0
    mode: str = "in-process"
    notes: List[str] = field(default_factory=list)


#: Below this many pending cells, spawned workers cannot amortize their
#: startup + pickle cost against typical cell runtimes; stay in-process.
_MIN_POOL_CELLS = 4

#: Per-cell wait bound on dispatch workers.  The longest legitimate
#: cells (fig7's one-minute configs) finish in well under a tenth of
#: this, so it only ever fires on a genuinely wedged worker, whose
#: cells are then reassigned instead of stalling ``run all`` forever.
CELL_TIMEOUT_S = 600.0


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


def default_jobs() -> int:
    """Worker count when the caller does not specify one.

    With <= 2 usable cores spawned workers lose to in-process execution
    (process startup + pickling with no spare core to hide it behind —
    the 0.91x "speedup" once recorded in BENCH_experiments.json), so
    the default is in-process there.
    """
    n = usable_cpus()
    return 1 if n <= 2 else n


def _execute_cell(spec: Cell, sanitize: bool) -> Any:
    """Run one cell in this process, under its own DMAsan when asked.

    A dispatch worker carries none of the caller's test-session
    observers, so with ``sanitize`` each cell gets its own DMAsan
    session (it nests inside any ambient one in-process); a breached
    DMA invariant fails the whole run loudly instead of vanishing with
    the worker.
    """
    if not sanitize:
        return execute(spec)
    from ..analysis import hooks
    from ..analysis.sanitizer import DmaSanitizer

    sanitizer = DmaSanitizer()
    with hooks.session(sanitizer):
        fragment = execute(spec)
        sanitizer.final_check()
    if sanitizer.violations:
        raise RuntimeError(
            f"DMAsan violations in cell {spec.label()}:\n"
            + sanitizer.summary()
        )
    return fragment


# -- the cache ---------------------------------------------------------------

def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / key[:2] / f"{key}.pkl"


def _cache_load(path: Path) -> "tuple[bool, Any]":
    """Load one cache entry; ``(False, None)`` when it is unreadable.

    A truncated or corrupt file (a writer killed before the atomic
    publish existed, disk trouble, a garbage file dropped into the
    cache dir) must read as a *miss* — the cell recomputes and the
    entry is republished — never as an unpickling crash that takes the
    whole sweep down.
    """
    try:
        return True, pickle.loads(path.read_bytes())
    except Exception:
        return False, None


def _cache_store(path: Path, fragment: Any) -> None:
    """Atomic publish: a killed run never leaves a torn cache entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_bytes(pickle.dumps(fragment, protocol=pickle.HIGHEST_PROTOCOL))
    os.replace(tmp, path)


def _note(report: Optional[RunReport], text: str) -> None:
    if report is not None:
        report.notes.append(text)


def _dispatch(cells: Sequence[Cell], pending: List[int], endpoints,
              spawn: int, sanitize: bool,
              report: Optional[RunReport]) -> Optional[Dict[int, Any]]:
    """Run ``pending`` on dispatch workers; None means run in-process.

    The workers are the explicit ``endpoints`` or, when there are none,
    ``spawn`` freshly spawned localhost workers (killed on return).
    """
    from . import dispatch as dispatch_mod

    fleet = (dispatch_mod.spawned_workers(spawn) if spawn
             else contextlib.nullcontext(endpoints))
    try:
        with fleet as live:
            results, dstats = dispatch_mod.dispatch_cells(
                [(i, cells[i]) for i in pending], live,
                source_fingerprint(), CELL_TIMEOUT_S, sanitize,
                functools.partial(_execute_cell, sanitize=sanitize))
    except dispatch_mod.DispatchUnavailable as exc:
        _note(report, f"dispatch fallback: {exc}")
        return None
    if report is not None:
        report.mode = dstats.mode()
    if dstats.dead:
        _note(report, f"dispatch: worker(s) lost mid-run: "
                      f"{', '.join(dstats.dead)}; {dstats.reassigned} "
                      f"cell(s) reassigned, {dstats.local} completed "
                      f"in-process")
    if dstats.rejected:
        _note(report, f"dispatch: stale worker(s) rejected: "
                      f"{'; '.join(dstats.rejected)}")
    return results


def _execute_pending(cells: Sequence[Cell], pending: List[int], jobs: int,
                     workers, report: Optional[RunReport]) -> List[Any]:
    """Compute the ``pending`` cells: on workers when they can win, else
    in-process (no pickling, ambient observers intact)."""
    sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
    endpoints: list = []
    if workers:
        from .dispatch import parse_endpoints
        endpoints = parse_endpoints(workers)
    spawn = 0
    if not endpoints and jobs > 1:
        if usable_cpus() <= 2:
            _note(report, f"--jobs {jobs} on a {usable_cpus()}-core box "
                          f"cannot win; running in-process")
        elif len(pending) < _MIN_POOL_CELLS:
            _note(report, f"only {len(pending)} pending cell(s); not worth "
                          f"spawning workers")
        else:
            spawn = min(jobs, len(pending))
    if endpoints or spawn:
        results = _dispatch(cells, pending, endpoints, spawn, sanitize,
                            report)
        if results is not None:
            return [results[i] for i in pending]
    if report is not None:
        report.mode = "in-process"
    return [_execute_cell(cells[i], sanitize) for i in pending]


def execute_cells(cells: Sequence[Cell],
                  jobs: Optional[int] = None,
                  cache: bool = True,
                  cache_dir: Optional[os.PathLike] = None,
                  fingerprint: Optional[str] = None,
                  stats: Optional[CacheStats] = None,
                  report: Optional[RunReport] = None,
                  workers=None) -> List[Any]:
    """Execute ``cells``, returning fragments in the cells' order.

    Cached fragments are loaded instead of recomputed; missing ones run
    in-process or on dispatch workers, and are published to the cache
    afterwards.  ``workers`` (parsed ``host:port`` endpoints or a spec
    string) are always used, on their own; otherwise ``jobs > 1``
    spawns that many localhost workers for the run.  ``fingerprint``
    overrides the source-tree hash (tests use this to force
    invalidation without editing files).

    Parallelism is honest: workers are only spawned when they can
    plausibly win — more than two usable cores AND at least
    ``_MIN_POOL_CELLS`` pending cells — otherwise execution stays
    in-process and a note says why.  Cache-hit cells never travel: only
    pending cells are dispatched.  Fragments are reassembled by cell
    index whatever completes (or dies) first, so the output is
    bit-identical to the in-process order at any job/worker count.  A
    dead or wedged worker (no reply within :data:`CELL_TIMEOUT_S`) has
    its cells reassigned, in-process when no worker remains.  The
    chosen mode is recorded on ``report`` when one is passed.
    """
    jobs = jobs if jobs else default_jobs()
    if stats is None:
        stats = CacheStats()
    stats.total += len(cells)
    cache_root = Path(cache_dir if cache_dir is not None
                      else os.environ.get("REPRO_CACHE_DIR",
                                          DEFAULT_CACHE_DIR))
    source_fp = fingerprint if fingerprint is not None else source_fingerprint()

    fragments: List[Any] = [None] * len(cells)
    pending: List[int] = []
    paths: Dict[int, Path] = {}
    for i, spec in enumerate(cells):
        if not cache:
            pending.append(i)
            continue
        path = _cache_path(cache_root, cell_fingerprint(spec, source_fp))
        paths[i] = path
        if path.exists():
            ok, fragment = _cache_load(path)
            if ok:
                fragments[i] = fragment
                stats.hits += 1
                continue
        pending.append(i)
    stats.misses += len(pending)

    if pending:
        computed = _execute_pending(cells, pending, jobs, workers, report)
        for i, fragment in zip(pending, computed):
            fragments[i] = fragment
            if cache:
                _cache_store(paths[i], fragment)
    elif report is not None:
        report.mode = "in-process"
    return fragments


def run_experiment(name: str,
                   jobs: Optional[int] = None,
                   cache: bool = True,
                   cache_dir: Optional[os.PathLike] = None,
                   fingerprint: Optional[str] = None,
                   stats: Optional[CacheStats] = None,
                   workers=None,
                   **kwargs: Any) -> ExperimentResult:
    """Run one registry entry through the cell engine.

    ``kwargs`` go to the experiment's cells builder, so callers can run
    reduced sweeps (``run_experiment("table4", samples=100, jobs=1)``).
    """
    spec = SPECS[name]
    sweep = spec.cells(**kwargs)
    fragments = execute_cells(sweep, jobs=jobs, cache=cache,
                              cache_dir=cache_dir, fingerprint=fingerprint,
                              stats=stats, workers=workers)
    return spec.merge(sweep, fragments)


def run_many(names: Sequence[str],
             jobs: Optional[int] = None,
             cache: bool = True,
             cache_dir: Optional[os.PathLike] = None,
             fingerprint: Optional[str] = None,
             workers=None) -> RunReport:
    """Run several experiments as ONE flat cell sweep.

    All cells from all requested experiments share the worker fleet,
    so a long sweep (fig7's two one-minute configs) overlaps with
    everything else instead of serializing behind its own two-cell
    fan-out.
    """
    jobs = jobs if jobs else default_jobs()
    report = RunReport(jobs=jobs)
    start = walltime()

    sweeps: "OrderedDict[str, List[Cell]]" = OrderedDict()
    flat: List[Cell] = []
    for name in names:
        sweep = SPECS[name].cells()
        sweeps[name] = sweep
        flat.extend(sweep)

    fragments = execute_cells(flat, jobs=jobs, cache=cache,
                              cache_dir=cache_dir, fingerprint=fingerprint,
                              stats=report.stats, report=report,
                              workers=workers)

    offset = 0
    for name, sweep in sweeps.items():
        report.results[name] = SPECS[name].merge(
            sweep, fragments[offset:offset + len(sweep)])
        offset += len(sweep)
    report.wall_s = walltime() - start
    return report
