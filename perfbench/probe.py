"""Running a workload pass and observing it from outside the program.

Nothing here edits ``src/``.  Three probes are installed around a pass
from the benchmark's own files and removed afterwards:

* :class:`CellClock` wraps each cell function named by the pass's cells
  (the runner resolves cells by dotted name, so the wrapper is what it
  calls) to time every cell and record its span;
* :class:`Counters` wraps the constructors of the layer objects whose
  public counters the per-layer metrics read, and folds those counters
  at the end of every cell;
* :func:`fold_profile` folds a ``cProfile`` run's self time by the
  package each function lives in.
"""

from __future__ import annotations

import contextlib
import cProfile
import importlib
import pstats
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.experiments.base import ExperimentResult
from repro.experiments.runner import CacheStats, execute_cells
from repro.sim.stats import percentile
from repro.sim.units import us

from .workloads import Workload

__all__ = ["LAYERS", "PassResult", "Spans", "Counters", "run_pass",
           "fold_profile", "count_events", "layer_of"]

#: The packages of ``src/repro`` that per-layer self time is folded by;
#: everything else (the benchmark itself, ``analysis``, ``fuzz``, the
#: interpreter) is ``other``.
LAYERS = ("sim", "net", "nic", "transport", "core", "mem", "iommu", "apps",
          "host", "experiments")

_REPRO_ROOT = Path(importlib.import_module("repro").__file__).resolve().parent
_BENCH_ROOT = Path(__file__).resolve().parent


# -- spans --------------------------------------------------------------------

class Spans:
    """Workload -> experiment part -> cell spans, kept in memory.

    Times are ``time.perf_counter()`` readings, the system-wide monotonic
    clock on Linux, so spans from several processes line up.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def open(self, name: str, kind: str, parent: Optional[int],
             trace: str) -> int:
        span_id = len(self.records)
        self.records.append({
            "id": span_id, "parent": parent, "trace": trace, "kind": kind,
            "name": name, "start_s": time.perf_counter(), "end_s": None,
        })
        return span_id

    def close(self, span_id: int) -> float:
        record = self.records[span_id]
        record["end_s"] = time.perf_counter()
        return record["end_s"] - record["start_s"]


# -- per-cell timing ------------------------------------------------------------

@contextlib.contextmanager
def _patched(owner: Any, attr: str, value: Any) -> Iterator[None]:
    """Set ``owner.attr`` for the block, then put back what ``owner``
    itself held (or nothing, when the attribute was inherited)."""
    own = vars(owner)
    had, original = attr in own, own.get(attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        if had:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


class CellClock:
    """Times each cell and opens its span, then calls ``after_cell``."""

    def __init__(self, spans: Spans, trace: str,
                 after_cell: Optional[Callable[[], None]] = None) -> None:
        self.spans = spans
        self.trace = trace
        self.after_cell = after_cell
        self.parent: Optional[int] = None
        self.walls: List[Tuple[str, float]] = []

    @contextlib.contextmanager
    def installed(self, cells: List[Any]) -> Iterator[None]:
        with contextlib.ExitStack() as stack:
            for ref in sorted({c.fn for c in cells}):
                module_name, _, name = ref.partition(":")
                module = importlib.import_module(module_name)
                stack.enter_context(
                    _patched(module, name, self._wrap(getattr(module, name))))
            yield

    def _wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def timed_cell(**config: Any) -> Any:
            label = f"{fn.__name__}({', '.join(f'{k}={v!r}' for k, v in sorted(config.items()))})"
            span = self.spans.open(label, "cell", self.parent, self.trace)
            try:
                return fn(**config)
            finally:
                self.walls.append((label, self.spans.close(span)))
                if self.after_cell is not None:
                    self.after_cell()
        return timed_cell


# -- layer counters ----------------------------------------------------------------

#: (module, class) whose instances are kept until the end of the cell.
_CAPTURED = (
    ("repro.sim.engine", "Environment"),
    ("repro.net.link", "Link"),
    ("repro.net.switch", "Switch"),
    ("repro.transport.tcp", "TcpConnection"),
    ("repro.nic.rings", "RingStats"),
    ("repro.nic.backup_ring", "BackupRing"),
    ("repro.nic.ethernet", "EthChannel"),
    ("repro.nic.infiniband", "QueuePair"),
    ("repro.core.npf", "NpfLog"),
    ("repro.core.driver", "NpfDriver"),
    ("repro.core.pin_down_cache", "PinDownCache"),
    ("repro.mem.memory", "Memory"),
    ("repro.iommu.iotlb", "Iotlb"),
    ("repro.iommu.page_table", "IoPageTable"),
    ("repro.apps.kvstore", "KvServer"),
)
#: (module, class) whose constructions are only counted.
_COUNTED = (
    ("repro.sim.engine", "Process"),
    ("repro.transport.tcp", "TcpSegment"),
)

_SUMS = (
    # metric, class, counter read from each instance
    ("sim.sim_s", "Environment", lambda o: o.now),
    ("net.packets", "Link", lambda o: o.sent_packets),
    ("net.switch_drops", "Switch", lambda o: o.dropped),
    ("net.pfc_pauses", "Switch", lambda o: o.pfc_pauses),
    ("net.upstream_pauses", "Switch", lambda o: o.upstream_pauses),
    ("nic.ring_faults", "RingStats", lambda o: o.faulted_to_backup),
    ("nic.backup_stores", "BackupRing", lambda o: o.stored),
    ("nic.rx_drops", "EthChannel", lambda o: o.dropped_rnpf + o.dropped_no_buffer),
    ("nic.rnr_nacks", "QueuePair", lambda o: o.rnr_nacks_sent),
    ("nic.ib_retransmits", "QueuePair", lambda o: o.retransmits),
    ("transport.timeouts", "TcpConnection", lambda o: o.timeouts),
    ("transport.fast_retransmits", "TcpConnection", lambda o: o.fast_retransmits),
    ("core.npfs", "NpfLog", lambda o: o.npf_count),
    ("core.invalidations", "NpfLog", lambda o: o.invalidation_count),
    ("core.coalesced_faults", "NpfDriver", lambda o: o.coalesced_faults),
    ("core._pdc_hits", "PinDownCache", lambda o: o.stats.hits),
    ("core._pdc_lookups", "PinDownCache", lambda o: o.stats.hits + o.stats.misses),
    ("mem.minor_faults", "Memory", lambda o: o.minor_faults),
    ("mem.major_faults", "Memory", lambda o: o.major_faults),
    ("iommu._iotlb_hits", "Iotlb", lambda o: o.hits),
    ("iommu.translated_pages", "Iotlb", lambda o: o.hits + o.misses),
    ("iommu.mapped_pages", "IoPageTable", lambda o: o.maps),
    ("apps._kv_hits", "KvServer", lambda o: o.hits),
    ("apps._kv_lookups", "KvServer", lambda o: o.hits + o.misses),
    ("apps.kv_ops", "KvServer", lambda o: o.gets + o.sets),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Counters:
    """Captures layer objects by wrapping their constructors.

    Instances are held only until the end of the cell that made them;
    :meth:`harvest` then adds their counters into :attr:`totals`.
    """

    def __init__(self) -> None:
        self.live: Dict[str, List[Any]] = {cls: [] for _, cls in _CAPTURED}
        self.made: Dict[str, int] = {cls: 0 for _, cls in _COUNTED}
        self.totals: Dict[str, float] = {name: 0 for name, _, _ in _SUMS}
        self.npf_latencies: List[float] = []

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        with contextlib.ExitStack() as stack:
            for module_name, name in _CAPTURED + _COUNTED:
                cls = getattr(importlib.import_module(module_name), name)
                stack.enter_context(
                    _patched(cls, "__init__", self._wrap(cls.__init__, name)))
            yield

    def _wrap(self, init: Callable[..., None], name: str) -> Callable[..., None]:
        if name in self.made:
            made = self.made

            def counted_init(obj: Any, *args: Any, **kwargs: Any) -> None:
                made[name] += 1
                init(obj, *args, **kwargs)
            return counted_init
        live = self.live[name]

        def captured_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            live.append(obj)
        return captured_init

    def harvest(self) -> None:
        for metric, cls, read in _SUMS:
            for obj in self.live[cls]:
                self.totals[metric] += read(obj)
        for log in self.live["NpfLog"]:
            self.npf_latencies.extend(e.latency for e in log.npf_events
                                      if e.n_pages > 0)
        for objs in self.live.values():
            objs.clear()

    def metrics(self) -> Dict[str, float]:
        t = self.totals
        segments = self.made["TcpSegment"]
        lat = self.npf_latencies
        out = {k: v for k, v in t.items() if not k.split(".", 1)[1].startswith("_")}
        out.update({
            "sim.processes": self.made["Process"],
            "transport.segments": segments,
            "transport.retx_ratio": _ratio(
                t["transport.timeouts"] + t["transport.fast_retransmits"],
                segments),
            "core.npf_p50_us": percentile(lat, 50) / us if lat else 0.0,
            "core.npf_p99_us": percentile(lat, 99) / us if lat else 0.0,
            "core.pdc_hit_ratio": _ratio(t["core._pdc_hits"],
                                         t["core._pdc_lookups"]),
            "iommu.iotlb_hit_ratio": _ratio(t["iommu._iotlb_hits"],
                                            t["iommu.translated_pages"]),
            "apps.kv_hit_ratio": _ratio(t["apps._kv_hits"],
                                        t["apps._kv_lookups"]),
        })
        return out


# -- one pass ---------------------------------------------------------------------

@dataclass
class PassResult:
    wall_s: float
    results: List[ExperimentResult]
    part_walls: Dict[str, float]
    cell_walls: List[Tuple[str, float]]
    cache: CacheStats

    @property
    def runner_overhead_s(self) -> float:
        """Part walls (``execute_cells`` plus merge) minus the cells' own."""
        return sum(self.part_walls.values()) - sum(w for _, w in self.cell_walls)


def run_pass(workload: Workload, seed: int, spans: Spans, trace: str,
             cache_dir: Optional[Path] = None,
             counters: Optional[Counters] = None,
             profiler: Optional[cProfile.Profile] = None) -> PassResult:
    """Compute every cell of ``workload`` once, in one process and thread.

    ``cache_dir`` turns the runner's result cache on (a fresh directory
    gives a cold pass, a populated one a warm replay); by default every
    cell is computed.  ``counters`` and ``profiler`` make it a traced
    pass.
    """
    clock = CellClock(spans, trace,
                      counters.harvest if counters is not None else None)
    cache = CacheStats()
    results: List[ExperimentResult] = []
    part_walls: Dict[str, float] = {}
    parts = [(part, part.cells(seed)) for part in workload.parts]
    with contextlib.ExitStack() as stack:
        if counters is not None:
            stack.enter_context(counters.installed())
        for _, cells in parts:
            stack.enter_context(clock.installed(cells))
        top = spans.open(workload.name, "workload", None, trace)
        if profiler is not None:
            profiler.enable()
        try:
            for part, cells in parts:
                clock.parent = spans.open(part.experiment, "part", top, trace)
                fragments = execute_cells(
                    cells, jobs=1, cache=cache_dir is not None,
                    cache_dir=cache_dir, stats=cache)
                results.append(part.merge(cells, fragments))
                part_walls[part.experiment] = spans.close(clock.parent)
        finally:
            if profiler is not None:
                profiler.disable()
        wall = spans.close(top)
    return PassResult(wall, results, part_walls, clock.walls, cache)


# -- profile folding -------------------------------------------------------------

_Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None outside src/repro and the
    benchmark (the interpreter's builtins and the standard library)."""
    if filename.startswith("~") or filename.startswith("<"):
        return None
    path = Path(filename)
    try:
        rel = path.resolve().relative_to(_REPRO_ROOT)
    except ValueError:
        return "other" if _BENCH_ROOT in path.resolve().parents else None
    return rel.parts[0] if len(rel.parts) > 1 and rel.parts[0] in LAYERS else "other"


def fold_profile(stats: Dict[_Func, tuple]) -> Dict[str, float]:
    """Fold a profile's self time into ``LAYERS`` plus ``other``.

    A function in ``src/repro/<layer>/`` is charged to ``<layer>``.  A
    builtin or standard-library function is charged to the layer of each
    caller, in proportion to the time spent under that caller, so time
    in ``list.append`` called from the TCP code counts as ``transport``.
    The rest is ``other``.
    """
    out = {layer: 0.0 for layer in LAYERS + ("other",)}
    layers: Dict[str, Optional[str]] = {}

    def lookup(func: _Func) -> Optional[str]:
        filename = func[0]
        if filename not in layers:
            layers[filename] = layer_of(filename)
        return layers[filename]

    for func, (_, _, tt, _, callers) in stats.items():
        layer = lookup(func)
        if layer is not None:
            out[layer] += tt
            continue
        edge_tt = {c: edge[2] for c, edge in callers.items()}
        total = sum(edge_tt.values())
        if not total:
            out["other"] += tt
            continue
        for caller, share in edge_tt.items():
            out[lookup(caller) or "other"] += tt * share / total
    return out


#: Engine methods the dispatch loop calls that are bookkeeping, not an
#: event's handler.
_ENGINE_BOOKKEEPING = {"_advance", "_widen", "succeed", "fail", "_schedule_at",
                       "_schedule_resume"}
_GENERATOR_RESUME = {"<method 'send' of 'generator' objects>",
                     "<method 'throw' of 'generator' objects>"}


def count_events(stats: Dict[_Func, tuple]) -> int:
    """Events dispatched: handler calls and process resumptions made by
    the engine's dispatch loop (``Environment.run`` / ``step``), read
    from the profile's call graph."""
    engine = str(_REPRO_ROOT / "sim" / "engine.py")
    n = 0
    for func, (_, _, _, _, callers) in stats.items():
        filename, _, name = func
        if filename == "~":
            if name not in _GENERATOR_RESUME:
                continue
        elif filename == engine and name in _ENGINE_BOOKKEEPING:
            continue
        for (cfile, _, cname), edge in callers.items():
            if cfile == engine and cname in ("run", "step"):
                n += edge[1]
    return n


def profile_stats(profiler: cProfile.Profile) -> Dict[_Func, tuple]:
    return pstats.Stats(profiler).stats  # type: ignore[attr-defined]
