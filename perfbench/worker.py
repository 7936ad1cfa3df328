"""One benchmark pass, or one traced run, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> pass|trace

``run.py`` starts one worker at a time and reads the JSON object the
worker prints as its last line of standard output.

* ``pass`` computes every cell of the workload once, uncached, and
  reports the wall time (also scaled to the nominal box speed, see
  :mod:`perfbench.speed`), each cell's scaled wall time, the process's
  peak RSS, the output digest and any failed output check.
* ``trace`` makes one untraced pass, one traced pass (cProfile plus the
  layer counters of :mod:`perfbench.probe`, populating a fresh result
  cache) and one warm replay of that cache, and reports the per-layer
  metrics.  All three passes must produce the same digest.
"""

from __future__ import annotations

import cProfile
import gc
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.probe import (Counters, PassResult, Spans, count_events,  # noqa: E402
                             fold_profile, profile_stats, run_pass)
from perfbench.workloads import (WORKLOADS, Workload, digest,  # noqa: E402
                                 paper_err_pct, shape_problems)
from perfbench.speed import Sampler  # noqa: E402

OUT = ROOT / "perfbench" / "out"


def _checked(workload: Workload, seed: int, trace: str, spans: Spans,
             report: Dict[str, Any], **kwargs: Any) -> "PassResult | None":
    """``run_pass`` with its cells and failures added to ``report``."""
    n_cells = [len(part.cells(seed)) for part in workload.parts]
    report["cells"] += sum(n_cells)
    gc.collect()
    try:
        result = run_pass(workload, seed, spans, trace, **kwargs)
    except Exception:
        report["failed"] += sum(n_cells)
        report["problems"].append(traceback.format_exc())
        return None
    for part, n, merged in zip(workload.parts, n_cells, result.results):
        problems = shape_problems(part, merged)
        if problems:
            report["failed"] += n
            report["problems"].extend(problems)
    got = digest(result.results)
    if report["digest"] is None:
        report["digest"] = got
    elif got != report["digest"]:
        report["failed"] += sum(n_cells)
        report["problems"].append(f"{trace} pass digest {got[:12]} differs "
                                  f"from {report['digest'][:12]}")
    return result


def one_pass(workload: Workload, seed: int, spans: Spans,
             report: Dict[str, Any]) -> None:
    with Sampler() as speed:
        result = _checked(workload, seed, "pass", spans, report)
    if result is not None:
        scale = speed.scale()
        report["raw_wall_s"] = result.wall_s
        report["wall_s"] = result.wall_s * scale
        report["cell_s"] = [(label, w * scale) for label, w in result.cell_walls]
        report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced(workload: Workload, seed: int, spans: Spans,
           report: Dict[str, Any]) -> None:
    plain = _checked(workload, seed, "untraced", spans, report)
    counters = Counters()
    profiler = cProfile.Profile()
    OUT.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=OUT))
    try:
        probed = _checked(workload, seed, "traced", spans, report,
                          cache_dir=cache_dir, counters=counters,
                          profiler=profiler)
        replay = _checked(workload, seed, "replay", spans, report,
                          cache_dir=cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if plain is None or probed is None or replay is None:
        return
    stats = profile_stats(profiler)
    self_s = fold_profile(stats)
    events = count_events(stats)
    metrics: Dict[str, float] = {f"{k}.self_s": v for k, v in self_s.items()}
    metrics.update(counters.metrics())
    table4 = [merged for part, merged in zip(workload.parts, plain.results)
              if part.experiment == "table4"]
    metrics.update({
        "sim.events": events,
        "sim.host_us_per_event": plain.wall_s / events * 1e6 if events else 0.0,
        "core.paper_err_pct": paper_err_pct(table4[0]) if table4 else 0.0,
        "experiments.runner_overhead_s": plain.runner_overhead_s,
        "experiments.warm_replay_s": replay.wall_s,
        "experiments.cache_hit_ratio": replay.cache.hits / replay.cache.total,
        "trace.overhead": probed.wall_s / plain.wall_s,
    })
    metrics.update({f"part.{name}.wall_s": wall
                    for name, wall in plain.part_walls.items()})
    report["metrics"] = metrics
    report["attributed_s"] = sum(self_s.values())
    report["traced_wall_s"] = probed.wall_s


def main(argv: List[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    spans = Spans()
    report: Dict[str, Any] = {"cells": 0, "failed": 0, "problems": [],
                              "digest": None}
    (traced if mode == "trace" else one_pass)(WORKLOADS[name], seed, spans,
                                               report)
    report["spans"] = spans.records
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
