"""The repository benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload kv-tcp --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (host time, tracing off,
scaled to the nominal box speed as ``perfbench/speed.py`` describes):

* ``wall_s``: median seconds to compute all of the workload's cells,
  uncached, over the passes that fit in ``--seconds`` (at least
  ``MIN_PASSES``);
* ``setup_s``: median seconds from a fresh interpreter to ready (imports,
  building the cells, ``source_fingerprint()``) over fresh interpreters
  started ``SETUP_PER_GAP`` at a time before every pass and after the
  last one;
* ``peak_rss_mb``: median over passes of a pass process's memory
  high-water mark;
* ``slowest_cell_s``: the longest single cell, each cell's time being
  its median over passes.

``--trace 1`` prints the per-layer metrics (see ``perfbench/worker.py``
and ``perfbench/layers.json``).  The workloads and both metric lists,
with their units, are read from ``BENCHMARK.json``.

Each pass runs in a fresh interpreter (``perfbench/worker.py``), one at a
time, with ``PYTHONHASHSEED`` set to the pass number: the string-hash
seed of a process alone moves its wall time by several percent, so every
run measures the same set of seeds.  Every pass checks its output (see
``perfbench/workloads.py``); a cell that raises, or a part whose output
fails a check, counts in ``failed``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Spans (workload -> part -> cell) are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

#: Passes an end-to-end run always makes, however long each one takes.
MIN_PASSES = 2
#: Fresh interpreters started to measure ``setup_s`` before every pass
#: and after the last one, so the samples span the whole run.
SETUP_PER_GAP = 2
#: Longest a single worker may take before it counts as failed.
WORKER_TIMEOUT_S = 150

#: What a fresh interpreter does before it can compute the first cell.
#: It reads the system-wide monotonic clock when it is ready, so the
#: measurement ends there and not when the parent notices the exit, and
#: then times reference loops for the box's speed at that moment.
SETUP_CODE = """
import sys, time
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
from repro.experiments.cells import source_fingerprint
from perfbench.workloads import WORKLOADS
for part in WORKLOADS[sys.argv[2]].parts:
    part.cells(int(sys.argv[3]))
source_fingerprint()
ready = time.clock_gettime(time.CLOCK_MONOTONIC)
import statistics
from perfbench.speed import REFERENCE_S, reference
print(ready, REFERENCE_S / statistics.median(reference() for _ in range(21)))
"""


def _child(argv: List[str], hash_seed: int) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)


class Run:
    """Workers' outcomes: cells attempted and failed, digests, spans."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        recorded = json.loads((HERE / "digests.json").read_text())
        self.expected: Optional[str] = recorded.get(workload, {}).get(str(seed))
        self.recorded = self.expected is not None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.spans: List[Dict[str, Any]] = []

    def worker(self, mode: str, hash_seed: int) -> Optional[Dict[str, Any]]:
        """Run one worker; its report, or None if it produced none."""
        try:
            child = _child([str(HERE / "worker.py"), self.workload,
                            str(self.seed), mode], hash_seed)
            report = json.loads(child.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{mode} worker produced no report: {exc!r}")
            return None
        self.attempted += report["cells"]
        self.failed += report["failed"]
        self.problems.extend(report["problems"])
        got = report["digest"]
        if self.expected is None:
            self.expected = got
        elif got is not None and got != self.expected:
            what = "recorded" if self.recorded else "first pass's"
            self.failed += report["cells"]
            self.problems.append(f"output digest {got[:12]} differs from the "
                                 f"{what} digest {self.expected[:12]}")
        base = len(self.spans)
        for span in report["spans"]:
            parent = span["parent"]
            self.spans.append(dict(
                span, id=base + span["id"],
                trace=f"{mode}{hash_seed}.{span['trace']}",
                parent=None if parent is None else base + parent))
        return report


def measure_setup(workload: str, seed: int, setup: List[float]) -> None:
    """Append ``SETUP_PER_GAP`` fresh interpreters' set-up times, scaled
    to the nominal box speed, to ``setup``."""
    for _ in range(SETUP_PER_GAP):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = _child(["-c", SETUP_CODE, str(ROOT), workload, str(seed)],
                       len(setup))
        child.check_returncode()
        ready, scale = map(float, child.stdout.split()[-2:])
        setup.append((ready - start) * scale)


def end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    setup: List[float] = []
    passes: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        measure_setup(run.workload, run.seed, setup)
        report = run.worker("pass", len(passes))
        if report is None or "wall_s" not in report:
            return {}
        passes.append(report)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    measure_setup(run.workload, run.seed, setup)
    walls = [p["wall_s"] for p in passes]
    cell_walls: Dict[str, List[float]] = {}
    for p in passes:
        for label, wall in p["cell_s"]:
            cell_walls.setdefault(label, []).append(wall)
    print(f"passes {len(walls)}: wall_s " + " ".join(f"{w:.3f}" for w in walls))
    print("unscaled wall_s " + " ".join(f"{p['raw_wall_s']:.3f}" for p in passes))
    print("setup_s samples " + " ".join(f"{w:.3f}" for w in setup))
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "slowest_cell_s": max(statistics.median(times)
                              for times in cell_walls.values()),
    }


def traced(run: Run) -> Dict[str, float]:
    report = run.worker("trace", 0)
    if report is None or "metrics" not in report:
        return {}
    # A part the workload does not run reads 0.
    metrics = {name: 0.0 for name, _ in PER_LAYER if name.startswith("part.")}
    metrics.update(report["metrics"])
    attributed, wall = report["attributed_s"], report["traced_wall_s"]
    print(f"attribution: layers sum to {attributed:.3f} s of a {wall:.3f} s "
          f"traced wall ({100 * (attributed / wall - 1):+.1f}%)")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    started = time.perf_counter()
    if args.trace:
        metrics, units = traced(run), PER_LAYER
    else:
        metrics, units = end_to_end(run, args.seconds), END_TO_END

    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    span_file.write_text(json.dumps(
        [dict(s, start_s=s["start_s"] - started, end_s=s["end_s"] - started)
         for s in run.spans], indent=1))

    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"output digest: {run.expected} "
          f"({'recorded' if run.recorded else 'not recorded; compared across passes'})")
    print(f"failed_frac {run.failed / max(run.attempted, 1):.4f} "
          f"({run.failed} of {run.attempted} cells)")
    missing = [name for name, _ in units if name not in metrics]
    if not metrics or missing:
        print(f"perfbench: no value for {', '.join(missing) or 'any metric'}",
              file=sys.stderr)
        return 1
    for name, unit in units:
        print(f"{name:34s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
