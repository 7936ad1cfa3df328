"""Record the output digests the benchmark checks against.

    python3 perfbench/record.py [workload ...]

Computes every named workload (default: all) once at the default and
the held-out seed and rewrites ``perfbench/digests.json``.  Run it only
for a change that alters simulated behaviour on purpose; the paper-shape
checks must still pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.probe import Spans, run_pass  # noqa: E402
from perfbench.workloads import (DEFAULT_SEED, DIGESTS_FILE,  # noqa: E402
                                 HELD_OUT_SEED, WORKLOADS, digest,
                                 shape_problems)


def main(names: list) -> int:
    recorded = json.loads(DIGESTS_FILE.read_text())
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        recorded[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            result = run_pass(workload, seed, Spans(), "record")
            problems = [p for part, merged in zip(workload.parts, result.results)
                        for p in shape_problems(part, merged)]
            if problems:
                print(f"{name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            recorded[name][str(seed)] = digest(result.results)
            print(f"{name} seed {seed}: {recorded[name][str(seed)]}")
    DIGESTS_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
