"""The benchmark's workloads: which experiment cells each one runs, at
what input size, and how its merged output is checked.

A workload is a batch, not a traffic generator: every pass computes the
same cells, built through the public cell API
(``SPECS[name].cells(..., seed=S)``), and folds them with
``SPECS[name].merge``.  The workload seed is the only input the
benchmark varies; it is passed straight to each experiment's ``cells``
builder.

Output checks have two halves:

* a digest of ``results_to_json`` over the merged parts, compared with
  the digest recorded in ``digests.json`` for the seeds listed there
  (the default seed and one held-out seed), and compared across every
  pass of one run for any other seed;
* the paper-shape orderings each experiment must keep at any seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.experiments.base import ExperimentResult, results_to_json
from repro.experiments.runner import SPECS
from repro.experiments.table4_tail import PAPER as TABLE4_PAPER
from repro.sim.units import MB

__all__ = ["Part", "Workload", "WORKLOADS", "DEFAULT_SEED", "HELD_OUT_SEED",
           "DIGESTS_FILE", "digest", "recorded_digest", "shape_problems",
           "paper_err_pct"]

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

#: The seed the digests were first recorded at, and the one kept back
#: while the workloads were sized.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


@dataclass(frozen=True)
class Part:
    """One experiment of a workload, at the workload's input size."""

    experiment: str                       # registry name in ``SPECS``
    sizes: Tuple[Tuple[str, Any], ...]    # keyword arguments to ``cells``

    def cells(self, seed: int) -> list:
        return SPECS[self.experiment].cells(**dict(self.sizes), seed=seed)

    def merge(self, cells: Sequence, fragments: List[Any]) -> ExperimentResult:
        return SPECS[self.experiment].merge(cells, fragments)


@dataclass(frozen=True)
class Workload:
    name: str
    parts: Tuple[Part, ...]


def _part(experiment: str, **sizes: Any) -> Part:
    return Part(experiment, tuple(sorted(sizes.items())))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # fig7's cell pair: memcached over TCP through the backup ring (NPF)
    # and through a static pin, with the switch at 0.25 s.  Each TCP
    # send scans every source range its connection has queued, so that
    # scan's share of the wall grows with the duration: about 7% at
    # 1.5 simulated seconds, 11% at 2 s, 15% at 2.5 s.  2 s keeps a
    # pass near 16 s, two of which fit in a 30 s run.
    Workload("kv-tcp", (
        _part("fig7", duration=2.0, switch_at=0.25),
    )),
    # fig10-eth's 24-cell sweep: bulk TCP streams with injected rNPFs,
    # backup ring vs drop, minor vs major, six fault frequencies.  At
    # 4 MB per stream the slowest cell's time varies about half as much
    # across seeds as at 2 MB.
    Workload("eth-stream", (
        _part("fig10-eth", total_bytes=4 * MB),
    )),
    # table4's NPF storm and the 16-to-1 rack incast; the two halves
    # take comparable host time.  At 150 messages per sender every
    # incast cell is below the go-back-N congestion-collapse regime
    # (which starts near 600).
    Workload("rdma-fabric", (
        _part("table4", samples=400),
        _part("rack-incast", messages=150),
    )),
)}


# -- output checks ------------------------------------------------------------

def digest(results: Sequence[ExperimentResult]) -> str:
    """SHA-256 of the merged parts' JSON, the byte-identity invariant."""
    return hashlib.sha256(results_to_json(results).encode()).hexdigest()


def recorded_digest(workload: str, seed: int) -> "str | None":
    """The digest recorded for ``workload`` at ``seed``, if there is one."""
    recorded = json.loads(DIGESTS_FILE.read_text())
    return recorded.get(workload, {}).get(str(seed))


def _check_fig7(result: ExperimentResult, part: Part) -> List[str]:
    switch_at = dict(part.sizes)["switch_at"]
    after = [row for row in result.rows if row["time_s"] > switch_at]
    if not after:
        return ["fig7: no sample after the working-set switch"]
    last = after[-1]
    if not last["npf_total"] > last["pin_total"]:
        return [f"fig7: NPF aggregate {last['npf_total']:.1f} does not beat "
                f"pin {last['pin_total']:.1f} after the switch"]
    return []


def _check_fig10_eth(result: ExperimentResult, part: Part) -> List[str]:
    problems = []
    for row in result.rows:
        for kind in ("minor", "major"):
            if row[f"{kind}_brng"] < row[f"{kind}_drop"]:
                problems.append(
                    f"fig10-eth: {kind} backup ring below drop at "
                    f"frequency {row['frequency']}")
    return problems


_PERCENTILES = ("p50_us", "p95_us", "p99_us", "max_us")


def _check_table4(result: ExperimentResult, part: Part) -> List[str]:
    problems = []
    by_size = {row["message"]: row for row in result.rows}
    for label, row in by_size.items():
        values = [row[p] for p in _PERCENTILES]
        if values != sorted(values):
            problems.append(f"table4: {label} percentiles not ordered: "
                            f"{values}")
    small, large = by_size.get("4KB"), by_size.get("4MB")
    if small is None or large is None:
        return problems + ["table4: missing a message size"]
    for p in _PERCENTILES:
        if not large[p] > small[p]:
            problems.append(f"table4: 4MB {p} not above 4KB")
    return problems


def _check_rack(result: ExperimentResult, part: Part) -> List[str]:
    """GBN's goodput loss against lossless PFC, averaged over the memory
    regimes, exceeds IRN's.  (In the static regime alone the two are
    close enough that one extra RTO flips them at some seeds.)"""
    goodput = {(row["net"], row["memory"]): row["goodput_gbps"]
               for row in result.rows}
    memories = sorted({memory for _, memory in goodput})
    loss = {net: sum(1 - goodput[(net, m)] / goodput[("pfc", m)]
                     for m in memories) / len(memories)
            for net in ("gbn", "irn")}
    if not loss["gbn"] > loss["irn"]:
        return [f"rack-incast: GBN degrades {loss['gbn']:.1%} against PFC, "
                f"not more than IRN's {loss['irn']:.1%}"]
    return []


_CHECKS: Mapping[str, Callable[[ExperimentResult, Part], List[str]]] = {
    "fig7": _check_fig7,
    "fig10-eth": _check_fig10_eth,
    "table4": _check_table4,
    "rack-incast": _check_rack,
}


def shape_problems(part: Part, result: ExperimentResult) -> List[str]:
    """The paper-shape orderings ``result`` breaks (empty when it keeps them)."""
    return _CHECKS[part.experiment](result, part)


def paper_err_pct(result: ExperimentResult) -> float:
    """Mean relative error (%) of table4's percentiles against the paper."""
    errors = []
    for row in result.rows:
        paper = TABLE4_PAPER[row["message"]]
        for key in ("p50", "p95", "p99", "max"):
            errors.append(abs(row[f"{key}_us"] - paper[key]) / paper[key])
    return 100.0 * sum(errors) / len(errors)
