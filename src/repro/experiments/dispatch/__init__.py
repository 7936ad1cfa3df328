"""Distributed cell dispatch: scale ``run all`` past one box.

Sweep cells are pure, picklable and content-hash cached (see
:mod:`repro.experiments.cells`), so remote execution is a transport
problem, not a correctness one.  This package is that transport,
stdlib-only:

* :mod:`.protocol` — length-prefixed pickle frames over TCP, with a
  version + source-fingerprint handshake so a worker running stale
  code is *rejected* instead of silently computing wrong fragments;
* :mod:`.server` — the cell worker (``python -m repro.experiments.serve
  --port N``): one process, one cell at a time, parallelism comes from
  running many workers;
* :mod:`.client` — the work-stealing dispatcher: worker threads pull
  adaptive-size chunks from per-worker deques, steal from the richest
  victim when their own runs dry, reassign the in-flight cells of a
  dead or timed-out worker, and degrade to in-process execution when
  the last worker dies;
* :mod:`.spawn` — localhost worker autospawn: ``run --jobs N`` spawns
  N workers for the run (when they can win), and the smoke/bench
  harnesses spawn their own.

Determinism contract: the dispatcher returns fragments keyed by cell
index and the runner merges them in canonical cell order, so ``run
all`` stdout/JSON is byte-identical at any worker count — including
runs where workers die mid-sweep.
"""

from .client import (
    DispatchStats,
    DispatchUnavailable,
    dispatch_cells,
    parse_endpoints,
)
from .protocol import PROTOCOL_VERSION, ProtocolError, StaleWorkerError
from .spawn import spawned_workers

__all__ = [
    "DispatchStats",
    "DispatchUnavailable",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "StaleWorkerError",
    "dispatch_cells",
    "parse_endpoints",
    "spawned_workers",
]
