"""Sweep cells — the unit of parallel experiment execution.

Every experiment in this suite decomposes into independent *cells*:
one (mode, ring size, capacity, ...) point of its sweep, which builds
its own :class:`~repro.sim.engine.Environment`, runs it, and returns a
small picklable fragment (a row dict, a series, a scalar).  A
:class:`Cell` is the pure description of one such point — the function
to call (by dotted name, so it pickles across processes) plus its
keyword configuration, frozen into a hashable tuple.

Three properties make cells the right currency for the runner
(:mod:`repro.experiments.runner`):

* **pure** — a cell reads nothing but its config (lint rule RL007
  enforces this statically for every ``cell_*`` function), so cells
  can run in any order, in any process;
* **picklable** — the description is strings/ints/floats/tuples and
  the fragment is plain data, so cells travel to dispatch workers
  (:mod:`repro.experiments.dispatch`) unchanged;
* **content-addressed** — :func:`cell_fingerprint` hashes the config
  together with a fingerprint of the ``repro`` source tree, giving the
  on-disk result cache a key that invalidates itself whenever either
  the sweep point or the code that computes it changes.

Experiment modules expose ``cells(**kwargs)`` builders returning the
canonical cell order and ``merge(cells, fragments)`` functions folding
fragments back into an :class:`~repro.experiments.base.ExperimentResult`.
The runner pairs the two (``run_experiment(name, **sizes)``), so every
caller — ``--jobs 1``, ``--jobs N``, tests and benchmarks — executes
byte-for-byte identical per-cell code and merges in the same order.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

__all__ = [
    "Cell",
    "cell",
    "resolve",
    "execute",
    "cell_fingerprint",
    "source_fingerprint",
]


@dataclass(frozen=True)
class Cell:
    """One sweep point of one experiment, described purely."""

    experiment: str                      # registry name, e.g. "table4"
    index: int                           # canonical position in the sweep
    fn: str                              # "repro.experiments.mod:cell_name"
    config: Tuple[Tuple[str, Any], ...]  # sorted (keyword, value) pairs

    def kwargs(self) -> dict:
        return dict(self.config)

    def label(self) -> str:
        """Human-readable "table4[1] cell_size(...)" description."""
        args = ", ".join(f"{k}={v!r}" for k, v in self.config)
        name = self.fn.rsplit(":", 1)[-1]
        return f"{self.experiment}[{self.index}] {name}({args})"


def cell(experiment: str, index: int, fn: Callable, **config: Any) -> Cell:
    """Build a :class:`Cell` for module-level function ``fn``.

    ``config`` values must be picklable and carry a stable ``repr``
    (ints, floats, strings, bools, None, tuples thereof) — they feed
    both the dispatch wire format and the content hash.
    """
    ref = f"{fn.__module__}:{fn.__qualname__}"
    return Cell(experiment, index, ref, tuple(sorted(config.items())))


def resolve(spec: Cell) -> Callable:
    """Import and return the cell's function."""
    module_name, _, qualname = spec.fn.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def execute(spec: Cell, **extra: Any) -> Any:
    """Run one cell in this process and return its fragment.

    ``extra`` lets in-process callers thread non-picklable side
    channels (e.g. fig3's ``logs=`` collectors) into the very same
    functions the runner calls without them.
    """
    return resolve(spec)(**spec.kwargs(), **extra)


# -- content addressing ------------------------------------------------------

_SOURCE_ROOT = Path(__file__).resolve().parent.parent  # src/repro
_fingerprint_cache: Optional[str] = None


def source_fingerprint(refresh: bool = False) -> str:
    """SHA-256 over every ``*.py`` under ``src/repro`` (path + bytes).

    Cached per process: the tree cannot change under a running sweep,
    and hashing ~100 files per cell lookup would dwarf small cells.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None or refresh:
        digest = hashlib.sha256()
        for path in sorted(_SOURCE_ROOT.rglob("*.py")):
            digest.update(path.relative_to(_SOURCE_ROOT).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


def cell_fingerprint(spec: Cell, source_fp: str) -> str:
    """Content hash of (cell description, source tree) — the cache key.

    Uses ``repr`` of the frozen description: every config value is a
    primitive whose repr is exact (floats round-trip via repr in
    Python 3), so equal cells hash equal and nothing else does.
    """
    payload = repr((spec.experiment, spec.index, spec.fn, spec.config,
                    source_fp))
    return hashlib.sha256(payload.encode()).hexdigest()
