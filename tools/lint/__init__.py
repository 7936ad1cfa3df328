"""repro-lint: AST-based determinism and DMA-invariant lint pass.

The simulation substrate promises bit-identical outputs for identical
seeds.  That promise dies quietly the moment somebody formats an
``id()``, iterates a ``set`` into the event queue, or reads the wall
clock inside a model.  This package is the static half of the defence
(the dynamic half is :mod:`repro.analysis`): a small, dependency-free
linter with rules specific to this codebase.

Rules
-----

========  ==================================================================
RL001     wall-clock read (``time.time``/``datetime.now``/...) in simulation
          code; only :mod:`repro.sim.walltime` may touch the clock.
          Mechanically fixable (``--fix``) to the ``walltime()`` helper.
RL002     module-level :mod:`random` (or ``numpy.random``) in simulation
          code; all randomness must flow through the seeded
          :mod:`repro.sim.rng`.
RL003     ``id()`` call: object identity is allocation-order dependent, so
          any ordering or formatting derived from it is nondeterministic.
RL004     iteration over a ``set``/``frozenset`` expression: set order is
          hash-seed dependent.  Mechanically fixable (``--fix``) by
          wrapping the iterable in ``sorted()``.
RL005     class in a hot module (``sim/engine.py``, ``mem/memory.py``,
          ``iommu/*``) without ``__slots__`` (or ``@dataclass(slots=True)``).
RL006     page-table ``unmap``/``unmap_range`` call in a function with no
          IOTLB ``invalidate*`` call: a missing shootdown leaves stale DMA
          translations (use-after-unmap).
RL007     ``cell_*`` function in an experiment module reads module-level
          mutable state (or declares ``global``/``nonlocal``): sweep cells
          must be pure — the parallel runner pickles only the cell config,
          so hidden state diverges between workers and poisons the
          content-addressed cache.
RL008     direct ``heapq`` operation on state reached through an
          ``Environment`` outside ``sim/``: a push that bypasses the
          Environment skips its tie counter, so equal-time events no
          longer fire in FIFO order — schedule via ``env.timeout``/
          ``after``/``defer``/``schedule_callback``.
========  ==================================================================

Suppression
-----------

* inline: ``# lint: disable=RL001`` (comma-separated codes, or bare
  ``# lint: disable`` for everything) on the offending line;
* baseline: ``tools/lint/baseline.txt`` — committed, line format
  ``CODE|path|stripped source line``.  ``--update-baseline`` rewrites it
  from the current findings.

Run as ``python -m tools.lint src/`` (see ``--help``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .rules import RULE_DOCS, Fix, collect_findings

__all__ = [
    "Finding",
    "RULE_DOCS",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "format_baseline",
]


@dataclass
class Finding:
    """One lint hit, with an optional mechanical fix."""

    path: str
    line: int
    col: int
    code: str
    message: str
    fix: Optional[Fix] = field(default=None, compare=False)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


_DISABLE_RE = re.compile(r"#\s*lint:\s*disable(?:=([A-Z0-9, ]+))?")


def _inline_suppressions(lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line -> set of disabled codes (None = all codes)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for i, text in enumerate(lines, start=1):
        m = _DISABLE_RE.search(text)
        if not m:
            continue
        if m.group(1) is None:
            out[i] = None
        else:
            out[i] = {c.strip() for c in m.group(1).split(",") if c.strip()}
    return out


def fingerprint(finding: Finding, lines: Sequence[str]) -> str:
    """Line-number-independent identity used by the baseline file."""
    text = ""
    if 1 <= finding.line <= len(lines):
        text = lines[finding.line - 1].strip()
    return f"{finding.code}|{finding.path}|{text}"


def load_baseline(path: Path) -> Set[str]:
    """Read the committed baseline; blank lines and ``#`` comments ignored."""
    if not path.exists():
        return set()
    entries: Set[str] = set()
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            entries.add(line)
    return entries


def format_baseline(findings: Sequence[Tuple[Finding, str]]) -> str:
    header = (
        "# repro-lint baseline: accepted pre-existing findings.\n"
        "# One entry per line: CODE|path|stripped source line.\n"
        "# Regenerate with: python -m tools.lint --update-baseline <paths>\n"
    )
    body = "\n".join(sorted({fp for _, fp in findings}))
    return header + (body + "\n" if body else "")


def lint_file(path: Path, display_path: str) -> List[Finding]:
    """Lint one file; returns findings not suppressed inline."""
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(display_path, exc.lineno or 1, (exc.offset or 1) - 1,
                        "RL000", f"syntax error: {exc.msg}")]
    lines = source.splitlines()
    suppressed = _inline_suppressions(lines)
    findings: List[Finding] = []
    for raw in collect_findings(display_path, tree, lines):
        disabled = suppressed.get(raw.line, ...)
        if disabled is None or (disabled is not ... and raw.code in disabled):
            continue
        findings.append(
            Finding(display_path, raw.line, raw.col, raw.code, raw.message,
                    raw.fix)
        )
    return findings


def collect_files(paths: Sequence[str]) -> List[Tuple[Path, str]]:
    """Expand CLI path arguments into (file, display-path) pairs."""
    out: List[Tuple[Path, str]] = []
    for arg in paths:
        p = Path(arg)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                out.append((f, f.as_posix()))
        elif p.suffix == ".py":
            out.append((p, p.as_posix()))
    return out


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    findings: List[Finding] = []
    for f, display in collect_files(paths):
        findings.extend(lint_file(f, display))
    findings.sort(key=lambda x: (x.path, x.line, x.col, x.code))
    return findings
