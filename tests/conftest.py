"""Shared test wiring.

Setting ``REPRO_SANITIZE=1`` in the environment runs the whole test
session under the DMAsan shadow-state sanitizer
(:mod:`repro.analysis.sanitizer`): every test gets a fresh
:class:`DmaSanitizer` installed for its duration, and a test fails if
the workload it simulated breached any cross-layer DMA invariant.

If the operator asked for sanitizing but the hooks cannot be armed —
the analysis package fails to import, or installing the session does
not actually activate it — the run must abort loudly.  Skipping here
would report a green "sanitized" run that never sanitized anything.

Tests that *deliberately* provoke violations (the sanitizer's own
tests) open an inner ``hooks.session`` of their own, so the session-wide
observer never sees their events.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

SANITIZE = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")

try:
    from repro.analysis import hooks
    from repro.analysis.sanitizer import DmaSanitizer
except Exception as exc:  # pragma: no cover - exercised only when broken
    if SANITIZE:
        raise pytest.UsageError(
            f"REPRO_SANITIZE=1 but the DMAsan hooks failed to import: {exc!r}; "
            "refusing to run a silently unsanitized session"
        )
    hooks = None
    DmaSanitizer = None


@pytest.fixture(autouse=SANITIZE)
def _dma_sanitizer(request):
    """Session-wide DMAsan: one fresh sanitizer per test, fail on violations."""
    san = DmaSanitizer()
    with hooks.session(san):
        if hooks.active is not san:
            pytest.fail(
                "REPRO_SANITIZE=1 but repro.analysis.hooks did not activate "
                "the session sanitizer; refusing to run silently unsanitized",
                pytrace=False,
            )
        yield san
        san.final_check()
    if san.violations:
        pytest.fail(san.summary(), pytrace=False)


@pytest.fixture
def dispatch_jobs(monkeypatch):
    """Make ``jobs > 1`` really spawn dispatch workers on any box.

    The runner's honesty heuristic keeps ``jobs > 1`` in-process on
    <= 2 usable CPUs; this fixture reports four, so the parallel path
    is what the test exercises.  Spawned workers inherit the repo root
    as their cwd, so cells defined in ``tests.*`` resolve there too.
    """
    from repro.experiments import runner

    monkeypatch.setattr(runner, "usable_cpus", lambda: 4)
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
