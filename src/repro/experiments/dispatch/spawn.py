"""Localhost worker autospawn (``run --jobs N`` spawns N workers).

Each worker is a fresh ``python -m repro.experiments.serve --port 0``
subprocess of the *same* interpreter and source tree as the caller, so
the handshake's source-fingerprint check is satisfied by construction.
The server prints ``LISTENING <port>`` on stdout once bound; the
spawner reads that line (with a deadline) to learn the ephemeral port.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Tuple

from ...sim.walltime import walltime

__all__ = ["spawn_worker", "spawned_workers"]

STARTUP_TIMEOUT_S = 30.0


def _worker_env() -> dict:
    """Caller's environment plus a PYTHONPATH that resolves ``repro``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[3])  # .../src
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (src + os.pathsep + existing) if existing else src
    return env


def _read_port(proc: subprocess.Popen, timeout: float) -> int:
    """Read the ``LISTENING <port>`` line with a deadline."""
    assert proc.stdout is not None
    deadline = walltime() + timeout
    buf = b""
    fd = proc.stdout.fileno()
    while b"\n" not in buf:
        remaining = deadline - walltime()
        if remaining <= 0 or proc.poll() is not None:
            raise RuntimeError(
                f"dispatch worker did not announce a port within "
                f"{timeout}s (exit={proc.poll()})")
        ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("dispatch worker closed stdout before "
                                   "announcing a port")
            buf += chunk
    line = buf.split(b"\n", 1)[0].decode()
    if not line.startswith("LISTENING "):
        raise RuntimeError(f"unexpected worker banner: {line!r}")
    return int(line.split()[1])


def _start() -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=_worker_env(),
    )


def _endpoint(proc: subprocess.Popen, timeout: float) -> Tuple[str, int]:
    """Wait for ``proc``'s port banner; kill it if none arrives."""
    try:
        port = _read_port(proc, timeout)
    except Exception:
        proc.kill()
        proc.wait()
        raise
    return ("127.0.0.1", port)


def spawn_worker(timeout: float = STARTUP_TIMEOUT_S,
                 ) -> Tuple[subprocess.Popen, Tuple[str, int]]:
    """Start one localhost worker; returns (process, endpoint)."""
    proc = _start()
    return proc, _endpoint(proc, timeout)


@contextmanager
def spawned_workers(n: int, timeout: float = STARTUP_TIMEOUT_S,
                    ) -> Iterator[List[Tuple[str, int]]]:
    """Spawn ``n`` localhost workers; kills them all on exit.

    All ``n`` start before any banner is awaited, so their interpreter
    startups overlap instead of adding up.
    """
    procs: List[subprocess.Popen] = []
    try:
        for _ in range(n):
            procs.append(_start())
        yield [_endpoint(proc, timeout) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
