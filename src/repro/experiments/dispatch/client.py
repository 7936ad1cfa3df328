"""The work-stealing dispatcher: fan pending cells across workers.

Topology: one dispatcher thread per connected worker, all sharing one
lock-protected pool of ``(cell_index, Cell)`` jobs.  Jobs start split
into contiguous per-worker deques; a thread pulls an adaptive-size
chunk from the *head* of its own deque, falls back to the orphan deque
(cells reassigned from dead workers), and finally **steals** from the
*tail* of the richest other deque — the classic owner-head/thief-tail
discipline, so stealing grabs the work its owner would reach last.

Chunks amortize protocol round-trips: a chunk's frames are pipelined
(all sent, then all replies read), and the chunk size shrinks as the pool
drains so the sweep's tail stays balanced instead of parked on one
slow worker.

Robustness is part of the perf story:

* every blocking socket operation runs under a timeout (RL013);
* a worker that times out on a cell or drops its connection is marked
  dead, its unfinished chunk and queued jobs move to the orphan deque
  (``reassigned``), and the remaining workers absorb them;
* when the last worker dies, the leftovers are executed *in this
  process* — the sweep degrades, it never fails or hangs;
* an ``error`` reply (the cell itself raised) is propagated, never
  reassigned: cells are deterministic, the raise would follow the cell
  to every worker.

Fragments come back keyed by cell index; the runner merges them in
canonical order, so output is byte-identical at any worker count.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .protocol import (
    ProtocolError,
    StaleWorkerError,
    client_handshake,
    recv_frame,
    send_frame,
)

__all__ = [
    "CONNECT_TIMEOUT_S",
    "DispatchStats",
    "DispatchUnavailable",
    "dispatch_cells",
    "parse_endpoints",
]

CONNECT_TIMEOUT_S = 5.0
HANDSHAKE_TIMEOUT_S = 15.0

#: Upper bound on a dispatch chunk: past this, pipelining gains nothing
#: and a worker death reassigns needlessly much.
MAX_CHUNK = 8

Job = Tuple[int, Any]  # (cell index, Cell)


class DispatchUnavailable(RuntimeError):
    """No worker survived connect + handshake; caller should fall back."""


class CellExecutionError(RuntimeError):
    """A cell raised on a worker (deterministic; not reassignable)."""


@dataclass
class DispatchStats:
    """Accounting for one dispatch pass (feeds ``RunReport.mode``)."""

    workers: int = 0            # workers live after handshake
    remote: int = 0             # cells completed on workers
    local: int = 0              # leftovers executed in-process (degraded)
    stolen: int = 0             # cells taken from another worker's deque
    reassigned: int = 0         # cells requeued off dead/timed-out workers
    dead: List[str] = field(default_factory=list)   # endpoints that died
    rejected: List[str] = field(default_factory=list)  # failed handshake

    def mode(self) -> str:
        return (f"dispatch(n={self.workers}, stolen={self.stolen}, "
                f"reassigned={self.reassigned})")


def parse_endpoints(spec) -> List[Tuple[str, int]]:
    """``"host:port,host:port"`` (or an iterable of such) -> endpoints."""
    if spec is None:
        return []
    if isinstance(spec, str):
        parts = [p for p in spec.split(",") if p.strip()]
    else:
        parts = [p for item in spec for p in str(item).split(",")
                 if p.strip()]
    endpoints = []
    for part in parts:
        host, sep, port = part.strip().rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(f"bad worker endpoint {part!r} "
                             f"(expected host:port)")
        endpoints.append((host or "127.0.0.1", int(port)))
    return endpoints


class _Worker:
    """One connected worker and its dispatcher-side state."""

    __slots__ = ("endpoint", "sock", "jobs", "alive", "thread")

    def __init__(self, endpoint: str, sock: socket.socket):
        self.endpoint = endpoint
        self.sock = sock
        self.jobs: Deque[Job] = deque()
        self.alive = True
        self.thread: Optional[threading.Thread] = None


class _Dispatcher:
    def __init__(self, jobs: Sequence[Job], workers: List[_Worker],
                 stats: DispatchStats, cell_timeout: float,
                 sanitize: bool):
        self.lock = threading.Lock()
        self.workers = workers
        self.stats = stats
        self.cell_timeout = cell_timeout
        self.sanitize = sanitize
        self.orphans: Deque[Job] = deque()
        self.results: Dict[int, Any] = {}
        self.remaining = len(jobs)
        self.error: Optional[CellExecutionError] = None
        # Contiguous block split: worker k starts on the slice a fair
        # static partition would give it; stealing handles the skew.
        n = len(workers)
        for k, worker in enumerate(workers):
            lo = (len(jobs) * k) // n
            hi = (len(jobs) * (k + 1)) // n
            worker.jobs.extend(jobs[lo:hi])

    # -- job pool (all under self.lock) --------------------------------

    def _chunk_size(self) -> int:
        live = sum(1 for w in self.workers if w.alive) or 1
        return max(1, min(MAX_CHUNK, -(-self.remaining // (live * 4))))

    def _take_chunk(self, me: _Worker) -> List[Job]:
        with self.lock:
            if self.error is not None:
                return []
            size = self._chunk_size()
            chunk: List[Job] = []
            while me.jobs and len(chunk) < size:
                chunk.append(me.jobs.popleft())
            while self.orphans and len(chunk) < size:
                chunk.append(self.orphans.popleft())
            if chunk:
                return chunk
            # Steal from the richest deque, tail first: the owner works
            # head-first, so the tail is what it would reach last.
            victim = max((w for w in self.workers if w is not me and w.jobs),
                         key=lambda w: len(w.jobs), default=None)
            if victim is None:
                return []
            take = max(1, min(size, len(victim.jobs) // 2 or 1))
            for _ in range(take):
                chunk.append(victim.jobs.pop())
            chunk.reverse()  # keep ascending-index dispatch order
            self.stats.stolen += len(chunk)
            return chunk

    def _requeue(self, me: _Worker, unfinished: List[Job]) -> None:
        """Worker death: move its unfinished work to the orphan pool."""
        with self.lock:
            me.alive = False
            self.stats.dead.append(me.endpoint)
            requeued = list(unfinished)
            requeued.extend(me.jobs)
            me.jobs.clear()
            self.orphans.extend(requeued)
            self.stats.reassigned += len(requeued)

    def _complete(self, index: int, fragment: Any) -> None:
        with self.lock:
            self.results[index] = fragment
            self.stats.remote += 1
            self.remaining -= 1

    # -- per-worker thread ---------------------------------------------

    def run_worker(self, me: _Worker) -> None:
        try:
            while True:
                chunk = self._take_chunk(me)
                if not chunk:
                    break
                done = self._run_chunk(me, chunk)
                if done < len(chunk):
                    self._requeue(me, chunk[done:])
                    return
        finally:
            try:
                send_frame(me.sock, {"kind": "bye"}, CONNECT_TIMEOUT_S)
            except (OSError, ProtocolError):
                pass
            me.sock.close()

    def _run_chunk(self, me: _Worker, chunk: List[Job]) -> int:
        """Pipeline one chunk; returns how many cells completed."""
        done = 0
        try:
            for index, spec in chunk:
                send_frame(me.sock, {"kind": "cell", "seq": index,
                                     "cell": spec,
                                     "sanitize": self.sanitize},
                           self.cell_timeout)
            for index, spec in chunk:
                reply = recv_frame(me.sock, self.cell_timeout)
                if reply["kind"] == "error":
                    # Deterministic cell failure: propagate, do not
                    # reassign (it would raise identically anywhere).
                    with self.lock:
                        if self.error is None:
                            self.error = CellExecutionError(
                                f"cell {reply.get('label')} raised on "
                                f"worker {me.endpoint}:\n"
                                f"{reply.get('traceback')}")
                        self.remaining -= 1
                    done += 1
                    continue
                if reply["kind"] != "result" or reply.get("seq") != index:
                    raise ProtocolError(
                        f"expected result seq={index}, got {reply!r}")
                self._complete(index, reply["fragment"])
                done += 1
            return done
        except (socket.timeout, OSError, ProtocolError):
            return done


def _connect(endpoints: Sequence[Tuple[str, int]], fingerprint: str,
             stats: DispatchStats) -> List[_Worker]:
    workers: List[_Worker] = []
    for host, port in endpoints:
        endpoint = f"{host}:{port}"
        try:
            sock = socket.create_connection((host, port),
                                            timeout=CONNECT_TIMEOUT_S)
        except OSError:
            stats.dead.append(endpoint)
            continue
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            client_handshake(sock, fingerprint, HANDSHAKE_TIMEOUT_S)
        except StaleWorkerError as exc:
            stats.rejected.append(f"{endpoint}: {exc}")
            sock.close()
            continue
        except (OSError, ProtocolError):
            stats.dead.append(endpoint)
            sock.close()
            continue
        workers.append(_Worker(endpoint, sock))
    stats.workers = len(workers)
    return workers


def dispatch_cells(jobs: Sequence[Job],
                   endpoints: Sequence[Tuple[str, int]],
                   fingerprint: str,
                   cell_timeout: float,
                   sanitize: bool,
                   local_execute: Callable[[Any], Any],
                   ) -> Tuple[Dict[int, Any], DispatchStats]:
    """Execute ``jobs`` across ``endpoints``; returns (index->fragment).

    Raises :class:`DispatchUnavailable` when no worker survives the
    handshake (the caller falls back to in-process execution) and
    :class:`CellExecutionError` when a cell deterministically raised.
    Worker deaths mid-run never raise: their jobs are reassigned, and
    if every worker dies the leftovers run locally via
    ``local_execute`` (counted in ``stats.local``).
    """
    stats = DispatchStats()
    workers = _connect(endpoints, fingerprint, stats)
    if not workers:
        detail = "; ".join(stats.rejected + [f"{d}: unreachable"
                                             for d in stats.dead])
        raise DispatchUnavailable(f"no live dispatch workers ({detail})")

    dispatcher = _Dispatcher(list(jobs), workers, stats, cell_timeout,
                             sanitize)
    for worker in workers:
        worker.thread = threading.Thread(
            target=dispatcher.run_worker, args=(worker,),
            name=f"dispatch-{worker.endpoint}", daemon=True)
        worker.thread.start()
    for worker in workers:
        assert worker.thread is not None
        worker.thread.join()

    if dispatcher.error is not None:
        raise dispatcher.error

    # Degraded completion: every worker died with work outstanding.
    leftovers = list(dispatcher.orphans)
    dispatcher.orphans.clear()
    for worker in workers:   # threads joined; no more concurrent access
        leftovers.extend(worker.jobs)
        worker.jobs.clear()
    for index, spec in sorted(leftovers):
        dispatcher.results[index] = local_execute(spec)
        stats.local += 1
    return dispatcher.results, stats
