"""The distributed cell dispatch subsystem: protocol, stealing, failure.

Three layers of coverage:

* protocol unit tests over a socketpair (framing, torn frames, size
  bound, handshake accept/reject);
* dispatcher integration against real ``python -m
  repro.experiments.serve`` subprocess workers, including the
  determinism acceptance criterion — ``run all`` (fast subset)
  byte-identical across ``--workers {0,1,3}`` — and the seed matrix;
* failure drills: a stale worker is rejected not used, a cell that
  kills its worker mid-run is reassigned until the sweep degrades to
  in-process, a worker that wedges is timed out and its cells finish
  in-process, and a mid-run ``SIGKILL`` of one worker leaves the
  output byte-identical.

Worker subprocesses inherit the test process's cwd (the repo root), so
cells defined in this module resolve by dotted name on the workers too.
"""

from __future__ import annotations

import hashlib
import os
import signal
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.base import results_to_json
from repro.experiments.cells import Cell, execute, source_fingerprint
from repro.experiments.dispatch import protocol
from repro.experiments.dispatch.client import (
    CellExecutionError,
    DispatchUnavailable,
    dispatch_cells,
    parse_endpoints,
)
from repro.experiments.dispatch.server import CellServer
from repro.experiments.dispatch.spawn import spawn_worker, spawned_workers
from repro.experiments.runner import run_experiment, run_many

REPO = Path(__file__).resolve().parent.parent

#: Sub-second experiments: the dispatch acceptance runs ride on these.
FAST = ["table3", "sec63", "ablation-batching", "ablation-bypass",
        "ablation-classes", "ablation-pdc"]


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def _json_md5(report) -> str:
    return _md5(results_to_json(report.results.values()))


@pytest.fixture(autouse=True)
def _repo_root_cwd(monkeypatch):
    """Workers must import ``tests.*`` cells: run from the repo root."""
    monkeypatch.chdir(REPO)


# -- cells used by the failure drills (resolved by dotted name) --------------

def cell_noop(value: int) -> int:
    return value * 2


def cell_worker_suicide(value: int) -> int:
    """Kills any dispatch *worker* that executes it; harmless locally.

    The serve CLI sets ``REPRO_DISPATCH_WORKER=1`` in the worker
    process, so remote execution dies abruptly mid-session (connection
    reset, no reply) while the dispatcher's in-process retry completes
    normally — a deterministic stand-in for a crashing worker.
    """
    if os.environ.get("REPRO_DISPATCH_WORKER"):
        os._exit(17)
    return value * 2


def cell_wedge(value: int) -> int:
    """Hangs any dispatch *worker* that executes it; instant locally.

    A deterministic stand-in for a wedged worker: the connection stays
    up but no reply ever comes, so only the per-cell timeout can tell.
    """
    if os.environ.get("REPRO_DISPATCH_WORKER"):
        time.sleep(60.0)
    return value * 2


def cell_raises(value: int) -> int:
    raise ValueError(f"deterministic cell failure ({value})")


def _jobs(specs):
    return list(enumerate(specs))


def _noop_cells(n):
    return [Cell("drill", i, "tests.test_dispatch:cell_noop",
                 (("value", i),)) for i in range(n)]


# -- protocol ----------------------------------------------------------------

def test_frame_roundtrip():
    a, b = socket.socketpair()
    try:
        protocol.send_frame(a, {"kind": "x", "n": 7}, timeout=5.0)
        assert protocol.recv_frame(b, timeout=5.0) == {"kind": "x", "n": 7}
    finally:
        a.close()
        b.close()


def test_torn_frame_raises_protocol_error():
    a, b = socket.socketpair()
    try:
        a.sendall(b"\x00\x00\x00\x10partial")
        a.close()
        with pytest.raises(protocol.ProtocolError, match="mid-frame"):
            protocol.recv_frame(b, timeout=5.0)
    finally:
        b.close()


def test_oversized_frame_header_refused():
    a, b = socket.socketpair()
    try:
        a.sendall((protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(protocol.ProtocolError, match="refusing"):
            protocol.recv_frame(b, timeout=5.0)
    finally:
        a.close()
        b.close()


def test_non_message_frame_refused():
    a, b = socket.socketpair()
    try:
        protocol.send_frame(a, {"no": "kind"}, timeout=5.0)
        with pytest.raises(protocol.ProtocolError, match="not a message"):
            protocol.recv_frame(b, timeout=5.0)
    finally:
        a.close()
        b.close()


def test_parse_endpoints():
    assert parse_endpoints("127.0.0.1:9001,box2:9002") == [
        ("127.0.0.1", 9001), ("box2", 9002)]
    assert parse_endpoints(["a:1", "b:2,c:3"]) == [
        ("a", 1), ("b", 2), ("c", 3)]
    assert parse_endpoints(None) == []
    with pytest.raises(ValueError, match="bad worker endpoint"):
        parse_endpoints("no-port")


# -- handshake ---------------------------------------------------------------

def _threaded_server(fingerprint=None, max_sessions=1):
    server = CellServer(session_timeout=10.0)
    if fingerprint is not None:
        server.fingerprint = fingerprint
    port = server.bind()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"max_sessions": max_sessions},
        daemon=True)
    thread.start()
    return server, port, thread


def test_stale_worker_is_rejected_not_used():
    server, port, thread = _threaded_server(fingerprint="stale" * 13)
    try:
        with pytest.raises(DispatchUnavailable, match="fingerprint mismatch"):
            dispatch_cells(_jobs(_noop_cells(2)), [("127.0.0.1", port)],
                           source_fingerprint(), cell_timeout=10.0,
                           sanitize=False, local_execute=execute)
    finally:
        server.close()
        thread.join(timeout=5)


def test_version_mismatch_is_rejected():
    server, port, thread = _threaded_server()
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        protocol.send_frame(sock, {"kind": "hello", "version": 999,
                                   "fingerprint": source_fingerprint()},
                            timeout=5.0)
        reply = protocol.recv_frame(sock, timeout=5.0)
        assert reply["kind"] == "hello-reject"
        assert "version" in reply["reason"]
        sock.close()
    finally:
        server.close()
        thread.join(timeout=5)


def test_unreachable_workers_raise_dispatch_unavailable():
    # A port nobody listens on: connect is refused immediately.
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    placeholder.close()
    with pytest.raises(DispatchUnavailable, match="no live dispatch workers"):
        dispatch_cells(_jobs(_noop_cells(2)), [("127.0.0.1", port)],
                       source_fingerprint(), cell_timeout=5.0,
                       sanitize=False, local_execute=execute)


def test_in_thread_server_executes_cells():
    server, port, thread = _threaded_server()
    try:
        results, stats = dispatch_cells(
            _jobs(_noop_cells(5)), [("127.0.0.1", port)],
            source_fingerprint(), cell_timeout=30.0, sanitize=False,
            local_execute=execute)
        assert results == {i: i * 2 for i in range(5)}
        assert stats.workers == 1 and stats.remote == 5
        assert stats.local == 0 and stats.reassigned == 0
        assert stats.mode() == "dispatch(n=1, stolen=0, reassigned=0)"
    finally:
        server.close()
        thread.join(timeout=5)


def test_cell_error_propagates_and_is_not_reassigned():
    bad = Cell("drill", 0, "tests.test_dispatch:cell_raises",
               (("value", 13),))
    server, port, thread = _threaded_server()
    try:
        with pytest.raises(CellExecutionError, match="raised on worker"):
            dispatch_cells([(0, bad)], [("127.0.0.1", port)],
                           source_fingerprint(), cell_timeout=30.0,
                           sanitize=False, local_execute=execute)
    finally:
        server.close()
        thread.join(timeout=5)


# -- spawned-worker integration ----------------------------------------------

def test_worker_death_reassigns_and_degrades_to_in_process():
    """The suicide cell kills every worker that touches it; the sweep
    must still complete — reassigned across workers, then locally."""
    specs = _noop_cells(6)
    specs.append(Cell("drill", 6, "tests.test_dispatch:cell_worker_suicide",
                      (("value", 6),)))
    with spawned_workers(2) as endpoints:
        results, stats = dispatch_cells(
            _jobs(specs), endpoints, source_fingerprint(),
            cell_timeout=30.0, sanitize=False, local_execute=execute)
    assert results == {i: i * 2 for i in range(7)}
    assert stats.dead, "no worker death recorded"
    assert stats.reassigned >= 1
    assert stats.local >= 1, "suicide cell must finish in-process"
    assert "reassigned=" in stats.mode()


def test_wedged_worker_times_out_and_cell_finishes_in_process():
    """A worker that stops answering mid-chunk must not stall the sweep:
    after ``cell_timeout`` it is recorded dead, its cells are reassigned,
    and with no worker left they finish in-process."""
    specs = [Cell("drill", 0, "tests.test_dispatch:cell_wedge",
                  (("value", 0),))] + _noop_cells(6)[1:]
    with spawned_workers(1) as endpoints:
        results, stats = dispatch_cells(
            _jobs(specs), endpoints, source_fingerprint(),
            cell_timeout=2.0, sanitize=False, local_execute=execute)
    assert results == {i: i * 2 for i in range(6)}
    assert stats.dead == [f"{h}:{p}" for h, p in endpoints]
    assert stats.reassigned == 6
    assert stats.local == 6, "wedged cell must finish in-process"


def test_run_all_byte_identical_across_worker_counts():
    """The acceptance criterion: stdout/JSON md5 equality for the fast
    subset across --workers 0 (in-process), 1 and 3."""
    baseline = run_many(FAST, jobs=1, cache=False)
    golden = _json_md5(baseline)
    assert baseline.mode == "in-process"

    for n in (1, 3):
        with spawned_workers(n) as endpoints:
            report = run_many(FAST, cache=False,
                              workers=[f"{h}:{p}" for h, p in endpoints])
        assert report.mode.startswith(f"dispatch(n={n},"), report.mode
        assert _json_md5(report) == golden, \
            f"workers={n} diverged from in-process"


def test_run_all_byte_identical_with_midrun_sigkill():
    """SIGKILL one of three workers while the sweep is running; the
    output must still match in-process byte for byte."""
    baseline = run_many(FAST, jobs=1, cache=False)
    golden = _json_md5(baseline)

    procs, endpoints = [], []
    try:
        for _ in range(3):
            proc, endpoint = spawn_worker()
            procs.append(proc)
            endpoints.append(endpoint)
        killer = threading.Timer(0.3, os.kill,
                                 args=(procs[0].pid, signal.SIGKILL))
        killer.start()
        try:
            report = run_many(FAST, cache=False,
                              workers=[f"{h}:{p}" for h, p in endpoints])
        finally:
            killer.cancel()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    assert _json_md5(report) == golden, "worker-kill run diverged"
    assert report.mode.startswith("dispatch(n=3,"), report.mode


def test_seed_matrix_byte_identical_across_worker_counts():
    """2 seeds x workers {0, 1, 3}: md5 equality per seed, distinct
    across seeds (the seed still reaches dispatched cells)."""
    from repro.apps.framing import MessageFramer

    per_seed = {}
    for seed in (7, 23):
        MessageFramer.reset_registry()
        digests = set()
        baseline = run_experiment("table4", samples=60, seed=seed,
                                  jobs=1, cache=False)
        digests.add(_md5(results_to_json([baseline])))
        for n in (1, 3):
            with spawned_workers(n) as endpoints:
                result = run_experiment(
                    "table4", samples=60, seed=seed, cache=False,
                    workers=[f"{h}:{p}" for h, p in endpoints])
            digests.add(_md5(results_to_json([result])))
        assert len(digests) == 1, f"seed {seed} diverged across workers"
        per_seed[seed] = digests.pop()
    assert len(set(per_seed.values())) == 2, "seeds not reaching cells"


def test_cache_hits_are_resolved_locally_without_dispatch(tmp_path):
    """Warm cells never travel: a fully warm run touches no worker."""
    run_many(["table3"], jobs=1, cache_dir=tmp_path)  # populate

    # A dead endpoint would fail any dispatch attempt; a warm run must
    # not even try it.
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    placeholder.close()

    warm = run_many(["table3"], cache_dir=tmp_path,
                    workers=[f"127.0.0.1:{port}"])
    assert warm.stats.hits == warm.stats.total
    assert warm.mode == "in-process"


def test_spawn_workers_falls_back_honestly_on_small_boxes(monkeypatch):
    """``jobs > 1`` spawns workers only where they can win: not on a
    <= 2-core box, nor for fewer than four pending cells; the run stays
    in-process and says why."""
    import repro.experiments.runner as runner_mod

    monkeypatch.setattr(runner_mod, "usable_cpus", lambda: 1)
    report = run_many(["table3"], jobs=2, cache=False)
    assert report.mode == "in-process"
    assert any("cannot win" in note for note in report.notes)

    monkeypatch.setattr(runner_mod, "usable_cpus", lambda: 4)
    report = run_many(["sec63"], jobs=2, cache=False)  # 3 cells
    assert report.mode == "in-process"
    assert any("pending cell" in note for note in report.notes)


def test_explicit_workers_fall_back_when_all_unreachable():
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    placeholder.close()

    baseline = run_many(["table3"], jobs=1, cache=False)
    report = run_many(["table3"], cache=False,
                      workers=[f"127.0.0.1:{port}"])
    assert report.mode == "in-process"
    assert any("dispatch fallback" in note for note in report.notes)
    assert _json_md5(report) == _json_md5(baseline)


# -- the serve CLI -----------------------------------------------------------

def test_serve_cli_announces_port_and_serves():
    proc, (host, port) = spawn_worker()
    try:
        sock = socket.create_connection((host, port), timeout=5.0)
        reply = protocol.client_handshake(sock, source_fingerprint(),
                                         timeout=10.0)
        assert reply["pid"] == proc.pid
        protocol.send_frame(sock, {"kind": "bye"}, timeout=5.0)
        sock.close()
    finally:
        proc.terminate()
        proc.wait(timeout=5)


def test_work_stealing_engages_with_unbalanced_workers():
    """Stall one worker's first cell briefly: the other must steal from
    its deque and the counters must say so."""
    specs = [Cell("drill", i, "tests.test_dispatch:cell_slow_start",
                  (("index", i),)) for i in range(10)]
    with spawned_workers(2) as endpoints:
        results, stats = dispatch_cells(
            _jobs(specs), endpoints, source_fingerprint(),
            cell_timeout=30.0, sanitize=False, local_execute=execute)
    assert results == {i: i for i in range(10)}
    assert stats.remote == 10
    assert stats.stolen >= 1, f"no stealing despite imbalance: {stats}"


def cell_slow_start(index: int) -> int:
    """First cell of the static split sleeps; the rest are instant.

    Index 0 lands at the head of worker A's deque under the contiguous
    block split, so worker B drains its own half and then steals the
    tail of A's — making ``stolen`` deterministic in practice.
    """
    if index == 0 and os.environ.get("REPRO_DISPATCH_WORKER"):
        time.sleep(1.0)
    return index
