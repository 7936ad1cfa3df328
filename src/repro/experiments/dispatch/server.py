"""The cell worker: a single-process TCP server executing sweep cells.

Run it as ``python -m repro.experiments.serve --port N`` (port 0 picks
a free port and the server prints ``LISTENING <port>`` so spawners can
read it back).  One worker executes one cell at a time — parallelism
is achieved by pointing the dispatcher at many workers, not by
threading inside one.

Sessions are sequential: the server accepts a connection, verifies the
version/source-fingerprint handshake (a stale checkout is *rejected*,
never silently computed — see :mod:`.protocol`), then serves ``cell``
requests until the client says ``bye`` or the connection drops, and
goes back to accepting.  A cell that raises is reported back as an
``error`` frame with the traceback and the session continues; only
transport-level garbage tears the session down.

The accept loop and every per-session read run with socket timeouts
armed (RL013), so a worker never wedges on a half-dead client: an idle
session past ``session_timeout`` is dropped and the worker returns to
``accept``.
"""

from __future__ import annotations

import os
import socket
import sys
import traceback
from typing import Optional

from ..cells import source_fingerprint
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)

__all__ = ["CellServer", "main"]

#: Frame-level timeout for per-session reads/writes: a client that goes
#: quiet for this long is assumed dead and the session is dropped.
SESSION_TIMEOUT_S = 300.0

#: Accept-loop granularity; bounds shutdown latency, nothing else.
ACCEPT_TIMEOUT_S = 1.0


class CellServer:
    """One dispatch worker bound to ``host:port``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 session_timeout: float = SESSION_TIMEOUT_S):
        self.host = host
        self.port = port
        self.session_timeout = session_timeout
        self.fingerprint = source_fingerprint()
        self.sessions = 0
        self.cells_served = 0
        self._sock: Optional[socket.socket] = None
        self._shutdown = False

    # -- lifecycle -----------------------------------------------------

    def bind(self) -> int:
        """Bind and listen; returns the actual port (resolves port 0)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.settimeout(ACCEPT_TIMEOUT_S)
        sock.bind((self.host, self.port))
        sock.listen(8)
        self._sock = sock
        self.port = sock.getsockname()[1]
        return self.port

    def close(self) -> None:
        self._shutdown = True
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    # -- the serve loop ------------------------------------------------

    def serve_forever(self, max_sessions: Optional[int] = None) -> None:
        """Accept and serve sessions until closed (or ``max_sessions``)."""
        if self._sock is None:
            self.bind()
        assert self._sock is not None
        self._sock.settimeout(ACCEPT_TIMEOUT_S)
        while not self._shutdown:
            if max_sessions is not None and self.sessions >= max_sessions:
                break
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # closed under us
            self.sessions += 1
            try:
                self._serve_session(conn)
            except (ProtocolError, OSError):
                pass  # drop the session, keep the worker alive
            finally:
                conn.close()

    def _serve_session(self, conn: socket.socket) -> None:
        if not self._handshake(conn):
            return
        while True:
            try:
                message = recv_frame(conn, self.session_timeout)
            except (ProtocolError, OSError):
                return  # client gone or gone quiet; back to accept
            kind = message.get("kind")
            if kind == "bye":
                return
            if kind != "cell":
                send_frame(conn, {"kind": "error", "seq": message.get("seq"),
                                  "label": "?",
                                  "traceback": f"unexpected message "
                                               f"kind {kind!r}"},
                           self.session_timeout)
                continue
            self._serve_cell(conn, message)

    def _handshake(self, conn: socket.socket) -> bool:
        hello = recv_frame(conn, self.session_timeout)
        if hello.get("kind") != "hello":
            send_frame(conn, {"kind": "hello-reject",
                              "reason": f"expected hello, got "
                                        f"{hello.get('kind')!r}"},
                       self.session_timeout)
            return False
        if hello.get("version") != PROTOCOL_VERSION:
            send_frame(conn, {"kind": "hello-reject",
                              "reason": f"protocol version "
                                        f"{hello.get('version')} != "
                                        f"{PROTOCOL_VERSION}"},
                       self.session_timeout)
            return False
        if hello.get("fingerprint") != self.fingerprint:
            # The whole point of the handshake: a worker on a stale
            # checkout must never compute fragments the client would
            # cache under *its* source hash.
            send_frame(conn, {"kind": "hello-reject",
                              "reason": "source fingerprint mismatch "
                                        f"(worker {self.fingerprint[:12]}, "
                                        f"client "
                                        f"{str(hello.get('fingerprint'))[:12]}"
                                        ")"},
                       self.session_timeout)
            return False
        send_frame(conn, {"kind": "hello-ok", "version": PROTOCOL_VERSION,
                          "fingerprint": self.fingerprint,
                          "pid": os.getpid()},
                   self.session_timeout)
        return True

    def _serve_cell(self, conn: socket.socket, message: dict) -> None:
        # Imported here, not at module top: the runner imports
        # dispatch.client lazily and the server imports the runner —
        # top-level imports in both directions would be circular.
        from ..runner import _execute_cell

        seq = message.get("seq")
        spec = message.get("cell")
        try:
            # The client's sanitize setting rides the message, never
            # this process's environment.
            fragment = _execute_cell(spec, bool(message.get("sanitize")))
        except Exception:
            send_frame(conn, {"kind": "error", "seq": seq,
                              "label": spec.label() if spec else "?",
                              "traceback": traceback.format_exc()},
                       self.session_timeout)
            return
        self.cells_served += 1
        send_frame(conn, {"kind": "result", "seq": seq,
                          "fragment": fragment},
                   self.session_timeout)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.serve",
        description="Dispatch worker: executes sweep cells over TCP.",
    )
    parser.add_argument("--port", type=int, default=0,
                        help="port to listen on (0 = pick a free one)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default loopback)")
    parser.add_argument("--max-sessions", type=int, default=None,
                        help="exit after N client sessions (default: run "
                             "until killed)")
    parser.add_argument("--session-timeout", type=float,
                        default=SESSION_TIMEOUT_S,
                        help="drop a session idle for this many seconds")
    args = parser.parse_args(argv)

    # Lets cells (and tests) detect they are running inside a worker.
    os.environ["REPRO_DISPATCH_WORKER"] = "1"

    server = CellServer(args.host, args.port,
                        session_timeout=args.session_timeout)
    port = server.bind()
    print(f"LISTENING {port}", flush=True)
    print(f"worker pid={os.getpid()} source={server.fingerprint[:12]} "
          f"protocol=v{PROTOCOL_VERSION}", file=sys.stderr, flush=True)
    try:
        server.serve_forever(max_sessions=args.max_sessions)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0
