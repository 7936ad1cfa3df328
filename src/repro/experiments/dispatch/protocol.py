"""Wire protocol for the cell dispatch transport.

One frame = a 4-byte big-endian length header followed by a pickled
``dict`` payload with a ``"kind"`` key.  Pickle is the right codec
here: cells and fragments are plain picklable data by design (see
:mod:`repro.experiments.cells`), and both ends of the connection are
the same codebase by construction — the handshake refuses anything
else.

Handshake (first frame each way on a fresh connection)::

    client -> worker   {"kind": "hello", "version": V, "fingerprint": F}
    worker -> client   {"kind": "hello-ok", "version": V,
                        "fingerprint": F, "pid": P}
                  or   {"kind": "hello-reject", "reason": "..."}

``fingerprint`` is :func:`repro.experiments.cells.source_fingerprint`
— the SHA-256 of the ``src/repro`` tree.  A worker whose checkout
differs from the client's would compute fragments from *different
code* while the client caches them under the client's source hash;
that is silent corruption, so a mismatch rejects the session instead.

Cell execution (any number of times per session, pipelined)::

    client -> worker   {"kind": "cell", "seq": N, "cell": Cell,
                        "sanitize": bool}
    worker -> client   {"kind": "result", "seq": N, "fragment": ...}
                  or   {"kind": "error", "seq": N, "label": "...",
                        "traceback": "..."}

An ``error`` reply is a *deterministic cell failure* (the cell raised)
— the dispatcher propagates it, it never reassigns it, because the
cell would raise identically anywhere.  Transport failures (timeout,
reset, truncated frame) are the reassignable kind and surface as
:class:`ProtocolError` / ``OSError`` to the caller.

Every blocking socket operation in this package runs with a socket
timeout armed (lint rule RL013 enforces this statically): a dispatcher
must never hang forever on a wedged peer — that is precisely the
hung-worker hazard this subsystem exists to remove.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Dict

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "StaleWorkerError",
    "send_frame",
    "recv_frame",
    "client_handshake",
]

#: Bump on any frame-format or message-schema change; both sides check.
PROTOCOL_VERSION = 1

#: A fragment is "a row dict, a series, a scalar" — 64 MiB is orders of
#: magnitude above any real one and bounds a corrupt/hostile header.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """Malformed or unexpected traffic on a dispatch connection."""


class StaleWorkerError(ProtocolError):
    """Worker rejected the handshake (version or source mismatch)."""


def _recv_exact(sock: socket.socket, n: int, timeout: float) -> bytes:
    """Read exactly ``n`` bytes or raise; EOF mid-read is a torn frame."""
    sock.settimeout(timeout)
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, payload: Dict[str, Any],
               timeout: float) -> None:
    """Pickle ``payload`` and send it as one length-prefixed frame."""
    sock.settimeout(timeout)
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds "
                            f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}")
    sock.sendall(_HEADER.pack(len(data)) + data)


def recv_frame(sock: socket.socket, timeout: float) -> Dict[str, Any]:
    """Receive one frame; raises :class:`ProtocolError` on bad traffic."""
    header = _recv_exact(sock, _HEADER.size, timeout)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame header announces {length} bytes "
                            f"(> {MAX_FRAME_BYTES}); refusing")
    body = _recv_exact(sock, length, timeout)
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc!r}") from exc
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ProtocolError(f"frame payload is not a message: {payload!r}")
    return payload


def client_handshake(sock: socket.socket, fingerprint: str,
                     timeout: float) -> Dict[str, Any]:
    """Run the client side of the handshake; returns the hello-ok reply.

    Raises :class:`StaleWorkerError` when the worker rejects (stale
    source or protocol mismatch) and :class:`ProtocolError` on anything
    that is not a handshake reply.
    """
    send_frame(sock, {"kind": "hello", "version": PROTOCOL_VERSION,
                      "fingerprint": fingerprint}, timeout)
    reply = recv_frame(sock, timeout)
    if reply["kind"] == "hello-reject":
        raise StaleWorkerError(reply.get("reason", "rejected"))
    if reply["kind"] != "hello-ok":
        raise ProtocolError(f"expected hello-ok, got {reply['kind']!r}")
    return reply
