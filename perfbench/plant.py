"""A planted slowdown, for checking that the benchmark sees one.

:func:`planted_slowdown` replaces ``TcpConnection.send`` (a public
transport entry point) with a version that busy-waits ``delay_s`` before
doing the real work.  The replacement is compiled under the transport
module's file name, so the profiler charges its busy-wait to
``transport`` exactly as it would a genuinely slower ``send``.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator

from repro.transport import tcp

__all__ = ["planted_slowdown"]

_SLOW_SEND = """
def send(self, n_bytes, src_addr=None):
    end = clock() + delay_s
    while clock() < end:
        pass
    return original(self, n_bytes, src_addr)
"""


@contextlib.contextmanager
def planted_slowdown(delay_s: float) -> Iterator[None]:
    """Make every ``TcpConnection.send`` call ``delay_s`` slower."""
    original = tcp.TcpConnection.send
    namespace = {"clock": time.perf_counter, "delay_s": delay_s,
                 "original": original}
    exec(compile(_SLOW_SEND, tcp.__file__, "exec"), namespace)
    tcp.TcpConnection.send = namespace["send"]
    try:
        yield
    finally:
        tcp.TcpConnection.send = original
