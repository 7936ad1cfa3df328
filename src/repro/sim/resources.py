"""Counted resources for the DES kernel.

:class:`Resource` models a pool of identical units (CPU cores, DMA
engines, outstanding-fault slots).  Processes ``acquire`` units and
``release`` them; acquisition blocks while the pool is exhausted.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .engine import Environment, Event, SimulationError

__all__ = ["Resource"]


class Resource:
    """A pool of ``capacity`` interchangeable units, granted FIFO."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Event that fires when one unit has been granted."""
        ev = self.env.event()
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Immediately take a unit if available; return success."""
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Return one unit to the pool, waking the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        if self._waiters:
            # Hand the unit directly to the next waiter.
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1
