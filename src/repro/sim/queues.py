"""Inter-process communication primitives for the DES kernel.

:class:`Store` is an unbounded-or-bounded FIFO channel: producers
``put`` items, consumers ``get`` them; both sides block (as simulation
events) when the store is full or empty.  It is the building block for
NIC completion queues, driver work queues and the IOprovider's
per-IOuser fault queues.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Optional, TypeVar

from .engine import Environment, Event, SimulationError

__all__ = ["Store", "StoreFull"]

T = TypeVar("T")


class StoreFull(Exception):
    """Raised by :meth:`Store.put_nowait` when the store is at capacity."""


class Store(Generic[T]):
    """FIFO channel between simulated processes.

    ``capacity`` bounds the number of queued items; ``float('inf')``
    (the default) makes the store unbounded so ``put`` never blocks.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._items: Deque[T] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, T]] = deque()

    # -- sizing ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    # -- non-blocking interface -------------------------------------------
    def put_nowait(self, item: T) -> None:
        """Insert ``item`` or raise :class:`StoreFull`."""
        if self.is_full and not self._getters:
            raise StoreFull()
        self._insert(item)

    def try_put(self, item: T) -> bool:
        """Insert ``item`` if there is room; return success."""
        try:
            self.put_nowait(item)
        except StoreFull:
            return False
        return True

    def put_many_nowait(self, items) -> None:
        """Bulk :meth:`put_nowait` with the dispatch hoisted out.

        Each item, in order, either wakes the oldest waiting getter or
        lands at the tail — exactly the per-item semantics, so the event
        schedule is identical to a ``put_nowait`` loop.  Raises
        :class:`StoreFull` at the first item that does not fit; items
        already accepted stay accepted.
        """
        getters = self._getters
        store = self._items.append
        for item in items:
            if getters:
                getters.popleft().succeed(item)
            elif self.is_full:
                raise StoreFull()
            else:
                store(item)

    def get_nowait(self) -> Optional[T]:
        """Pop the next item, or return ``None`` if empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._wake_putter()
        return item

    def peek(self) -> Optional[T]:
        return self._items[0] if self._items else None

    # -- blocking interface --------------------------------------------------
    def put(self, item: T) -> Event:
        """Event that fires once ``item`` has been accepted."""
        ev = self.env.event()
        if self.is_full:
            self._putters.append((ev, item))
        else:
            self._insert(item)
            ev.succeed()
        return ev

    def get(self) -> Event:
        """Event that fires with the next item."""
        ev = self.env.event()
        if self._items:
            ev.succeed(self._items.popleft())
            self._wake_putter()
        else:
            self._getters.append(ev)
        return ev

    # -- internals ----------------------------------------------------------
    def _insert(self, item: T) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def _wake_putter(self) -> None:
        if self._putters and not self.is_full:
            ev, item = self._putters.popleft()
            self._items.append(item)
            ev.succeed()
