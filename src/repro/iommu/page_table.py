"""I/O page tables.

One :class:`IoPageTable` per protection domain (in the paper: per
IOuser / per InfiniBand memory region set).  In the baseline Connect-IB
implementation every PTE must be valid; the paper's modification is
precisely to *allow non-present entries* and treat an access through one
as a network page fault.  Here non-present entries are simply missing
keys.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..analysis import hooks as _hooks

__all__ = ["IoPageTable"]


class IoPageTable:
    """Sparse IOVA-page -> physical-frame mapping for one domain."""

    __slots__ = ("domain_id", "_entries", "maps", "unmaps", "__weakref__")

    def __init__(self, domain_id: int):
        self.domain_id = domain_id
        self._entries: Dict[int, int] = {}
        self.maps = 0
        self.unmaps = 0

    def map(self, iopn: int, frame: int) -> None:
        """Install a valid translation for I/O page ``iopn``."""
        if frame < 0:
            raise ValueError(f"invalid frame {frame!r}")
        self._entries[iopn] = frame
        self.maps += 1
        if _hooks.active is not None:
            _hooks.active.on_pt_map(self, iopn, frame)

    def map_batch(self, entries: Dict[int, int]) -> None:
        """Install many translations at once (the paper's batched update).

        One validation sweep and one dict merge for the whole range.
        Final page-table state, the ``maps`` counter and the sanitizer's
        per-entry ``on_pt_map`` events are those of a :meth:`map` loop.
        """
        if entries:
            if min(entries.values()) < 0:
                bad = next(f for f in entries.values() if f < 0)
                raise ValueError(f"invalid frame {bad!r}")
            self._entries.update(entries)
            self.maps += len(entries)
            san = _hooks.active
            if san is not None:
                for iopn, frame in entries.items():
                    san.on_pt_map(self, iopn, frame)

    def unmap(self, iopn: int) -> bool:
        """Remove a translation; returns whether it was present."""
        if iopn in self._entries:
            del self._entries[iopn]
            self.unmaps += 1
            if _hooks.active is not None:
                _hooks.active.on_pt_unmap(self, iopn)
            return True
        return False

    def unmap_range(self, iopn: int, n_pages: int) -> int:
        """Remove every translation in ``[iopn, iopn+n_pages)``; returns count."""
        entries = self._entries
        san = _hooks.active
        removed = 0
        for p in range(iopn, iopn + n_pages):
            if p in entries:
                del entries[p]
                removed += 1
                if san is not None:
                    san.on_pt_unmap(self, p)
        self.unmaps += removed
        return removed

    def lookup(self, iopn: int) -> Optional[int]:
        """Frame for ``iopn`` or None (non-present: would fault)."""
        return self._entries.get(iopn)

    def unmapped_in(self, iopn: int, n_pages: int) -> list:
        """I/O pages of ``[iopn, iopn+n_pages)`` with no translation."""
        entries = self._entries
        return [p for p in range(iopn, iopn + n_pages) if p not in entries]

    def is_mapped(self, iopn: int) -> bool:
        return iopn in self._entries

    def all_mapped(self, iopn: int, n_pages: int) -> bool:
        """True iff every page of ``[iopn, iopn+n_pages)`` has a translation."""
        entries = self._entries
        for p in range(iopn, iopn + n_pages):
            if p not in entries:
                return False
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[Tuple[int, int]]:
        return iter(self._entries.items())
