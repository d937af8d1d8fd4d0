"""The iBridge mapping table: cached server-file extents on the SSD.

Records which (handle, local-offset) ranges are present in the SSD log,
whether they are dirty (newest copy lives only on the SSD) or clean
(pre-loaded for reads), which request type admitted them, and the
return value recorded at admission (used for dynamic partitioning).

Entries are atomic: an overlapping overwrite invalidates the whole
affected entry rather than splitting it.  The paper backs this table up
on the SSD; we charge a small metadata write alongside dirty-entry
updates in the manager.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple

from ..errors import StorageError
from ..util.intervals import IntervalMap

_entry_ids = itertools.count(1)


class CacheKind(str, Enum):
    """The two SSD-space consumer classes the paper partitions between."""

    RANDOM = "random"
    FRAGMENT = "fragment"


@dataclass
class CacheEntry:
    """One cached extent of a server-local file."""

    handle: int
    start: int          # server-local file offset
    end: int
    ssd_lbn: int        # location in the SSD log
    kind: CacheKind
    dirty: bool
    ret: float          # return value at admission (Eq. 1/3)
    last_use: float
    id: int = field(default_factory=lambda: next(_entry_ids))
    #: Set while a writeback / relocation is in flight.
    busy: bool = False
    #: Set when an SSD fail-stop forfeited this entry's dirty bytes; an
    #: in-flight writeback that completes afterwards must not account
    #: the entry again (see ``IBridgeManager._flush_batch``).
    forfeited: bool = False

    @property
    def nbytes(self) -> int:
        return self.end - self.start


class MappingTable:
    """Per-handle interval maps of :class:`CacheEntry`."""

    def __init__(self) -> None:
        self._maps: Dict[int, IntervalMap] = {}
        self._entries: Dict[int, CacheEntry] = {}
        #: Payload bytes of the dirty entries in the table, kept as a
        #: running count (the writeback daemon polls it every tick).
        self._dirty_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry: CacheEntry) -> bool:
        return entry.id in self._entries

    @property
    def entries(self) -> Tuple[CacheEntry, ...]:
        return tuple(self._entries.values())

    def _map(self, handle: int) -> IntervalMap:
        m = self._maps.get(handle)
        if m is None:
            m = IntervalMap()
            self._maps[handle] = m
        return m

    def insert(self, entry: CacheEntry) -> None:
        """Add ``entry``; caller must have invalidated overlaps first."""
        m = self._map(entry.handle)
        if m.covered_bytes(entry.start, entry.end) != 0:
            raise StorageError("insert over existing cached range")
        m.set(entry.start, entry.end, entry)
        self._entries[entry.id] = entry
        if entry.dirty:
            self._dirty_bytes += entry.nbytes

    def remove(self, entry: CacheEntry) -> None:
        """Drop ``entry`` from the table."""
        if entry.id not in self._entries:
            raise StorageError(f"remove of unknown entry {entry.id}")
        self._map(entry.handle).delete(entry.start, entry.end)
        del self._entries[entry.id]
        if entry.dirty:
            self._dirty_bytes -= entry.nbytes

    def mark_clean(self, entry: CacheEntry) -> None:
        """Turn ``entry`` clean: the only way a dirty entry becomes clean.

        An entry no longer in the table (dropped as superseded while its
        writeback was in flight) left the dirty count when it was removed.
        """
        if entry.dirty:
            entry.dirty = False
            if entry.id in self._entries:
                self._dirty_bytes -= entry.nbytes

    def overlapping(self, handle: int, start: int, end: int) -> List[CacheEntry]:
        """Distinct entries overlapping ``[start, end)``."""
        m = self._maps.get(handle)
        if m is None:
            return []
        seen: Dict[int, CacheEntry] = {}
        for _s, _e, entry, _d in m.get(start, end):
            seen[entry.id] = entry
        return list(seen.values())

    def coverage(self, handle: int, start: int, end: int) -> int:
        """Cached bytes within ``[start, end)``."""
        m = self._maps.get(handle)
        return 0 if m is None else m.covered_bytes(start, end)

    def is_fully_cached(self, handle: int, start: int, end: int) -> bool:
        return self.coverage(handle, start, end) == end - start

    def pieces(self, handle: int, start: int,
               end: int) -> List[Tuple[int, int, CacheEntry, int]]:
        """Clipped cached pieces as (start, end, entry, delta)."""
        m = self._maps.get(handle)
        return m.get(start, end) if m else []

    def gaps(self, handle: int, start: int, end: int) -> List[Tuple[int, int]]:
        """Uncached sub-ranges of ``[start, end)``."""
        m = self._maps.get(handle)
        if m is None:
            return [(start, end)]
        return m.gaps(start, end)

    def dirty_entries(self) -> List[CacheEntry]:
        """All dirty, non-busy entries (writeback candidates)."""
        return [e for e in self._entries.values() if e.dirty and not e.busy]

    @property
    def dirty_bytes(self) -> int:
        return self._dirty_bytes

    def recount_dirty_bytes(self) -> int:
        """``dirty_bytes`` summed afresh over every entry (for audits)."""
        return sum(e.nbytes for e in self._entries.values() if e.dirty)
