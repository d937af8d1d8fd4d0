"""Log-structured allocation on the SSD partition.

The paper writes redirected data "sequentially into a pre-created large
file that is maintained much like a log-based file system", because
sequential SSD writes are ~4.7x faster than random ones (Table II).

The log region is divided into fixed-size segments.  Appends fill the
current segment; when free segments run low, a greedy cleaner picks the
segment with the least live data and relocates its live extents (the
manager charges the SSD for the copy traffic).  Live-byte accounting is
driven by the cache layer calling :meth:`invalidate` when entries are
dropped or superseded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import StorageError


@dataclass
class Segment:
    """One log segment's accounting."""

    index: int
    start: int
    size: int
    write_cursor: int = 0
    live_bytes: int = 0

    @property
    def free(self) -> int:
        return self.size - self.write_cursor

    @property
    def garbage(self) -> int:
        return self.write_cursor - self.live_bytes


class LogStore:
    """Segmented append-only allocator over ``[base, base + region)``."""

    def __init__(self, base: int, region: int, segment_size: int = 32 * 1024 * 1024) -> None:
        if region <= 0:
            raise StorageError("log region must be positive")
        if segment_size <= 0 or segment_size > region:
            raise StorageError("invalid segment size")
        self.base = base
        self.region = region
        self.segment_size = segment_size
        nseg = region // segment_size
        if nseg < 2:
            raise StorageError("log region must hold at least 2 segments")
        self.segments = [Segment(i, base + i * segment_size, segment_size)
                         for i in range(nseg)]
        self._current: Optional[Segment] = self.segments[0]
        self._free: List[Segment] = list(self.segments[1:])
        #: lbn -> (segment_index, nbytes) for live extents.
        self._extents: Dict[int, Tuple[int, int]] = {}
        self.appends = 0
        self.cleanings = 0

    # ------------------------------------------------------------- state
    @property
    def live_bytes(self) -> int:
        return sum(s.live_bytes for s in self.segments)

    @property
    def free_segments(self) -> int:
        return len(self._free)

    def needs_cleaning(self, reserve: int = 1) -> bool:
        """True when fewer than ``reserve`` whole free segments remain."""
        return len(self._free) < reserve

    # ------------------------------------------------------------- append
    def can_append(self, nbytes: int) -> bool:
        if nbytes <= 0 or nbytes > self.segment_size:
            return False
        cur = self._current
        if cur is not None and cur.free >= nbytes:
            return True
        if cur is not None and cur.live_bytes == 0 and cur.write_cursor > 0:
            return True  # fully-dead current is recycled in place
        return bool(self._free)

    def append(self, nbytes: int) -> int:
        """Allocate ``nbytes`` at the log head; returns the SSD LBN."""
        if nbytes <= 0:
            raise StorageError(f"append size must be positive, got {nbytes}")
        if nbytes > self.segment_size:
            raise StorageError(
                f"append of {nbytes} exceeds segment size {self.segment_size}")
        if self._current is None or self._current.free < nbytes:
            # Rotation re-checks the current segment first: a current
            # segment fully invalidated *in place* (``invalidate`` skips
            # ``seg is self._current``) is pure garbage, so it is
            # recycled here instead of lingering unreclaimed while a
            # fresh segment is popped from the free list.
            cur = self._current
            if (cur is not None and cur.live_bytes == 0
                    and cur.write_cursor > 0):
                cur.write_cursor = 0
            else:
                if not self._free:
                    raise StorageError("log store out of free segments (clean first)")
                self._current = self._free.pop(0)
        seg = self._current
        lbn = seg.start + seg.write_cursor
        seg.write_cursor += nbytes
        seg.live_bytes += nbytes
        self._extents[lbn] = (seg.index, nbytes)
        self.appends += 1
        return lbn

    def invalidate(self, lbn: int) -> None:
        """Mark the extent at ``lbn`` dead (dropped or superseded)."""
        info = self._extents.pop(lbn, None)
        if info is None:
            raise StorageError(f"invalidate of unknown log extent at {lbn}")
        seg_idx, nbytes = info
        seg = self.segments[seg_idx]
        seg.live_bytes -= nbytes
        if seg.live_bytes == 0 and seg is not self._current:
            seg.write_cursor = 0
            if seg not in self._free:
                self._free.append(seg)

    # ------------------------------------------------------------- cleaning
    def pick_victim(self) -> Optional[Segment]:
        """The fullest-of-garbage candidate segment to clean, if any."""
        candidates = [s for s in self.segments
                      if s is not self._current and s not in self._free
                      and s.write_cursor > 0]
        if not candidates:
            return None
        return max(candidates, key=lambda s: s.garbage)

    def is_live(self, lbn: int) -> bool:
        """Does a live extent start at ``lbn``?"""
        return lbn in self._extents

    def live_extents_in(self, segment: Segment) -> List[Tuple[int, int]]:
        """(lbn, nbytes) of live extents inside ``segment``."""
        return [(lbn, nbytes) for lbn, (idx, nbytes) in self._extents.items()
                if idx == segment.index]

    def relocate(self, lbn: int) -> int:
        """Move a live extent to the log head; returns its new LBN.

        Invalidate-aware: the source extent is taken off the books
        *before* the new copy is allocated.  The old append-then-
        invalidate order transiently double-counted ``live_bytes`` and,
        worse, could exhaust the free list mid-cleaning (the copy
        claimed the reserve segment while the source's bytes were still
        counted live), raising "out of free segments" from inside the
        cleaner itself.  The source segment is deliberately *not*
        returned to the free list even when this drains its last live
        extent — the cleaner owns the victim and recycles it via
        :meth:`release_victim`.
        """
        info = self._extents.pop(lbn, None)
        if info is None:
            raise StorageError(f"relocate of unknown log extent at {lbn}")
        seg_idx, nbytes = info
        src = self.segments[seg_idx]
        src.live_bytes -= nbytes
        try:
            new_lbn = self.append(nbytes)
        except StorageError:
            # Leave the log exactly as found so a failed relocation is
            # observable but not corrupting.
            src.live_bytes += nbytes
            self._extents[lbn] = info
            raise
        return new_lbn

    def release_victim(self, segment: Segment) -> None:
        """Return a fully-cleaned segment to the free list."""
        if segment.live_bytes != 0:
            raise StorageError("victim still has live data")
        segment.write_cursor = 0
        if segment not in self._free and segment is not self._current:
            self._free.append(segment)
        self.cleanings += 1
