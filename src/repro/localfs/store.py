"""Per-server local file store: file offsets → device LBN ranges.

Each PVFS2 data server keeps one local "bstream" file per PFS file
handle.  The store maps (handle, offset, size) to device byte ranges,
allocating extents on first write.  Sequentially grown files get
contiguous LBNs (the common case for the paper's pre-written 10 GB
benchmark files), so logical sequential access at a server is physical
sequential access on its disk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import StorageError
from ..util.intervals import IntervalMap, Piece
from .extents import ExtentAllocator


def _lbn_coalesce(left: Tuple[int, int, int], right: Tuple[int, int, int]):
    """Merge adjacent file intervals whose device ranges are contiguous."""
    ls, le, lv = left
    _rs, _re, rv = right
    if lv + (le - ls) == rv:
        return lv
    return None


def _device_ranges(pieces: List[Piece], start: int,
                   end: int) -> Optional[List[Tuple[int, int]]]:
    """Device (lbn, size) ranges of the file pieces covering
    ``[start, end)``; None when the pieces leave a hole.

    Adjacent pieces are never device-contiguous (``_lbn_coalesce``
    merges them when they are mapped, and a store never overwrites a
    mapping), so one logically contiguous range already maps to as few
    device I/Os as possible.
    """
    out: List[Tuple[int, int]] = []
    cursor = start
    for cs, ce, lbn, delta in pieces:
        if cs != cursor:
            return None
        cursor = ce
        out.append((lbn + delta, ce - cs))
    return out if cursor == end else None


class LocalStore:
    """Maps per-handle file space onto one device's LBN space."""

    def __init__(self, capacity: int, reserve: int = 0) -> None:
        if reserve < 0 or reserve >= capacity:
            raise StorageError(f"invalid reserve {reserve} for capacity {capacity}")
        self.allocator = ExtentAllocator(capacity, start=reserve)
        self.reserved = reserve
        self._files: Dict[int, IntervalMap] = {}

    def _file(self, handle: int) -> IntervalMap:
        fmap = self._files.get(handle)
        if fmap is None:
            fmap = IntervalMap(coalesce=_lbn_coalesce)
            self._files[handle] = fmap
        return fmap

    def file_size(self, handle: int) -> int:
        """Total allocated bytes of ``handle`` (0 if unknown)."""
        fmap = self._files.get(handle)
        return fmap.total_bytes if fmap else 0

    def is_allocated(self, handle: int, offset: int, nbytes: int) -> bool:
        """True when ``[offset, offset+nbytes)`` is fully extent-backed."""
        fmap = self._files.get(handle)
        return fmap is not None and fmap.is_covered(offset, offset + nbytes)

    def ranges_for_write(self, handle: int, offset: int,
                         nbytes: int) -> List[Tuple[int, int]]:
        """Device (lbn, size) ranges for a write, allocating extents for
        any holes in ``[offset, offset+nbytes)`` (in gap order)."""
        if nbytes <= 0:
            raise StorageError(f"size must be positive, got {nbytes}")
        fmap = self._file(handle)
        end = offset + nbytes
        pieces = fmap.get(offset, end)
        ranges = _device_ranges(pieces, offset, end)
        if ranges is None:
            # Fill the holes left to right (an end sentinel closes the
            # last one), then map the range again.
            cursor = offset
            for cs, ce, _lbn, _delta in pieces + [(end, end, None, 0)]:
                if cs > cursor:
                    ext = self.allocator.allocate(cs - cursor)
                    fmap.set(cursor, cs, ext.lbn)
                cursor = ce
            ranges = _device_ranges(fmap.get(offset, end), offset, end)
        return ranges

    def ranges_for_read(self, handle: int, offset: int,
                        nbytes: int) -> List[Tuple[int, int]]:
        """Device (lbn, size) ranges for a read of existing data."""
        fmap = self._files.get(handle)
        ranges = (None if fmap is None else
                  _device_ranges(fmap.get(offset, offset + nbytes),
                                 offset, offset + nbytes))
        if ranges is None:
            raise StorageError(
                f"read of unallocated range [{offset}, {offset + nbytes}) "
                f"in handle {handle}")
        return ranges

    def preallocate(self, handle: int, nbytes: int) -> None:
        """Lay out ``handle`` contiguously from offset 0 (benchmark files)."""
        if nbytes <= 0:
            raise StorageError(f"size must be positive, got {nbytes}")
        if self.file_size(handle) != 0:
            raise StorageError(f"handle {handle} already has data")
        ext = self.allocator.allocate(nbytes)
        self._file(handle).set(0, nbytes, ext.lbn)
