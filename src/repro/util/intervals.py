"""Sorted, non-overlapping interval map over a byte address space.

Used by the local extent store (file offset → device LBN) and by
iBridge's SSD mapping table (server-file offset → SSD log location +
dirty flag).  Intervals are half-open ``[start, end)``.

Queries return clipped pieces as ``(start, end, value, delta)`` where
``delta = start - original_interval_start``; callers mapping to device
addresses compute ``lbn = value + delta``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..errors import StorageError

Piece = Tuple[int, int, Any, int]


class IntervalMap:
    """Maps half-open byte ranges to opaque values.

    ``set`` overwrites any overlapping portion of existing intervals
    (splitting them as needed).  An optional ``coalesce`` predicate
    merges adjacent intervals: given the left interval's
    ``(start, end, value)`` and the right's, it returns the merged value
    or ``None`` to keep them separate.
    """

    def __init__(self, coalesce: Optional[Callable[[Tuple[int, int, Any],
                                                    Tuple[int, int, Any]],
                                                   Optional[Any]]] = None) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._values: List[Any] = []
        self._coalesce = coalesce

    # ------------------------------------------------------------- basics
    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Tuple[int, int, Any]]:
        return iter(zip(self._starts, self._ends, self._values))

    def items(self) -> List[Tuple[int, int, Any]]:
        """All intervals as (start, end, value), sorted by start."""
        return list(self)

    @property
    def total_bytes(self) -> int:
        """Total bytes covered by all intervals."""
        return sum(e - s for s, e in zip(self._starts, self._ends))

    @staticmethod
    def _check(start: int, end: int) -> None:
        if start < 0 or end <= start:
            raise StorageError(f"invalid interval [{start}, {end})")

    # ------------------------------------------------------------- mutation
    def set(self, start: int, end: int, value: Any) -> None:
        """Map ``[start, end)`` to ``value``, overwriting overlaps."""
        self._check(start, end)
        self.delete(start, end)
        idx = bisect_left(self._starts, start)
        self._starts.insert(idx, start)
        self._ends.insert(idx, end)
        self._values.insert(idx, value)
        self._try_coalesce(idx)

    def _try_coalesce(self, idx: int) -> None:
        if self._coalesce is None:
            return
        # Try merging with the right neighbour first, then the left.
        if idx + 1 < len(self._starts) and self._ends[idx] == self._starts[idx + 1]:
            merged = self._coalesce(
                (self._starts[idx], self._ends[idx], self._values[idx]),
                (self._starts[idx + 1], self._ends[idx + 1], self._values[idx + 1]))
            if merged is not None:
                self._ends[idx] = self._ends[idx + 1]
                self._values[idx] = merged
                del self._starts[idx + 1], self._ends[idx + 1], self._values[idx + 1]
        if idx > 0 and self._ends[idx - 1] == self._starts[idx]:
            merged = self._coalesce(
                (self._starts[idx - 1], self._ends[idx - 1], self._values[idx - 1]),
                (self._starts[idx], self._ends[idx], self._values[idx]))
            if merged is not None:
                self._ends[idx - 1] = self._ends[idx]
                self._values[idx - 1] = merged
                del self._starts[idx], self._ends[idx], self._values[idx]

    def delete(self, start: int, end: int) -> int:
        """Remove coverage of ``[start, end)``; returns bytes removed."""
        self._check(start, end)
        removed = 0
        # Find the first interval that could overlap.
        idx = bisect_right(self._ends, start)
        while idx < len(self._starts) and self._starts[idx] < end:
            s, e, v = self._starts[idx], self._ends[idx], self._values[idx]
            if s < start and e > end:
                # Split into two around the hole.
                self._ends[idx] = start
                self._starts.insert(idx + 1, end)
                self._ends.insert(idx + 1, e)
                self._values.insert(idx + 1, self._shift_value(v, end - s))
                removed += end - start
                return removed
            if s < start:
                # Right part of the interval is removed.
                removed += e - start
                self._ends[idx] = start
                idx += 1
            elif e > end:
                # Left part removed; shift remainder.
                removed += end - s
                self._values[idx] = self._shift_value(v, end - s)
                self._starts[idx] = end
                return removed
            else:
                # Fully covered: drop it.
                removed += e - s
                del self._starts[idx], self._ends[idx], self._values[idx]
        return removed

    @staticmethod
    def _shift_value(value: Any, delta: int) -> Any:
        """Adjust a value when its interval's start moves by ``delta``.

        Values may implement ``shifted(delta)``; integers (device LBNs)
        shift arithmetically; anything else is kept as-is along with the
        piece-level delta reported by queries.
        """
        if hasattr(value, "shifted"):
            return value.shifted(delta)
        if isinstance(value, int):
            return value + delta
        return value

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()
        self._values.clear()

    # ------------------------------------------------------------- queries
    def get(self, start: int, end: int) -> List[Piece]:
        """Clipped pieces overlapping ``[start, end)``."""
        self._check(start, end)
        out: List[Piece] = []
        idx = bisect_right(self._ends, start)
        while idx < len(self._starts) and self._starts[idx] < end:
            s, e, v = self._starts[idx], self._ends[idx], self._values[idx]
            cs, ce = max(s, start), min(e, end)
            if cs < ce:
                out.append((cs, ce, v, cs - s))
            idx += 1
        return out

    def gaps(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Uncovered sub-ranges of ``[start, end)``."""
        self._check(start, end)
        out: List[Tuple[int, int]] = []
        cursor = start
        for cs, ce, _v, _d in self.get(start, end):
            if cs > cursor:
                out.append((cursor, cs))
            cursor = max(cursor, ce)
        if cursor < end:
            out.append((cursor, end))
        return out

    def covered_bytes(self, start: int, end: int) -> int:
        """Bytes of ``[start, end)`` that are mapped: the pieces
        :meth:`get` would clip, summed without building them."""
        self._check(start, end)
        starts, ends = self._starts, self._ends
        idx = bisect_right(ends, start)
        total = 0
        while idx < len(starts) and starts[idx] < end:
            lo, hi = starts[idx], ends[idx]
            total += (hi if hi < end else end) - (lo if lo > start else start)
            idx += 1
        return total

    def is_covered(self, start: int, end: int) -> bool:
        """True when every byte of ``[start, end)`` is mapped."""
        return self.covered_bytes(start, end) == end - start

    def value_at(self, offset: int) -> Optional[Any]:
        """The value covering ``offset``, or None."""
        pieces = self.get(offset, offset + 1)
        return pieces[0][2] if pieces else None
