"""SSD space partitioning between regular random requests and fragments.

The paper records each cached item's return value and sizes the two
partitions "proportionally to the types' respective averages", so the
class whose redirections help the system more gets more SSD space.
Within a class, LRU replacement applies.  A static split mode supports
the 1:1 / 1:2 comparisons of Fig. 12.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..config import IBridgeConfig
from ..errors import StorageError
from .mapping import CacheEntry, CacheKind

#: Never let a class's share drop below this, so a quiet class can
#: still bootstrap (matches the intent of proportional sharing without
#: starving a type whose average is momentarily tiny).
MIN_SHARE = 0.05


class PartitionManager:
    """Byte accounting + LRU per cache kind with dynamic shares."""

    def __init__(self, capacity: int, config: IBridgeConfig) -> None:
        if capacity < 0:
            raise StorageError("partition capacity must be non-negative")
        self.capacity = capacity
        self.config = config
        self._lru: Dict[CacheKind, "OrderedDict[int, CacheEntry]"] = {
            CacheKind.RANDOM: OrderedDict(),
            CacheKind.FRAGMENT: OrderedDict(),
        }
        self._bytes: Dict[CacheKind, int] = {CacheKind.RANDOM: 0,
                                             CacheKind.FRAGMENT: 0}
        self._ret_sum: Dict[CacheKind, float] = {CacheKind.RANDOM: 0.0,
                                                 CacheKind.FRAGMENT: 0.0}
        #: Each class's byte capacity.  It depends only on the return
        #: sums and LRU sizes, which change only in :meth:`add` and
        #: :meth:`drop`, and on the frozen config, so those two
        #: recompute it and every admission check reads it.
        self._cap: Dict[CacheKind, int] = {}
        self._reshare()

    # ------------------------------------------------------------- shares
    def shares(self) -> Tuple[float, float]:
        """(random_share, fragment_share) of the SSD partition."""
        if not self.config.dynamic_partition:
            a, b = self.config.static_split
            return float(a), float(b)
        avg_r = self._avg_return(CacheKind.RANDOM)
        avg_f = self._avg_return(CacheKind.FRAGMENT)
        if avg_r <= 0.0 and avg_f <= 0.0:
            return 0.5, 0.5
        total = avg_r + avg_f
        share_r = avg_r / total
        share_r = min(1.0 - MIN_SHARE, max(MIN_SHARE, share_r))
        return share_r, 1.0 - share_r

    def _avg_return(self, kind: CacheKind) -> float:
        n = len(self._lru[kind])
        if n == 0:
            return 0.0
        return max(0.0, self._ret_sum[kind] / n)

    def _reshare(self) -> None:
        share_r, share_f = self.shares()
        cap = self._cap
        cap[CacheKind.RANDOM] = int(self.capacity * share_r)
        cap[CacheKind.FRAGMENT] = int(self.capacity * share_f)

    def class_capacity(self, kind: CacheKind) -> int:
        return self._cap[kind]

    def used(self, kind: Optional[CacheKind] = None) -> int:
        if kind is None:
            return sum(self._bytes.values())
        return self._bytes[kind]

    # ------------------------------------------------------------- entries
    def add(self, entry: CacheEntry) -> None:
        lru = self._lru[entry.kind]
        if entry.id in lru:
            raise StorageError(f"entry {entry.id} already tracked")
        lru[entry.id] = entry
        self._bytes[entry.kind] += entry.nbytes
        self._ret_sum[entry.kind] += entry.ret
        self._reshare()

    def drop(self, entry: CacheEntry) -> None:
        lru = self._lru[entry.kind]
        if entry.id not in lru:
            raise StorageError(f"drop of untracked entry {entry.id}")
        del lru[entry.id]
        self._bytes[entry.kind] -= entry.nbytes
        self._ret_sum[entry.kind] -= entry.ret
        self._reshare()

    def touch(self, entry: CacheEntry, now: float) -> None:
        """Record a cache hit: move to MRU position."""
        lru = self._lru[entry.kind]
        if entry.id in lru:
            lru.move_to_end(entry.id)
            entry.last_use = now

    # ------------------------------------------------------------- eviction
    def fits(self, kind: CacheKind, nbytes: int) -> bool:
        """Would ``nbytes`` fit in ``kind``'s partition right now?"""
        return self._bytes[kind] + nbytes <= self._cap[kind]

    def admissible(self, kind: CacheKind, nbytes: int) -> bool:
        """Could ``nbytes`` ever fit (i.e. not larger than the class)?"""
        return 0 < nbytes <= self._cap[kind]

    def eviction_candidates(self, kind: CacheKind, nbytes: int) -> List[CacheEntry]:
        """LRU entries of ``kind`` to evict so ``nbytes`` fits.

        Busy entries (mid-writeback) are skipped.  Returns [] when the
        class already has room; raises if the goal is unreachable.
        """
        needed = self._bytes[kind] + nbytes - self._cap[kind]
        if needed <= 0:
            return []
        victims: List[CacheEntry] = []
        freed = 0
        for entry in self._lru[kind].values():  # LRU order (oldest first)
            if entry.busy:
                continue
            victims.append(entry)
            freed += entry.nbytes
            if freed >= needed:
                return victims
        raise StorageError(
            f"cannot free {needed} bytes in {kind.value} partition")
