"""Maintenance for the on-disk result cache (``.ibridge-cache/``).

The cache grows without bound by design — every distinct cell ever run
leaves a pickle — which is fine for a short session and wrong for a
cache directory kept across many sweeps.  ``ibridge-experiment cache``
exposes:

* ``stats`` — entry count, total bytes, age range;
* ``prune --max-age AGE`` — drop entries not touched for AGE;
* ``prune --max-bytes SIZE`` — then evict least-recently-used entries
  until the cache fits in SIZE.

"Recently used" is file mtime: :meth:`ResultCache.get` touches an
entry on every hit, so mtime is a true LRU clock (atime is unreliable
on ``noatime`` mounts).  Prune unlinks are racy-safe against concurrent
workers — a worker that loses its entry mid-run simply re-executes and
rewrites it (the cache is content-addressed, so this is always sound).
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .runner import default_cache_dir

_SIZE_UNITS = {"": 1, "k": 1024, "m": 1024 ** 2, "g": 1024 ** 3,
               "t": 1024 ** 4}
_AGE_UNITS = {"": 1.0, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0,
              "w": 7 * 86400.0}


def parse_size(text: str) -> int:
    """``"500M"``/``"2g"``/``"1048576"`` -> bytes."""
    m = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([kKmMgGtT]?)[bB]?\s*", text)
    if m is None:
        raise ValueError(f"cannot parse size {text!r} (try '500M', '2G')")
    return int(float(m.group(1)) * _SIZE_UNITS[m.group(2).lower()])


def parse_age(text: str) -> float:
    """``"7d"``/``"12h"``/``"90"`` (seconds) -> seconds."""
    m = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([smhdwSMHDW]?)\s*", text)
    if m is None:
        raise ValueError(f"cannot parse age {text!r} (try '7d', '12h')")
    return float(m.group(1)) * _AGE_UNITS[m.group(2).lower()]


def _entries(directory: str) -> List[Tuple[str, int, float]]:
    """All cache entry files as ``(path, bytes, mtime)``."""
    out: List[Tuple[str, int, float]] = []
    for root, _dirs, files in os.walk(directory):
        for name in files:
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(root, name)
            try:
                st = os.stat(path)
            except OSError:
                continue  # pruned/raced away
            out.append((path, st.st_size, st.st_mtime))
    return out


@dataclass
class CacheStats:
    """One ``cache stats`` snapshot."""

    directory: str
    files: int = 0
    bytes: int = 0
    oldest_age: Optional[float] = None
    newest_age: Optional[float] = None

    def format(self) -> str:
        lines = [f"cache {self.directory}: {self.files} entr"
                 f"{'y' if self.files == 1 else 'ies'}, "
                 f"{self.bytes / (1024 ** 2):.1f} MiB"]
        if self.files:
            lines.append(f"  oldest entry untouched for "
                         f"{self.oldest_age / 3600.0:.1f} h, newest for "
                         f"{self.newest_age / 3600.0:.1f} h")
        return "\n".join(lines)


def cache_stats(directory: Optional[str] = None,
                clock=time.time) -> CacheStats:
    directory = directory or default_cache_dir()
    stats = CacheStats(directory=directory)
    if not os.path.isdir(directory):
        return stats
    now = clock()
    ages = []
    for _path, size, mtime in _entries(directory):
        stats.files += 1
        stats.bytes += size
        ages.append(now - mtime)
    if ages:
        stats.oldest_age = max(ages)
        stats.newest_age = min(ages)
    return stats


@dataclass
class PruneReport:
    """What ``cache prune`` removed and what remains."""

    directory: str
    removed_files: int = 0
    removed_bytes: int = 0
    kept_files: int = 0
    kept_bytes: int = 0
    removed: List[str] = field(default_factory=list)

    def format(self) -> str:
        return (f"pruned {self.removed_files} entr"
                f"{'y' if self.removed_files == 1 else 'ies'} "
                f"({self.removed_bytes / (1024 ** 2):.1f} MiB) from "
                f"{self.directory}; kept {self.kept_files} "
                f"({self.kept_bytes / (1024 ** 2):.1f} MiB)")


def prune_cache(directory: Optional[str] = None,
                max_bytes: Optional[int] = None,
                max_age: Optional[float] = None,
                dry_run: bool = False,
                clock=time.time) -> PruneReport:
    """Evict by age, then by LRU until the cache fits ``max_bytes``."""
    if max_bytes is None and max_age is None:
        raise ValueError("prune needs --max-bytes and/or --max-age")
    directory = directory or default_cache_dir()
    report = PruneReport(directory=directory)
    if not os.path.isdir(directory):
        return report
    now = clock()
    entries = sorted(_entries(directory), key=lambda e: e[2])  # LRU first

    doomed: List[Tuple[str, int, float]] = []
    kept: List[Tuple[str, int, float]] = []
    if max_age is not None:
        for entry in entries:
            (doomed if now - entry[2] > max_age else kept).append(entry)
    else:
        kept = entries
    if max_bytes is not None:
        excess = sum(size for _p, size, _m in kept) - max_bytes
        still: List[Tuple[str, int, float]] = []
        for entry in kept:  # oldest first
            if excess > 0:
                doomed.append(entry)
                excess -= entry[1]
            else:
                still.append(entry)
        kept = still

    for path, size, _mtime in doomed:
        if not dry_run:
            try:
                os.unlink(path)
            except OSError:
                continue  # a concurrent prune/worker got there first
        report.removed_files += 1
        report.removed_bytes += size
        report.removed.append(path)
    for _path, size, _mtime in kept:
        report.kept_files += 1
        report.kept_bytes += size
    if not dry_run:
        _remove_empty_shards(directory)
    return report


def _remove_empty_shards(directory: str) -> None:
    """Drop now-empty two-hex shard subdirectories."""
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        shard = os.path.join(directory, name)
        if len(name) == 2 and os.path.isdir(shard):
            try:
                os.rmdir(shard)  # fails (correctly) unless empty
            except OSError:
                pass
