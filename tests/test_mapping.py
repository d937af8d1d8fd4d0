"""Tests for the iBridge mapping table and partition manager."""

import pytest

from repro.config import IBridgeConfig
from repro.core.mapping import CacheEntry, CacheKind, MappingTable
from repro.core.partition import MIN_SHARE, PartitionManager
from repro.errors import StorageError
from repro.units import KiB


def entry(handle=1, start=0, end=10 * KiB, kind=CacheKind.FRAGMENT,
          dirty=True, ret=1.0, lbn=0):
    return CacheEntry(handle=handle, start=start, end=end, ssd_lbn=lbn,
                      kind=kind, dirty=dirty, ret=ret, last_use=0.0)


# ---------------------------------------------------------------- mapping
def test_insert_and_query():
    table = MappingTable()
    e = entry()
    table.insert(e)
    assert table.is_fully_cached(1, 0, 10 * KiB)
    assert table.coverage(1, 0, 20 * KiB) == 10 * KiB
    assert table.gaps(1, 0, 20 * KiB) == [(10 * KiB, 20 * KiB)]


def test_pieces_carry_entry_and_delta():
    table = MappingTable()
    e = entry(start=0, end=10 * KiB, lbn=512)
    table.insert(e)
    [(ps, pe, got, delta)] = table.pieces(1, 4 * KiB, 8 * KiB)
    assert got is e
    assert (ps, pe, delta) == (4 * KiB, 8 * KiB, 4 * KiB)
    # SSD address arithmetic: lbn + delta.
    assert got.ssd_lbn + delta == 512 + 4 * KiB


def test_insert_over_existing_rejected():
    table = MappingTable()
    table.insert(entry())
    with pytest.raises(StorageError):
        table.insert(entry(start=5 * KiB, end=15 * KiB))


def test_overlapping_returns_distinct_entries():
    table = MappingTable()
    e1 = entry(start=0, end=10 * KiB)
    e2 = entry(start=20 * KiB, end=30 * KiB)
    table.insert(e1)
    table.insert(e2)
    got = table.overlapping(1, 5 * KiB, 25 * KiB)
    assert {g.id for g in got} == {e1.id, e2.id}


def test_remove_entry():
    table = MappingTable()
    e = entry()
    table.insert(e)
    table.remove(e)
    assert len(table) == 0
    assert table.coverage(1, 0, 10 * KiB) == 0
    with pytest.raises(StorageError):
        table.remove(e)


def test_dirty_tracking():
    table = MappingTable()
    d = entry(dirty=True)
    c = entry(start=20 * KiB, end=30 * KiB, dirty=False)
    table.insert(d)
    table.insert(c)
    assert table.dirty_entries() == [d]
    assert table.dirty_bytes == 10 * KiB
    d.busy = True
    assert table.dirty_entries() == []


def test_dirty_counter_matches_recount():
    table = MappingTable()

    def consistent():
        return table.dirty_bytes == table.recount_dirty_bytes()

    d = entry(start=0, end=10 * KiB, dirty=True)
    c = entry(start=20 * KiB, end=24 * KiB, dirty=False)
    gone = entry(start=40 * KiB, end=46 * KiB, dirty=True)
    for e in (d, c, gone):
        table.insert(e)
    assert table.dirty_bytes == 16 * KiB and consistent()
    table.mark_clean(d)
    assert not d.dirty
    assert table.dirty_bytes == 6 * KiB and consistent()
    table.mark_clean(d)  # already clean: no second subtraction
    assert table.dirty_bytes == 6 * KiB and consistent()
    table.remove(gone)  # removed while dirty
    assert table.dirty_bytes == 0 and consistent()
    table.mark_clean(gone)  # writeback landing after the drop
    assert not gone.dirty
    assert table.dirty_bytes == 0 and consistent()
    table.remove(c)
    assert table.dirty_bytes == 0 and consistent()
    table.insert(entry(start=40 * KiB, end=50 * KiB, dirty=True))
    assert table.dirty_bytes == 10 * KiB and consistent()


def test_handles_are_independent():
    table = MappingTable()
    table.insert(entry(handle=1))
    assert table.coverage(2, 0, 10 * KiB) == 0
    assert table.gaps(2, 0, 10 * KiB) == [(0, 10 * KiB)]


# ---------------------------------------------------------------- partition
def cfg(dynamic=True, split=(0.5, 0.5)):
    return IBridgeConfig(enabled=True, dynamic_partition=dynamic,
                         static_split=split)


def test_static_split_capacities():
    pm = PartitionManager(100 * KiB, cfg(dynamic=False, split=(0.25, 0.75)))
    assert pm.class_capacity(CacheKind.RANDOM) == 25 * KiB
    assert pm.class_capacity(CacheKind.FRAGMENT) == 75 * KiB


def test_dynamic_shares_proportional_to_returns():
    pm = PartitionManager(100 * KiB, cfg())
    pm.add(entry(kind=CacheKind.RANDOM, ret=1.0))
    pm.add(entry(start=20 * KiB, end=30 * KiB, kind=CacheKind.FRAGMENT, ret=3.0))
    share_r, share_f = pm.shares()
    assert share_f == pytest.approx(0.75)
    assert share_r == pytest.approx(0.25)


def test_dynamic_shares_bounded():
    pm = PartitionManager(100 * KiB, cfg())
    pm.add(entry(kind=CacheKind.FRAGMENT, ret=1000.0))
    share_r, share_f = pm.shares()
    assert share_r >= MIN_SHARE
    assert share_f <= 1 - MIN_SHARE


def test_empty_partitions_split_evenly():
    pm = PartitionManager(100 * KiB, cfg())
    assert pm.shares() == (0.5, 0.5)


def test_byte_accounting_add_drop():
    pm = PartitionManager(100 * KiB, cfg())
    e = entry()
    pm.add(e)
    assert pm.used(CacheKind.FRAGMENT) == 10 * KiB
    assert pm.used() == 10 * KiB
    pm.drop(e)
    assert pm.used() == 0
    with pytest.raises(StorageError):
        pm.drop(e)


def test_eviction_candidates_lru_order():
    pm = PartitionManager(30 * KiB, cfg(dynamic=False, split=(0.0, 1.0)))
    a, b, c = (entry(start=i * 10 * KiB, end=(i + 1) * 10 * KiB)
               for i in range(3))
    for e in (a, b, c):
        pm.add(e)
    pm.touch(a, now=5.0)  # a becomes MRU
    victims = pm.eviction_candidates(CacheKind.FRAGMENT, 10 * KiB)
    assert victims == [b]


def test_eviction_skips_busy_entries():
    pm = PartitionManager(20 * KiB, cfg(dynamic=False, split=(0.0, 1.0)))
    a = entry(start=0, end=10 * KiB)
    b = entry(start=10 * KiB, end=20 * KiB)
    pm.add(a)
    pm.add(b)
    a.busy = True
    victims = pm.eviction_candidates(CacheKind.FRAGMENT, 10 * KiB)
    assert victims == [b]


def test_eviction_impossible_raises():
    pm = PartitionManager(10 * KiB, cfg(dynamic=False, split=(0.0, 1.0)))
    e = entry()
    pm.add(e)
    e.busy = True
    with pytest.raises(StorageError):
        pm.eviction_candidates(CacheKind.FRAGMENT, 10 * KiB)


def test_fits_and_admissible():
    pm = PartitionManager(100 * KiB, cfg(dynamic=False, split=(0.5, 0.5)))
    assert pm.admissible(CacheKind.RANDOM, 50 * KiB)
    assert not pm.admissible(CacheKind.RANDOM, 51 * KiB)
    assert pm.fits(CacheKind.RANDOM, 50 * KiB)
    pm.add(entry(kind=CacheKind.RANDOM, end=30 * KiB))
    assert not pm.fits(CacheKind.RANDOM, 30 * KiB)
