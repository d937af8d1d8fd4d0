"""``LocalStore``'s one-pass range mapping against the old two-pass code.

``ranges_for_write`` and ``ranges_for_read`` map a file range with one
``IntervalMap.get`` (and a second only after filling holes).  The class
below is the store as it was before, verbatim: ``ensure`` finds the
holes with ``gaps``, ``_ranges`` gets the pieces again and re-merges
them, and ``ranges_for_read`` checks coverage with its own ``get``.
Seeded random sequences of preallocations, partial writes that leave
holes, overlapping writes and reads must return the same ranges, leave
the same allocator cursor and extents, and raise ``StorageError`` in
the same cases.
"""

import random
from typing import Dict, List, Tuple

import pytest

from repro.errors import StorageError
from repro.localfs import LocalStore
from repro.localfs.extents import ExtentAllocator
from repro.localfs.store import _lbn_coalesce
from repro.units import KiB
from repro.util.intervals import IntervalMap


class TwoPassLocalStore:
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

    def ensure(self, handle: int, offset: int, nbytes: int) -> None:
        """Allocate backing extents for any holes in ``[offset, offset+nbytes)``."""
        if nbytes <= 0:
            raise StorageError(f"size must be positive, got {nbytes}")
        fmap = self._file(handle)
        for gap_start, gap_end in fmap.gaps(offset, offset + nbytes):
            ext = self.allocator.allocate(gap_end - gap_start)
            fmap.set(gap_start, gap_end, ext.lbn)

    def ranges_for_write(self, handle: int, offset: int,
                         nbytes: int) -> List[Tuple[int, int]]:
        """Device (lbn, size) ranges for a write, allocating as needed."""
        self.ensure(handle, offset, nbytes)
        return self._ranges(handle, offset, nbytes)

    def ranges_for_read(self, handle: int, offset: int,
                        nbytes: int) -> List[Tuple[int, int]]:
        """Device (lbn, size) ranges for a read of existing data."""
        fmap = self._files.get(handle)
        if fmap is None or not fmap.is_covered(offset, offset + nbytes):
            raise StorageError(
                f"read of unallocated range [{offset}, {offset + nbytes}) "
                f"in handle {handle}")
        return self._ranges(handle, offset, nbytes)

    def _ranges(self, handle: int, offset: int, nbytes: int) -> List[Tuple[int, int]]:
        fmap = self._files[handle]
        out: List[Tuple[int, int]] = []
        for cs, ce, lbn, delta in fmap.get(offset, offset + nbytes):
            out.append((lbn + delta, ce - cs))
        # Merge device-contiguous neighbouring pieces so one logically
        # contiguous file range maps to as few device I/Os as possible.
        merged: List[Tuple[int, int]] = []
        for lbn, size in out:
            if merged and merged[-1][0] + merged[-1][1] == lbn:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((lbn, size))
        return merged

    def preallocate(self, handle: int, nbytes: int) -> None:
        """Lay out ``handle`` contiguously from offset 0 (benchmark files)."""
        if nbytes <= 0:
            raise StorageError(f"size must be positive, got {nbytes}")
        if self.file_size(handle) != 0:
            raise StorageError(f"handle {handle} already has data")
        ext = self.allocator.allocate(nbytes)
        self._file(handle).set(0, nbytes, ext.lbn)


UNIT = 4 * KiB
#: Small enough that long sequences run the allocator out of space.
CAPACITY = 320 * UNIT


def outcome(call):
    """A call's return value, or the ``StorageError`` it raised."""
    try:
        return ("ok", call())
    except StorageError as exc:
        return ("error", type(exc).__name__, str(exc))


def state(store):
    """Allocator cursor and every file's extents."""
    return (store.allocator._cursor,
            {h: fmap.items() for h, fmap in sorted(store._files.items())})


def random_op(rng):
    """One store call: a preallocation, a write (partial, overlapping or
    leaving holes), or a read, sometimes of a hole or with a bad size."""
    handle = rng.randrange(4)
    kind = rng.random()
    if kind < 0.05:
        return "preallocate", (handle, rng.choice((-UNIT, 0, UNIT,
                                                   rng.randrange(1, 64) * UNIT)))
    offset = rng.randrange(0, 96) * UNIT + rng.choice((0, 0, 0, 512, 1))
    nbytes = rng.choice((rng.randrange(1, 12) * UNIT, rng.randrange(1, 40000),
                         0, -UNIT))
    if rng.random() < 0.03:
        offset = -UNIT
    name = "ranges_for_write" if kind < 0.55 else "ranges_for_read"
    return name, (handle, offset, nbytes)


def replay(seed):
    """Run one seeded sequence on both stores, comparing every call;
    the error classes raised."""
    rng = random.Random(seed)
    new = LocalStore(CAPACITY, reserve=UNIT)
    old = TwoPassLocalStore(CAPACITY, reserve=UNIT)
    kinds, errors = set(), set()
    for _ in range(400):
        name, args = random_op(rng)
        got = outcome(lambda: getattr(new, name)(*args))
        want = outcome(lambda: getattr(old, name)(*args))
        assert got == want, (name, args)
        assert state(new) == state(old)
        kinds.add((name, got[0]))
        if got[0] == "error":
            errors.add(got[1])
    # Every call kind both succeeded and failed at least once.
    assert {k for k, status in kinds if status == "ok"} >= {
        "ranges_for_write", "ranges_for_read"}
    assert {k for k, status in kinds if status == "error"} >= {
        "ranges_for_write", "ranges_for_read"}
    return errors


@pytest.mark.parametrize("seed", range(40))
def test_one_pass_ranges_match_the_two_pass_store(seed):
    replay(seed)


def test_random_sequences_reach_out_of_space():
    errors = set()
    for seed in range(40):
        errors |= replay(seed)
    assert errors == {"StorageError", "AllocationError"}


@pytest.mark.parametrize("offset, nbytes", [(0, 0), (0, -1), (-UNIT, UNIT),
                                            (UNIT, 0)])
def test_bad_sizes_and_offsets_raise_alike(offset, nbytes):
    new, old = LocalStore(CAPACITY), TwoPassLocalStore(CAPACITY)
    for store in (new, old):
        store.ranges_for_write(1, 0, 8 * UNIT)
    for name in ("ranges_for_write", "ranges_for_read"):
        for handle in (1, 2):
            got = outcome(lambda: getattr(new, name)(handle, offset, nbytes))
            want = outcome(lambda: getattr(old, name)(handle, offset, nbytes))
            assert got[0] == "error" and got == want
            assert state(new) == state(old)


def test_hole_filling_allocates_in_gap_order():
    new, old = LocalStore(CAPACITY), TwoPassLocalStore(CAPACITY)
    for store in (new, old):
        store.ranges_for_write(1, 2 * UNIT, UNIT)
        store.ranges_for_write(1, 5 * UNIT, UNIT)
    with pytest.raises(StorageError):
        new.ranges_for_read(1, 0, 8 * UNIT)
    got = new.ranges_for_write(1, 0, 8 * UNIT)
    assert got == old.ranges_for_write(1, 0, 8 * UNIT)
    assert state(new) == state(old)
    # Three holes, filled left to right after the two 4 KiB extents.
    assert got == [(2 * UNIT, 2 * UNIT), (0, UNIT), (4 * UNIT, 2 * UNIT),
                   (UNIT, UNIT), (6 * UNIT, 2 * UNIT)]
