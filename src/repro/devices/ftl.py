"""Page-mapped flash translation layer and fleet GC coordination.

The plain :class:`~repro.devices.ssd.SolidStateDrive` is a bandwidth
table; this module models what happens *inside* the drive when the
host sustains writes: a page-mapped FTL with over-provisioning, erase
blocks, and a garbage collector that must copy live pages before it
can erase — the mechanism behind write amplification and GC stalls.

The FTL is a pure state machine (no timing, no randomness): the SSD
charges time for the work it reports, and the audit layer checks its
ledgers — :meth:`FlashTranslationLayer.verify` in full, or
:meth:`~FlashTranslationLayer.verify_journal` over just the blocks and
pages changed since the last verify.  The ledger identity the auditor
relies on::

    device_pages_written == host_pages_written + gc_pages_copied

i.e. every physical page program is either a host write or a GC copy,
so write amplification = device / host ≥ 1 balances by construction
and any drift is a model bug.

:class:`GCCoordinator` implements the fleet-level scheduling policies
from the "Optimize Unsynchronized GC in an SSD Array" line of work:
unsynchronized per-drive GC magnifies stripe stragglers because a
stripe is as slow as its slowest member and *some* member is almost
always collecting; synchronizing (stop-the-fleet) or staggering
(round-robin slots) the collection windows trades a little average
latency for a much shorter tail.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import StorageError


class _Block:
    """One erase block: programmed slots hold logical page numbers
    (``None`` once invalidated).  ``valid`` is a running count of the
    live slots, kept by the FTL's three mutators; :meth:`recount` is the
    fresh count the audit compares it against."""

    __slots__ = ("index", "pages", "valid")

    def __init__(self, index: int) -> None:
        self.index = index
        self.pages: List[Optional[int]] = []
        self.valid = 0

    def recount(self) -> int:
        return len(self.pages) - self.pages.count(None)


class FlashTranslationLayer:
    """Page-mapped FTL over ``logical_capacity`` bytes of host space."""

    def __init__(self, logical_capacity: int, page_size: int,
                 pages_per_block: int, over_provision: float) -> None:
        if logical_capacity <= 0 or page_size <= 0 or pages_per_block < 2:
            raise StorageError("invalid FTL geometry")
        if over_provision <= 0:
            raise StorageError("FTL needs over-provisioned spare blocks")
        self._logical_capacity = logical_capacity
        self._over_provision = over_provision
        self.page_size = page_size
        self.pages_per_block = pages_per_block
        self.logical_pages = -(-logical_capacity // page_size)
        phys_pages = int(self.logical_pages * (1.0 + over_provision))
        self.total_blocks = -(-phys_pages // pages_per_block)
        if self.total_blocks < self.logical_pages / pages_per_block + 2:
            raise StorageError(
                "FTL over-provisioning too small to leave spare blocks")
        #: logical page -> (erase block, slot index)
        self.page_map: Dict[int, tuple] = {}
        self._free_ids = deque(range(self.total_blocks))
        self._sealed: Dict[int, _Block] = {}
        self._active = _Block(self._free_ids.popleft())
        #: Running sum of the blocks' ``valid`` counts.
        self.valid_pages = 0
        #: Blocks and logical pages changed since the last verify; None
        #: until :meth:`start_journal` (unaudited runs keep no journal).
        #: Several managers can audit one drive, so the journal lives
        #: here, not in any one auditor.
        self._touched_blocks: Optional[Set[_Block]] = None
        self._touched_pages: Optional[Set[int]] = None
        # ---- write-amplification ledger -----------------------------
        self.host_pages_written = 0
        self.gc_pages_copied = 0
        self.device_pages_written = 0
        self.pages_trimmed = 0
        self.erases = 0
        self.gc_runs = 0

    # --------------------------------------------------------------- state
    @property
    def free_blocks(self) -> int:
        return len(self._free_ids)

    def free_fraction(self) -> float:
        return len(self._free_ids) / self.total_blocks

    @property
    def write_amplification(self) -> float:
        if self.host_pages_written == 0:
            return 1.0
        return self.device_pages_written / self.host_pages_written

    # --------------------------------------------------------------- I/O
    def _invalidate_page(self, lpn: int) -> None:
        loc = self.page_map.pop(lpn, None)
        if loc is None:
            return
        block, slot = loc
        block.pages[slot] = None
        block.valid -= 1
        self.valid_pages -= 1
        if self._touched_pages is not None:
            self._touched_pages.add(lpn)
            self._touched_blocks.add(block)

    def _program(self, lpn: int) -> None:
        active = self._active
        if len(active.pages) >= self.pages_per_block:
            self._sealed[active.index] = active
            if not self._free_ids:
                raise StorageError(
                    "FTL out of free blocks (GC must run before writes)")
            active = self._active = _Block(self._free_ids.popleft())
        pages = active.pages
        pages.append(lpn)
        active.valid += 1
        self.valid_pages += 1
        self.page_map[lpn] = (active, len(pages) - 1)
        self.device_pages_written += 1
        if self._touched_pages is not None:
            self._touched_pages.add(lpn)
            self._touched_blocks.add(active)

    def host_write(self, lbn: int, nbytes: int) -> int:
        """Program the pages covering ``[lbn, lbn+nbytes)``; returns the
        page count (sub-page writes still program a whole page)."""
        if nbytes <= 0:
            raise StorageError("FTL write size must be positive")
        first = lbn // self.page_size
        last = (lbn + nbytes - 1) // self.page_size
        for lpn in range(first, last + 1):
            self._invalidate_page(lpn)
            self._program(lpn)
        pages = last - first + 1
        self.host_pages_written += pages
        return pages

    def trim(self, lbn: int, nbytes: int) -> int:
        """Invalidate pages *fully* covered by ``[lbn, lbn+nbytes)``.

        Boundary pages shared with a neighbouring live extent stay
        mapped until overwritten, exactly like a real discard.
        """
        if nbytes <= 0:
            return 0
        first = -(-lbn // self.page_size)              # round up
        last = (lbn + nbytes) // self.page_size        # exclusive
        trimmed = 0
        for lpn in range(first, last):
            if lpn in self.page_map:
                self._invalidate_page(lpn)
                trimmed += 1
        self.pages_trimmed += trimmed
        return trimmed

    # --------------------------------------------------------------- GC
    def collect_one(self) -> Optional[int]:
        """Collect the sealed block with the fewest valid pages.

        Copies its live pages forward, erases it, and returns the number
        of pages copied; ``None`` when there is nothing to collect.
        """
        if not self._sealed:
            return None
        victim = min(self._sealed.values(),
                     key=lambda b: (b.valid, b.index))
        if victim.valid >= self.pages_per_block:
            return None  # fully-live fleet: collecting reclaims nothing
        del self._sealed[victim.index]
        copied = 0
        for lpn in victim.pages:
            if lpn is not None:
                # _program sees the stale mapping removed first so the
                # copy is the single live location.
                del self.page_map[lpn]
                self._program(lpn)
                copied += 1
        victim.pages = []
        victim.valid = 0
        self.valid_pages -= copied
        if self._touched_blocks is not None:
            self._touched_blocks.add(victim)
        self._free_ids.append(victim.index)
        self.gc_pages_copied += copied
        self.erases += 1
        self.gc_runs += 1
        return copied

    def reset(self) -> None:
        """Factory-fresh state (drive replacement); ledgers restart."""
        journaled = self._touched_pages is not None
        self.__init__(self._logical_capacity, self.page_size,
                      self.pages_per_block, self._over_provision)
        if journaled:
            self.start_journal()

    # --------------------------------------------------------------- audit
    @property
    def audit_size(self) -> int:
        """Items a full :meth:`verify` visits (blocks + mapped pages)."""
        return len(self._sealed) + 1 + len(self.page_map)

    def start_journal(self) -> None:
        """Record the blocks and pages each mutation touches, so
        :meth:`verify_journal` can check only those."""
        self._touched_blocks = set()
        self._touched_pages = set()

    def _take_journal(self) -> Tuple[Optional[Set[_Block]], Optional[Set[int]]]:
        """Hand over the journal and start a fresh one."""
        blocks, pages = self._touched_blocks, self._touched_pages
        if pages is not None:
            self.start_journal()
        return blocks, pages

    def _check_ledger(self) -> None:
        if self.device_pages_written != (self.host_pages_written
                                         + self.gc_pages_copied):
            raise StorageError(
                f"FTL WA ledger drift: device={self.device_pages_written} "
                f"!= host={self.host_pages_written} "
                f"+ gc={self.gc_pages_copied}")

    def _check_blocks(self, blocks: Iterable[_Block]) -> None:
        per_block = self.pages_per_block
        for b in blocks:
            live = b.recount()
            if b.valid != live:
                raise StorageError(
                    f"FTL block {b.index} counts {b.valid} valid pages, its "
                    f"slots hold {live}")
            if not 0 <= live <= len(b.pages) <= per_block:
                raise StorageError(f"FTL block {b.index} slot drift")

    def _check_valid_total(self, total: int) -> None:
        if total != len(self.page_map):
            raise StorageError(
                f"FTL mapping drift: {total} valid slots vs "
                f"{len(self.page_map)} mapped pages")

    def _check_pages(self, lpns: Iterable[int]) -> None:
        """Each mapped page among ``lpns`` is where its block says."""
        page_map = self.page_map
        for lpn in lpns:
            loc = page_map.get(lpn)
            if loc is not None and loc[0].pages[loc[1]] != lpn:
                raise StorageError(f"FTL map entry for page {lpn} is stale")

    def _check_census(self) -> None:
        if len(self._free_ids) + len(self._sealed) + 1 != self.total_blocks:
            raise StorageError("FTL block census drift")

    def verify(self) -> None:
        """Raise :class:`StorageError` on any ledger/mapping drift.

        The full reference check: the write-amplification identity,
        every block's running ``valid`` count against its slots, the
        slot total against the page map and the running total, every
        map entry, and the block census.  Empties the journal.
        """
        self._take_journal()
        self._check_ledger()
        blocks = list(self._sealed.values()) + [self._active]
        self._check_blocks(blocks)
        valid_total = sum(b.valid for b in blocks)
        self._check_valid_total(valid_total)
        if self.valid_pages != valid_total:
            raise StorageError(
                f"FTL running valid total {self.valid_pages} != "
                f"{valid_total} summed over blocks")
        self._check_pages(self.page_map)
        self._check_census()

    def verify_journal(self) -> None:
        """Check only what changed since the last verify (O(touched)).

        The write-amplification identity, the running valid total
        against the page map and the block census are O(1); the slots
        of each touched block and the map entry of each touched page
        are re-checked.  Without a journal this is :meth:`verify`.
        """
        if self._touched_pages is None:
            self.verify()
            return
        blocks, pages = self._take_journal()
        self._check_ledger()
        self._check_blocks(blocks)
        self._check_valid_total(self.valid_pages)
        self._check_pages(pages)
        self._check_census()


class GCCoordinator:
    """Fleet-level GC scheduling across the per-server SSD array.

    Policies:

    - ``"sync"`` — stop-the-fleet: the moment any registered drive is
      under GC pressure, *every* drive is cleared to collect, so the
      collection windows align in time and a stripe pays one shared
      stall instead of eight scattered ones.
    - ``"stagger"`` — round-robin time slots of ``slot`` seconds; a
      drive collects (proactively) only during its own slot, so at most
      one drive per stripe is collecting at any instant and the rest of
      the array serves at full speed.

    Drives still hold an emergency trickle path (collect one block when
    nearly out of space) that bypasses the coordinator — a policy may
    shape the tail, never wedge a drive.
    """

    def __init__(self, env, policy: str, slot: float) -> None:
        if policy not in ("sync", "stagger"):
            raise StorageError(f"unknown GC coordination policy {policy!r}")
        self.env = env
        self.policy = policy
        self.slot = slot
        self._drives: List[object] = []
        self._index: Dict[int, int] = {}
        self._pressured: set = set()

    def register(self, ssd) -> None:
        self._index[id(ssd)] = len(self._drives)
        self._drives.append(ssd)
        ssd.set_gc_coordinator(self)

    def should_collect(self, ssd, pressured: bool) -> bool:
        """Is ``ssd`` cleared to run a collection burst right now?"""
        key = id(ssd)
        if pressured:
            self._pressured.add(key)
        else:
            self._pressured.discard(key)
        if self.policy == "sync":
            return bool(self._pressured)
        # Stagger: the in-slot drive collects whether pressured or not
        # (working ahead inside its window is the point); everyone else
        # waits for their turn.
        n = len(self._drives) or 1
        turn = int(self.env.now / self.slot) % n
        return turn == self._index.get(key, -1)
