"""Shadow accounting and coherence checks for one iBridge manager.

The auditor keeps its *own* ledgers of payload bytes, fed by small hooks
at the manager's decision points, and cross-checks them against the
structures the manager maintains (mapping table, log store, partition
accounts, reported stats).  Because the ledgers are independent of the
audited code, a bookkeeping bug in either place surfaces as a mismatch
instead of silently skewing experiment results.

Each check site in the manager passes what its mutation touched (an
admitted or dropped entry, a writeback batch, a relocated extent, a
released segment).  The auditor keeps *shadow state* — an incremental
recount of the audited structures: bytes and return sums per cache
kind, the dirty-byte recount, the LBN → entry map, the live log extents
and live bytes per segment — and updates it from those deltas, so a
per-mutation check re-reads only the touched keys and compares totals
(O(touched), not O(table)).  Any mismatch escalates to a *full
recount*: the reference check that walks every structure, reports in
its fixed order and wording, and re-seeds the shadow.  Full recounts
also run on an explicit :meth:`ManagerAuditor.check` with nothing
touched (``AuditRuntime.checkpoint``, phase boundaries, the watchdog),
in :meth:`~ManagerAuditor.final_check`, and once the per-mutation
checks since the last one reach the number of items a full recount
visits, which keeps its cost O(1) per mutation.  The FTL journals its
own touched blocks and pages (``FlashTranslationLayer.verify_journal``).

Invariants checked (see docs/AUDITING.md for the full catalogue):

* **Dirty ledger** — redirected payload minus written-back minus
  superseded payload equals the mapping table's dirty bytes, recounted
  over its entries, at every synchronous point.
* **Dirty counter** — the table's running ``dirty_bytes`` count equals
  that recount.
* **Read conservation** — every read serves exactly the requested
  payload bytes: SSD piece bytes + disk gap payload == request size,
  measured from the manager's *reported stats* (so stats inflation,
  e.g. counting readahead extension bytes as payload, is caught).
* **Cache coherence** — partition byte/return accounts, the
  ``_by_lbn`` index, the log store's live-extent set and per-segment
  accounting all agree with the mapping table.
* **Capacity** — total partition usage never exceeds the configured
  capacity; per-class usage never exceeds the class share under static
  partitioning.
* **End-of-run conservation** — after a drain, no dirty bytes remain
  and accepted write payload equals disk-foreground plus SSD-redirected
  payload.

A mutation that bypasses the check sites (planted state, an
unhooked code path) is caught no later than the next full recount.
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..core.manager import TABLE_ENTRY_BYTES
from ..core.mapping import CacheEntry, CacheKind
from ..errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.logstore import Segment
    from ..core.manager import IBridgeManager
    from .runtime import AuditRuntime

_KINDS = (CacheKind.RANDOM, CacheKind.FRAGMENT)

#: LBNs quoted from each side of an ``lbn-index`` mismatch.
_LBN_SAMPLE = 8


def _sample(keys: Iterable[int]) -> str:
    keys = sorted(keys)
    more = len(keys) - _LBN_SAMPLE
    return f"{keys[:_LBN_SAMPLE]}" + (f" (+{more} more)" if more > 0 else "")


class ManagerAuditor:
    """Per-manager conservation ledger + coherence shadow checks."""

    def __init__(self, manager: "IBridgeManager", runtime: "AuditRuntime") -> None:
        self.manager = manager
        self.runtime = runtime
        cfg = runtime.config
        self._coherence = cfg.check_coherence
        self._conservation = cfg.check_conservation
        # Independent payload ledgers (bytes).
        self.client_write_bytes = 0     # accepted write payload
        self.disk_write_bytes = 0       # served at the disk (foreground)
        self.ssd_redirect_bytes = 0     # redirected into the SSD log
        self.writeback_bytes = 0        # flushed SSD log -> disk
        self.superseded_bytes = 0       # dirty bytes replaced by new writes
        self.forfeited_bytes = 0        # dirty bytes lost to SSD fail-stop
        self.fill_bytes = 0             # clean read-miss admissions
        self.read_requested_bytes = 0   # read payload requested
        self.read_served_bytes = 0      # read payload served (ssd + disk)
        self.checks = 0
        #: Full recounts run (explicit, phase-boundary, amortised, or
        #: escalated from a per-mutation mismatch).
        self.recounts = 0
        # Shadow state: an incremental recount of the audited
        # structures, seeded by every full recount and updated from the
        # deltas the check sites pass.
        self._kind_bytes: Dict[CacheKind, int] = dict.fromkeys(_KINDS, 0)
        self._kind_ret: Dict[CacheKind, float] = dict.fromkeys(_KINDS, 0.0)
        self._dirty = 0
        #: entry id -> (kind, nbytes, ret, dirty, lbn) as last counted.
        self._counted: Dict[int, tuple] = {}
        self._lbn_entry: Dict[int, CacheEntry] = {}
        #: lbn -> (segment index, nbytes) of the log's live extents.
        self._extents: Dict[int, Tuple[int, int]] = {}
        self._seg_live: Dict[int, int] = {}
        self._since_full = 0
        #: Items the last full recount visited; 0 makes the first check
        #: a full one.
        self._full_cost = 0
        #: The drive's FTL, when it models one (shared by every manager
        #: on the server; its journal feeds the per-mutation checks).
        self._ftl = getattr(manager.ssd_queue.device, "ftl", None)
        if self._ftl is not None:
            self._ftl.start_journal()

    # ------------------------------------------------------------- helpers
    def _fail(self, check: str, message: str, **context) -> None:
        self.runtime.violation(check, message,
                               server=self.manager.server_id, **context)

    def _trace(self, kind: str, **fields) -> None:
        self.runtime.trace.emit(self.runtime.env.now, kind,
                                server=self.manager.server_id, **fields)

    # ----------------------------------------------------- write-side hooks
    def note_client_write(self, nbytes: int) -> None:
        self.client_write_bytes += nbytes
        self._trace("client_write", nbytes=nbytes)

    def note_disk_write(self, nbytes: int) -> None:
        self.disk_write_bytes += nbytes
        self._trace("disk_write", nbytes=nbytes)

    def note_ssd_redirect(self, nbytes: int) -> None:
        self.ssd_redirect_bytes += nbytes
        self._trace("ssd_write", nbytes=nbytes)

    def note_writeback(self, nbytes: int) -> None:
        self.writeback_bytes += nbytes
        self._trace("writeback", nbytes=nbytes)

    def note_superseded(self, nbytes: int) -> None:
        self.superseded_bytes += nbytes
        self._trace("superseded", nbytes=nbytes)

    def note_forfeited(self, nbytes: int) -> None:
        """Dirty payload lost to an SSD fail-stop (failure-aware ledger)."""
        self.forfeited_bytes += nbytes
        self._trace("forfeited", nbytes=nbytes)

    def note_fill(self, nbytes: int) -> None:
        self.fill_bytes += nbytes
        self._trace("fill", nbytes=nbytes)

    # ------------------------------------------------------ read-side hook
    def note_read(self, requested: int, ssd_bytes: int, disk_bytes: int,
                  readahead_bytes: int) -> None:
        """Per-read conservation, measured from the reported stats deltas."""
        self.read_requested_bytes += requested
        self.read_served_bytes += ssd_bytes + disk_bytes
        self._trace("read", requested=requested, ssd=ssd_bytes,
                    disk=disk_bytes, readahead=readahead_bytes)
        if not self._conservation:
            return
        if ssd_bytes + disk_bytes != requested:
            self._fail(
                "read-conservation",
                f"read of {requested} B reported {ssd_bytes} B from SSD + "
                f"{disk_bytes} B from disk "
                f"(+{readahead_bytes} B readahead extension)",
                requested=requested, ssd=ssd_bytes, disk=disk_bytes,
                readahead=readahead_bytes)

    # ------------------------------------------------------------- checks
    def check(self, event: str = "", entries: Sequence[CacheEntry] = (),
              moved: Optional[Tuple[int, int]] = None,
              segment: Optional["Segment"] = None) -> None:
        """Run the continuous invariants (called after every mutation).

        ``entries`` are the cache entries the mutation admitted, dropped
        or cleaned, ``moved`` the ``(old, new)`` LBNs of a relocated
        log extent, ``segment`` a log segment it released.  With any of
        them the check screens only what they touched (plus O(1)
        totals); with none it is a full recount.
        """
        self.checks += 1
        if ((not entries and moved is None and segment is None)
                or self._full_due()
                or not self._screen(entries, moved, segment)):
            self._recount(event)
        else:
            self._since_full += 1

    def _full_due(self) -> bool:
        """Is a full recount due?  Once the per-mutation checks since the
        last one reach the items it visits, so its cost amortises to
        O(1) per mutation."""
        return self._since_full >= self._full_cost

    def _recount(self, event: str) -> None:
        """The full reference check; re-seeds the shadow state."""
        self.recounts += 1
        self._since_full = 0
        mgr = self.manager
        entries = mgr.mapping.entries
        by_kind = dict.fromkeys(_KINDS, 0)
        ret_by_kind = dict.fromkeys(_KINDS, 0.0)
        dirty = 0
        counted: Dict[int, tuple] = {}
        lbns: Dict[int, CacheEntry] = {}
        for e in entries:
            by_kind[e.kind] += e.nbytes
            ret_by_kind[e.kind] += e.ret
            if e.dirty:
                dirty += e.nbytes
            counted[e.id] = (e.kind, e.nbytes, e.ret, e.dirty, e.ssd_lbn)
            lbns[e.ssd_lbn] = e
        log = mgr._log
        extents = dict(log._extents) if log is not None else {}
        live_by_seg: Dict[int, int] = {}
        for seg_idx, nbytes in extents.values():
            live_by_seg[seg_idx] = live_by_seg.get(seg_idx, 0) + nbytes
        self._kind_bytes, self._kind_ret = by_kind, ret_by_kind
        self._dirty = dirty
        self._counted, self._lbn_entry = counted, lbns
        self._extents, self._seg_live = extents, live_by_seg
        ftl = self._ftl
        self._full_cost = len(entries) + len(extents) + (
            0 if log is None else len(log.segments)
            + (ftl.audit_size if ftl is not None else 0))

        if self._conservation:
            self._check_dirty_ledger(event, dirty)
            self._check_dirty_counter(event, dirty)
        if self._coherence:
            self._check_coherence(event, entries, by_kind, ret_by_kind,
                                  lbns, live_by_seg)

    def _screen(self, entries: Sequence[CacheEntry],
                moved: Optional[Tuple[int, int]],
                segment: Optional["Segment"]) -> bool:
        """Update the shadow from one mutation's deltas and compare.

        Re-reads only the touched keys: each entry's table membership
        and fields, the ``_by_lbn`` index and log extent at each touched
        LBN, the touched segments and FTL journal, and the coverage of
        each touched entry's range.  False means some invariant may be
        broken: the caller escalates to a full recount, which decides
        (and words) what is reported.
        """
        mgr = self.manager
        table = mgr.mapping._entries
        lbns = set(moved) if moved is not None else set()
        present: List[CacheEntry] = []   # touched entries in the table
        left: List[CacheEntry] = []      # ... that left it since counted
        for e in entries:
            old = self._counted.get(e.id)
            new = ((e.kind, e.nbytes, e.ret, e.dirty, e.ssd_lbn)
                   if e.id in table else None)
            if new is not None:
                present.append(e)
                lbns.add(new[4])
            if old == new:
                continue
            if old is not None:
                lbns.add(old[4])
                if self._lbn_entry.get(old[4]) is e:
                    del self._lbn_entry[old[4]]
                if old[3]:
                    self._dirty -= old[1]
            if new is not None:
                if self._lbn_entry.setdefault(new[4], e) is not e:
                    return False  # two entries at one LBN
                if new[3]:
                    self._dirty += new[1]
                self._counted[e.id] = new
            else:
                del self._counted[e.id]
                left.append(e)
            # Kind, size and return only move when the entry joins or
            # leaves, so a running return sum sees the partition's own
            # sequence of additions.
            if old is None or new is None or old[:3] != new[:3]:
                if old is not None:
                    self._kind_bytes[old[0]] -= old[1]
                    self._kind_ret[old[0]] -= old[2]
                if new is not None:
                    self._kind_bytes[new[0]] += new[1]
                    self._kind_ret[new[0]] += new[2]

        if self._conservation:
            ledger = (self.ssd_redirect_bytes - self.writeback_bytes
                      - self.superseded_bytes - self.forfeited_bytes)
            if ledger != self._dirty or mgr.mapping.dirty_bytes != self._dirty:
                return False
        if not self._coherence:
            return True

        part = mgr.partition
        for kind in _KINDS:
            if part._bytes[kind] != self._kind_bytes[kind]:
                return False
            if not math.isclose(part._ret_sum[kind], self._kind_ret[kind],
                                rel_tol=1e-9, abs_tol=1e-12):
                return False
        if part.used() > part.capacity:
            return False
        if not mgr.ib.dynamic_partition and any(
                part.used(k) > part.class_capacity(k) for k in _KINDS):
            return False
        by_lbn = mgr._by_lbn
        if len(by_lbn) != len(self._lbn_entry):
            return False
        for lbn in lbns:
            if by_lbn.get(lbn) is not self._lbn_entry.get(lbn):
                return False

        log = mgr._log
        if log is None:
            return True
        live = log._extents
        segs = {segment.index} if segment is not None else set()
        for lbn in lbns:
            new_ext, old_ext = live.get(lbn), self._extents.get(lbn)
            if new_ext == old_ext:
                continue
            if old_ext is not None:
                self._seg_live[old_ext[0]] -= old_ext[1]
                segs.add(old_ext[0])
                del self._extents[lbn]
            if new_ext is not None:
                self._seg_live[new_ext[0]] = (
                    self._seg_live.get(new_ext[0], 0) + new_ext[1])
                segs.add(new_ext[0])
                self._extents[lbn] = new_ext
        for e in present:
            info = live.get(e.ssd_lbn)
            if info is None or info[1] != e.nbytes + TABLE_ENTRY_BYTES:
                return False
        for idx in segs:
            seg = log.segments[idx]
            if seg.live_bytes != self._seg_live.get(idx, 0):
                return False
            if not 0 <= seg.live_bytes <= seg.write_cursor <= seg.size:
                return False
            if ((seg.live_bytes or seg.write_cursor)
                    and any(f is seg for f in log._free)):
                return False
        ftl = self._ftl
        if ftl is not None:
            try:
                ftl.verify_journal()
            except StorageError:
                return False
        coverage = mgr.mapping.coverage
        for e in present:
            if coverage(e.handle, e.start, e.end) != e.nbytes:
                return False
        for e in left:
            # Entries never overlap, so a range that just left the
            # table must read as uncovered.
            if coverage(e.handle, e.start, e.end) != 0:
                return False
        return True

    def _check_dirty_ledger(self, event: str, actual: int) -> None:
        ledger = (self.ssd_redirect_bytes - self.writeback_bytes
                  - self.superseded_bytes - self.forfeited_bytes)
        if ledger != actual:
            self._fail(
                "dirty-ledger",
                f"after {event or 'mutation'}: conservation ledger says "
                f"{ledger} dirty bytes (redirected {self.ssd_redirect_bytes}"
                f" - writeback {self.writeback_bytes}"
                f" - superseded {self.superseded_bytes}"
                f" - forfeited {self.forfeited_bytes}), mapping table "
                f"holds {actual}", event=event, ledger=ledger, actual=actual)

    def _check_dirty_counter(self, event: str, recount: int) -> None:
        counter = self.manager.mapping.dirty_bytes
        if counter != recount:
            self._fail(
                "dirty-counter",
                f"after {event or 'mutation'}: mapping table counts "
                f"{counter} dirty bytes, its entries hold {recount}",
                event=event, counter=counter, recount=recount)

    def _check_coherence(self, event: str, entries: Tuple[CacheEntry, ...],
                         by_kind: Dict[CacheKind, int],
                         ret_by_kind: Dict[CacheKind, float],
                         lbns: Dict[int, CacheEntry],
                         live_by_seg: Dict[int, int]) -> None:
        mgr = self.manager

        # Partition byte and return accounting vs the mapping table.
        for kind in _KINDS:
            used = mgr.partition.used(kind)
            if used != by_kind[kind]:
                self._fail(
                    "partition-bytes",
                    f"after {event or 'mutation'}: partition counts {used} "
                    f"{kind.value} bytes, mapping table holds "
                    f"{by_kind[kind]}", event=event, kind=kind.value,
                    partition=used, mapping=by_kind[kind])
            ret_sum = mgr.partition._ret_sum[kind]
            if not math.isclose(ret_sum, ret_by_kind[kind],
                                rel_tol=1e-9, abs_tol=1e-12):
                self._fail(
                    "partition-returns",
                    f"after {event or 'mutation'}: partition return sum "
                    f"{ret_sum!r} for {kind.value} != mapping sum "
                    f"{ret_by_kind[kind]!r}", event=event, kind=kind.value)

        # Capacity bounds.
        total_used = mgr.partition.used()
        if total_used > mgr.partition.capacity:
            self._fail(
                "partition-capacity",
                f"after {event or 'mutation'}: partition holds {total_used} "
                f"bytes, capacity {mgr.partition.capacity}",
                event=event, used=total_used, capacity=mgr.partition.capacity)
        if not mgr.ib.dynamic_partition:
            # Static shares are stable, so per-class bounds are hard.
            for kind in _KINDS:
                cap = mgr.partition.class_capacity(kind)
                if mgr.partition.used(kind) > cap:
                    self._fail(
                        "class-capacity",
                        f"after {event or 'mutation'}: {kind.value} class "
                        f"holds {mgr.partition.used(kind)} bytes, share is "
                        f"{cap}", event=event, kind=kind.value)

        # The _by_lbn index mirrors the mapping table exactly.
        index = set(mgr._by_lbn)
        if index != set(lbns):
            self._fail(
                "lbn-index",
                f"after {event or 'mutation'}: _by_lbn holds {len(index)} "
                f"keys, the mapping table {len(lbns)} entry LBNs; only in "
                f"_by_lbn: {_sample(index.difference(lbns))}, only in the "
                f"table: {_sample(set(lbns).difference(index))}",
                event=event)
        else:
            for lbn, entry in lbns.items():
                if mgr._by_lbn[lbn] is not entry:
                    self._fail(
                        "lbn-index",
                        f"after {event or 'mutation'}: _by_lbn[{lbn}] is "
                        f"entry {mgr._by_lbn[lbn].id}, mapping says "
                        f"{entry.id}", event=event, lbn=lbn)

        log = mgr._log
        if log is None:
            return

        # Every cached entry is backed by a live log extent whose size is
        # the payload plus the persisted mapping-table entry.  Both
        # admission paths (redirected writes and read-miss fills) must
        # charge identically or log occupancy drifts from reality.
        for e in entries:
            info = log._extents.get(e.ssd_lbn)
            if info is None:
                self._fail(
                    "log-extent",
                    f"after {event or 'mutation'}: entry {e.id} points at "
                    f"LBN {e.ssd_lbn} with no live log extent",
                    event=event, entry=e.id, lbn=e.ssd_lbn)
                continue
            _seg, size = info
            if size != e.nbytes + TABLE_ENTRY_BYTES:
                self._fail(
                    "log-extent-size",
                    f"after {event or 'mutation'}: entry {e.id} holds "
                    f"{e.nbytes} payload bytes but its log extent is "
                    f"{size} bytes (expected payload + "
                    f"{TABLE_ENTRY_BYTES} B table entry)",
                    event=event, entry=e.id, extent=size, payload=e.nbytes)

        # Log segment accounting agrees with the live-extent set.
        for seg in log.segments:
            expect = live_by_seg.get(seg.index, 0)
            if seg.live_bytes != expect:
                self._fail(
                    "log-segment",
                    f"after {event or 'mutation'}: segment {seg.index} "
                    f"accounts {seg.live_bytes} live bytes, extents sum to "
                    f"{expect}", event=event, segment=seg.index)
            if not (0 <= seg.live_bytes <= seg.write_cursor <= seg.size):
                self._fail(
                    "log-segment",
                    f"after {event or 'mutation'}: segment {seg.index} "
                    f"accounting out of bounds (live {seg.live_bytes}, "
                    f"cursor {seg.write_cursor}, size {seg.size})",
                    event=event, segment=seg.index)
        for seg in log._free:
            if seg.live_bytes != 0 or seg.write_cursor != 0:
                self._fail(
                    "log-free-list",
                    f"after {event or 'mutation'}: free segment {seg.index} "
                    f"not empty (live {seg.live_bytes}, cursor "
                    f"{seg.write_cursor})", event=event, segment=seg.index)

        # FTL write-amplification ledger (when the device models one):
        # every physical page program is a host write or a GC copy, and
        # the page map agrees with the per-block slot state.
        self._check_ftl(event)

        # Cached ranges of one handle never overlap: the interval map's
        # covered bytes must equal the entries' total size.
        spans: Dict[int, Tuple[int, int, int]] = {}
        for e in entries:
            lo, hi, total = spans.get(e.handle, (e.start, e.end, 0))
            spans[e.handle] = (min(lo, e.start), max(hi, e.end),
                               total + e.nbytes)
        for handle, (lo, hi, total) in spans.items():
            covered = mgr.mapping.coverage(handle, lo, hi)
            if covered != total:
                self._fail(
                    "mapping-overlap",
                    f"after {event or 'mutation'}: handle {handle} covers "
                    f"{covered} bytes in its interval map but entries sum "
                    f"to {total}", event=event, handle=handle)

    def _check_ftl(self, event: str) -> None:
        ftl = self._ftl
        if ftl is None:
            return
        try:
            ftl.verify()
        except StorageError as exc:
            self._fail("ftl-ledger",
                       f"after {event or 'mutation'}: {exc}", event=event)

    # ------------------------------------------------------------- final
    def final_check(self) -> None:
        """End-of-run conservation (call after the manager drained)."""
        self.check("final")
        if not self._conservation:
            return
        dirty = self.manager.mapping.recount_dirty_bytes()
        if dirty != 0:
            self._fail(
                "final-dirty",
                f"drain finished with {dirty} dirty bytes still on the SSD",
                dirty=dirty)
        accepted = self.client_write_bytes
        placed = self.disk_write_bytes + self.ssd_redirect_bytes
        if accepted != placed:
            self._fail(
                "write-conservation",
                f"accepted {accepted} write payload bytes but placed "
                f"{placed} (disk {self.disk_write_bytes} + SSD "
                f"{self.ssd_redirect_bytes})",
                accepted=accepted, placed=placed)
        if self.read_served_bytes != self.read_requested_bytes:
            self._fail(
                "read-conservation",
                f"served {self.read_served_bytes} read payload bytes of "
                f"{self.read_requested_bytes} requested",
                served=self.read_served_bytes,
                requested=self.read_requested_bytes)
        self._trace("final_check",
                    client_write=self.client_write_bytes,
                    disk_write=self.disk_write_bytes,
                    ssd_redirect=self.ssd_redirect_bytes,
                    writeback=self.writeback_bytes,
                    superseded=self.superseded_bytes,
                    forfeited=self.forfeited_bytes,
                    fill=self.fill_bytes,
                    read_requested=self.read_requested_bytes,
                    read_served=self.read_served_bytes,
                    checks=self.checks)


def dirty_entry_dump(manager: "IBridgeManager", limit: int = 16) -> List[Dict]:
    """Compact view of a manager's dirty entries for stall dumps."""
    out = []
    for e in sorted((e for e in manager.mapping.entries if e.dirty),
                    key=lambda e: e.id)[:limit]:
        out.append({"id": e.id, "handle": e.handle, "start": e.start,
                    "end": e.end, "nbytes": e.nbytes, "kind": e.kind.value,
                    "busy": e.busy, "ssd_lbn": e.ssd_lbn})
    return out
