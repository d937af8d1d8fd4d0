"""Shadow accounting and coherence checks for one iBridge manager.

The auditor keeps its *own* ledgers of payload bytes, fed by small hooks
at the manager's decision points, and cross-checks them against the
structures the manager maintains (mapping table, log store, partition
accounts, reported stats).  Because the ledgers are independent of the
audited code, a bookkeeping bug in either place surfaces as a mismatch
instead of silently skewing experiment results.

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
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..core.mapping import CacheKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.manager import IBridgeManager
    from .runtime import AuditRuntime


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
    def check(self, event: str = "") -> None:
        """Run the continuous invariants (called after every mutation)."""
        self.checks += 1
        if self._conservation:
            dirty = self.manager.mapping.recount_dirty_bytes()
            self._check_dirty_ledger(event, dirty)
            self._check_dirty_counter(event, dirty)
        if self._coherence:
            self._check_coherence(event)

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

    def _check_coherence(self, event: str) -> None:
        mgr = self.manager
        entries = mgr.mapping.entries

        # Partition byte and return accounting vs the mapping table.
        by_kind: Dict[CacheKind, int] = {CacheKind.RANDOM: 0,
                                         CacheKind.FRAGMENT: 0}
        ret_by_kind: Dict[CacheKind, float] = {CacheKind.RANDOM: 0.0,
                                               CacheKind.FRAGMENT: 0.0}
        for e in entries:
            by_kind[e.kind] += e.nbytes
            ret_by_kind[e.kind] += e.ret
        for kind in (CacheKind.RANDOM, CacheKind.FRAGMENT):
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
            for kind in (CacheKind.RANDOM, CacheKind.FRAGMENT):
                cap = mgr.partition.class_capacity(kind)
                if mgr.partition.used(kind) > cap:
                    self._fail(
                        "class-capacity",
                        f"after {event or 'mutation'}: {kind.value} class "
                        f"holds {mgr.partition.used(kind)} bytes, share is "
                        f"{cap}", event=event, kind=kind.value)

        # The _by_lbn index mirrors the mapping table exactly.
        lbns = {e.ssd_lbn: e for e in entries}
        if set(mgr._by_lbn) != set(lbns):
            self._fail(
                "lbn-index",
                f"after {event or 'mutation'}: _by_lbn keys "
                f"{sorted(mgr._by_lbn)} != entry LBNs {sorted(lbns)}",
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
        from ..core.manager import TABLE_ENTRY_BYTES
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
        live_by_seg: Dict[int, int] = {}
        for _lbn, (seg_idx, nbytes) in log._extents.items():
            live_by_seg[seg_idx] = live_by_seg.get(seg_idx, 0) + nbytes
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
        ftl = getattr(self.manager.ssd_queue.device, "ftl", None)
        if ftl is None:
            return
        from ..errors import StorageError
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
