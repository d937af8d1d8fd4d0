"""The per-server iBridge manager.

Sits between the PVFS2 job layer and the block queues of the server's
disk and SSD.  For every incoming sub-request it:

1. classifies it (fragment / regular random / large),
2. evaluates the return of SSD redirection (Eqs. 1–3) against the
   disk's tracked service-time average and the cluster-wide T table,
3. serves it from the SSD log (writes), the SSD cache (read hits), or
   the disk (everything else), keeping disk and SSD copies coherent,
4. runs the background machinery: read-miss admission copies when the
   SSD is idle, dirty-data writeback to the disk in long sorted runs
   when the disk is idle, and log-segment cleaning.

All byte movement is charged to the device queues; the manager never
moves real data (this is a timing simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..block.queue import BlockQueue
from ..config import ClusterConfig
from ..devices.base import Op
from ..devices.profiling import SeekProfile
from ..errors import StorageError
from ..localfs.store import LocalStore
from ..pfs.messages import SubRequest
from ..sim import Chain, Environment, Event, Store
from .logstore import LogStore
from .mapping import CacheEntry, CacheKind, MappingTable
from .partition import PartitionManager
from .service_model import DiskServiceModel, GlobalTTable, fragment_return

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..audit.runtime import AuditRuntime
    from ..obs.metrics import Counter, Histogram

#: Stream id used for background (writeback/fill/cleaning) disk and SSD
#: traffic, so CFQ sees the flusher as one sequential-friendly stream.
BACKGROUND_STREAM = -1

#: Bytes charged per dirty mapping-table entry persisted with a write
#: (the paper persists dirty table entries on the SSD immediately).
TABLE_ENTRY_BYTES = 512

#: A file range's device ``(lbn, size)`` ranges, as ``LocalStore`` maps it.
Ranges = List[Tuple[int, int]]


def _home_lbn(planned: Tuple[CacheEntry, Ranges]) -> int:
    """Sort key of a planned flush: its entry's disk home LBN."""
    return planned[1][0][0]


@dataclass
class IBridgeStats:
    """Counters the experiments report on."""

    sub_requests: int = 0
    ssd_redirected_writes: int = 0
    ssd_read_hits: int = 0
    disk_served: int = 0
    fragments_seen: int = 0
    randoms_seen: int = 0
    bytes_from_ssd: int = 0
    bytes_from_disk: int = 0
    #: Readahead-extension bytes the disk transferred beyond the payload
    #: (see ``_round_gap``).  Kept separate so ``ssd_fraction`` compares
    #: payload against payload.
    readahead_bytes: int = 0
    writeback_bytes: int = 0
    fill_bytes: int = 0
    rejected_admissions: int = 0
    negative_returns: int = 0
    #: Dirty payload bytes lost to SSD fail-stop (hard failure forfeits
    #: the newest copy; the disk keeps serving its stale-but-valid data).
    forfeited_bytes: int = 0
    #: SSD fail-stop windows this manager rode out in degraded mode.
    ssd_outages: int = 0

    @property
    def ssd_fraction(self) -> float:
        """Fraction of payload bytes served at the SSD."""
        total = self.bytes_from_ssd + self.bytes_from_disk
        return self.bytes_from_ssd / total if total else 0.0


class IBridgeManager:
    """Server-side iBridge logic for one data server."""

    def __init__(self, env: Environment, server_id: int, config: ClusterConfig,
                 hdd_queue: BlockQueue, ssd_queue: BlockQueue,
                 disk_store: LocalStore, profile: SeekProfile,
                 t_table: Optional[GlobalTTable] = None,
                 partition_bytes: Optional[int] = None,
                 log_base: int = 0,
                 audit: Optional["AuditRuntime"] = None) -> None:
        """One manager per disk.

        With multiple disks per server (the paper's §II extension), each
        disk gets its own manager sharing the server's SSD: pass each a
        ``partition_bytes`` slice of the SSD partition and a disjoint
        ``log_base`` so their log regions do not collide.
        """
        self.env = env
        self.server_id = server_id
        self.config = config
        self.ib = config.ibridge
        self.hdd_queue = hdd_queue
        self.ssd_queue = ssd_queue
        self.disk_store = disk_store
        self.t_table = t_table if t_table is not None else GlobalTTable()
        partition = (partition_bytes if partition_bytes is not None
                     else self.ib.ssd_partition)
        self.model = DiskServiceModel(
            profile,
            read_bw=config.hdd.seq_read_bw,
            write_bw=config.hdd.seq_write_bw,
            stripe_unit=config.stripe_unit,
            config=self.ib,
            disk=hdd_queue.device,
        )
        self.mapping = MappingTable()
        self.partition = PartitionManager(partition, self.ib)
        self._log: Optional[LogStore] = None
        if partition > 0:
            region = min(config.ssd.capacity - log_base,
                         max(2, partition * 2))
            # Segments must hold the largest admissible entry (data +
            # persisted table entry), and the region at least 2 segments.
            seg_floor = (max(self.ib.fragment_threshold,
                             self.ib.random_threshold) + TABLE_ENTRY_BYTES)
            seg = min(32 * 1024 * 1024, max(seg_floor, region // 8))
            if region >= 2 * seg:
                self._log = LogStore(base=log_base, region=region,
                                     segment_size=seg)
        self._by_lbn: Dict[int, CacheEntry] = {}
        self._fill_tasks: Store = Store(env)
        self.stats = IBridgeStats()
        #: False while the server's SSD is failed: the manager bypasses
        #: the SSD entirely (degraded mode) until :meth:`ssd_restore`.
        self.ssd_available = True
        # LogStore rebuild parameters for SSD replacement (ssd_restore).
        self._log_params = (None if self._log is None else
                            (self._log.base, self._log.region,
                             self._log.segment_size))
        #: Invariant auditor (None unless the run enables auditing).
        self.audit = audit.attach_manager(self) if audit is not None else None
        #: Observability tracer / metrics registry (wired by the
        #: cluster's ObsRuntime; None on untraced runs — every
        #: instrumented site below guards on that).
        self.obs = None
        self.metrics = None
        #: Registry instruments this manager feeds, looked up once per
        #: label set; ``MetricsRegistry.clear`` resets them in place, so
        #: a cached handle stays the registry's own instance.
        self._benefit_hists: Dict[Tuple[CacheKind, Op], Histogram] = {}
        self._admission_counters: Dict[Tuple[CacheKind, str], Counter] = {}
        self._shutdown = False
        _Writeback(self)
        env.process(self._fill_daemon(), name=f"ib{server_id}-fill")

    # =================================================== classification
    def _classify(self, sub: SubRequest) -> Optional[CacheKind]:
        """Which SSD-candidate class a sub-request falls in, if any."""
        if sub.is_fragment and sub.nbytes < self.ib.fragment_threshold:
            return CacheKind.FRAGMENT
        if sub.is_random and sub.nbytes < self.ib.random_threshold:
            return CacheKind.RANDOM
        return None

    def _return_value(self, sub: SubRequest, kind: CacheKind, op: Op,
                      lbn: int) -> float:
        """Eq. 1/3 return of serving ``sub`` (disk home ``lbn``) at the SSD."""
        base = self.model.base_return(op, lbn, sub.nbytes,
                                      self.hdd_queue.device.head)
        if kind is CacheKind.FRAGMENT:
            return fragment_return(
                base, self.server_id, self.model.t_value,
                sub.sibling_servers, len(sub.sibling_servers),
                self.t_table, enabled=self.ib.use_sibling_term)
        return base

    # =================================================== main entry point
    def handle(self, sub: SubRequest, span=None):
        """Serve one sub-request; generator completing when data moved.

        ``span`` is the server job span of a traced run; the manager
        opens its own child span carrying the admission decision
        (classification, Eq. 1/3 return, route taken) as attributes.
        """
        self.stats.sub_requests += 1
        if sub.is_fragment:
            self.stats.fragments_seen += 1
        if sub.is_random:
            self.stats.randoms_seen += 1
        obs = self.obs
        mspan = None
        if obs is not None and span is not None:
            mspan = obs.start(
                "ibridge.write" if sub.op is Op.WRITE else "ibridge.read",
                "server", span.trace_id, self.env.now, parent=span,
                attrs={"server": self.server_id, "fragment": sub.is_fragment,
                       "random": sub.is_random})
        if sub.op is Op.WRITE:
            yield from self._handle_write(sub, mspan)
        else:
            yield from self._handle_read(sub, mspan)
        if mspan is not None:
            obs.finish(mspan, self.env.now)

    # =================================================== write path
    def _handle_write(self, sub: SubRequest, span=None):
        if self.audit:
            self.audit.note_client_write(sub.nbytes)
        kind = self._classify(sub)
        ranges = None
        if kind is not None and self._log is not None and self.ssd_available:
            # Mapping allocates the write's disk home; a write that ends
            # up on the disk reuses these ranges (a store never remaps
            # an allocated byte).
            ranges = self.disk_store.ranges_for_write(
                sub.handle, sub.local_offset, sub.nbytes)
            ret = self._return_value(sub, kind, Op.WRITE, ranges[0][0])
            self._observe_benefit(kind, Op.WRITE, ret)
            if span is not None:
                span.annotate(kind=kind._value_, ret=ret)
            partition = self.partition
            if ret > 0 and partition.admissible(kind, sub.nbytes):
                # Eviction is a wait only when the write does not fit.
                ok = (partition.fits(kind, sub.nbytes)
                      or (yield from self._make_room(kind, sub.nbytes)))
                if ok:
                    yield from self._ssd_write(sub, kind, ret, ranges, span)
                    return
                self.stats.rejected_admissions += 1
            elif ret <= 0:
                self.stats.negative_returns += 1
        yield from self._disk_write(sub, ranges, span)

    def _observe_benefit(self, kind: CacheKind, op: Op, ret: float) -> None:
        """Feed an Eq. 1/3 return value into the metrics histogram."""
        metrics = self.metrics
        if metrics is not None:
            hist = self._benefit_hists.get((kind, op))
            if hist is None:
                from ..obs.metrics import BENEFIT_BUCKETS
                hist = self._benefit_hists[kind, op] = metrics.histogram(
                    "ibridge_benefit", BENEFIT_BUCKETS, server=self.server_id,
                    op=op.value, kind=kind.name.lower())
            hist.observe(ret)

    def _count_admission(self, kind: CacheKind, path: str) -> None:
        """Count one SSD admission (write redirect or read fill)."""
        metrics = self.metrics
        if metrics is not None:
            counter = self._admission_counters.get((kind, path))
            if counter is None:
                counter = self._admission_counters[kind, path] = \
                    metrics.counter("ibridge_admissions",
                                    server=self.server_id,
                                    kind=kind.name.lower(), path=path)
            counter.inc()

    def _ssd_write(self, sub: SubRequest, kind: CacheKind, ret: float,
                   ranges: Ranges, span=None):
        """Redirect a write into the SSD log."""
        # A write supersedes any cached data overlapping its range.  The
        # invalidation and the cleaning below are generators, built
        # only when they have work (an overlap, a short free list).
        overlaps = self.mapping.overlapping(sub.handle, sub.local_offset,
                                            sub.local_end)
        if overlaps:
            yield from self._invalidate_overlaps(overlaps, sub)
        if self._log.needs_cleaning(reserve=self.CLEAN_RESERVE):
            yield from self._clean_log_if_needed()
        # The invalidation/cleaning above yielded: concurrent admissions
        # may have refilled the class partition since ``_make_room``
        # said yes.  Re-check (and retry eviction once) before
        # committing, so the class can never over-commit its share.
        if not self.partition.fits(kind, sub.nbytes):
            ok = yield from self._make_room(kind, sub.nbytes)
            if not (ok and self.partition.fits(kind, sub.nbytes)):
                self.stats.rejected_admissions += 1
                yield from self._disk_write(sub, ranges, span)
                return
        # The mapping-table entry is persisted alongside the data, so the
        # log allocation includes it — keeping successive appends exactly
        # device-contiguous (zero setup cost on the SSD).
        payload = sub.nbytes + TABLE_ENTRY_BYTES
        if not self._log.can_append(payload):
            self.stats.rejected_admissions += 1
            yield from self._disk_write(sub, ranges, span)
            return
        lbn = self._log.append(payload)
        entry = CacheEntry(handle=sub.handle, start=sub.local_offset,
                           end=sub.local_end, ssd_lbn=lbn, kind=kind,
                           dirty=True, ret=ret, last_use=self.env.now)
        self.mapping.insert(entry)
        self.partition.add(entry)
        self._by_lbn[lbn] = entry
        if span is not None:
            span.annotate(route="ssd-log")
        req = self.ssd_queue.submit(Op.WRITE, lbn, payload, stream=sub.rank,
                                    obs_parent=span)
        self.model.observe_ssd()
        self.stats.ssd_redirected_writes += 1
        self.stats.bytes_from_ssd += sub.nbytes
        self._count_admission(kind, "write")
        if self.audit:
            self.audit.note_ssd_redirect(sub.nbytes)
            self.audit.check("ssd_write", entries=(entry,))
        yield req.done

    def _disk_write(self, sub: SubRequest, ranges: Optional[Ranges],
                    span=None):
        """Serve a write at the disk, keeping SSD cache coherent.  Its
        disk home is ``ranges`` if admission mapped it, else mapped here,
        after the invalidation, so holes keep their allocation order."""
        overlaps = self.mapping.overlapping(sub.handle, sub.local_offset,
                                            sub.local_end)
        if overlaps:
            yield from self._invalidate_overlaps(overlaps, sub)
        if ranges is None:
            ranges = self.disk_store.ranges_for_write(
                sub.handle, sub.local_offset, sub.nbytes)
        self.model.observe_disk(Op.WRITE, ranges[0][0], sub.nbytes,
                                self.hdd_queue.device.head)
        if span is not None:
            span.annotate(route="disk")
        reqs = [self.hdd_queue.submit(Op.WRITE, lbn, size, stream=sub.rank,
                                      obs_parent=span)
                for lbn, size in ranges]
        self.stats.disk_served += 1
        self.stats.bytes_from_disk += sub.nbytes
        if self.audit:
            self.audit.note_disk_write(sub.nbytes)
        yield self.env.all_of([r.done for r in reqs])

    # =================================================== read path
    def _round_gap(self, handle: int, gs: int, ge: int) -> tuple:
        """Extend a disk read over cached holes to stripe boundaries.

        Models kernel readahead: the page cache reads whole aligned
        chunks, so the disk stream stays sequential even though iBridge
        serves the authoritative fragment bytes from the SSD (the
        paper's Fig. 5 shows exactly this: 128/256-sector dispatches
        despite sub-stripe disk pieces).  Only applied when the
        extension is backed by allocated file space.
        """
        unit = self.config.stripe_unit
        rs = (gs // unit) * unit
        re_ = -(-ge // unit) * unit
        if (rs, re_) == (gs, ge):
            return gs, ge
        # Readahead only ramps up under concurrent streaming; when the
        # disk is latency-bound (shallow queue) the extra transfer would
        # lengthen the critical path instead of enabling merges.
        if self.hdd_queue.pending < 2:
            return gs, ge
        # The extension bytes must themselves be SSD-cached (they are the
        # redirected fragments) and the rounded range disk-allocated —
        # otherwise the disk would read data nobody holds.
        left_ok = rs == gs or self.mapping.is_fully_cached(handle, rs, gs)
        right_ok = re_ == ge or self.mapping.is_fully_cached(handle, ge, re_)
        if not (left_ok and right_ok):
            return gs, ge
        if self.disk_store.is_allocated(handle, rs, re_ - rs):
            return rs, re_
        return gs, ge

    def _handle_read(self, sub: SubRequest, span=None):
        start, end = sub.local_offset, sub.local_end
        pieces = self.mapping.pieces(sub.handle, start, end)
        gaps = self.mapping.gaps(sub.handle, start, end)
        pending = []
        ssd_bytes = 0
        for ps, pe, entry, delta in pieces:
            pending.append(self.ssd_queue.submit(
                Op.READ, entry.ssd_lbn + delta, pe - ps, stream=sub.rank,
                obs_parent=span))
            self.partition.touch(entry, self.env.now)
            ssd_bytes += pe - ps

        disk_bytes = 0      # physical bytes the disk transfers
        payload_bytes = 0   # bytes of that belonging to the request
        first_disk_lbn: Optional[int] = None
        for gs0, ge0 in gaps:
            gs, ge = self._round_gap(sub.handle, gs0, ge0)
            payload_bytes += ge0 - gs0
            for lbn, size in self.disk_store.ranges_for_read(sub.handle, gs,
                                                             ge - gs):
                if first_disk_lbn is None:
                    first_disk_lbn = lbn
                pending.append(self.hdd_queue.submit(Op.READ, lbn, size,
                                                     stream=sub.rank,
                                                     obs_parent=span))
                disk_bytes += size

        if disk_bytes:
            # The service model sees the full transfer (the disk really
            # moves the extension bytes); the payload stats do not.
            self.model.observe_disk(Op.READ, first_disk_lbn, disk_bytes,
                                    self.hdd_queue.device.head)
            self.stats.disk_served += 1
        if ssd_bytes:
            self.model.observe_ssd()
            self.stats.ssd_read_hits += 1
        self.stats.bytes_from_ssd += ssd_bytes
        self.stats.bytes_from_disk += payload_bytes
        self.stats.readahead_bytes += disk_bytes - payload_bytes
        if span is not None:
            span.annotate(route=("ssd" if not disk_bytes else
                                 "disk" if not ssd_bytes else "mixed"),
                          ssd_bytes=ssd_bytes, disk_bytes=disk_bytes)
        if self.audit:
            self.audit.note_read(sub.nbytes, ssd_bytes, payload_bytes,
                                 disk_bytes - payload_bytes)

        if pending:
            yield self.env.all_of([r.done for r in pending])

        # Pre-loading: a miss by a redirection candidate with a positive
        # return is copied into the SSD later, when the device is idle.
        if (disk_bytes and self.ib.admit_reads and self._log is not None
                and self.ssd_available):
            kind = self._classify(sub)
            if kind is not None and self.partition.admissible(kind, sub.nbytes):
                lbn = self.disk_store.ranges_for_read(
                    sub.handle, sub.local_offset, sub.nbytes)[0][0]
                ret = self._return_value(sub, kind, Op.READ, lbn)
                self._observe_benefit(kind, Op.READ, ret)
                if ret > 0:
                    self._fill_tasks.put((sub.handle, start, end, kind, ret))

    # =================================================== coherence helpers
    def _invalidate_overlaps(self, overlaps: List[CacheEntry],
                             sub: SubRequest):
        """Drop ``overlaps``, the cached entries the write ``sub``
        overlaps (``MappingTable.overlapping``).

        Dirty entries extending beyond the new write's range hold the
        only up-to-date copy of those extra bytes, so they are flushed
        to disk before being dropped.
        """
        for entry in overlaps:
            # Wait for the in-flight writeback to finish; it will leave
            # the entry clean.
            while entry.busy:
                yield self.env.timeout(self.ib.writeback_idle)
            # Every yield in this loop (this wait, an earlier entry's
            # wait or flush) lets a concurrent write or eviction drop
            # the entry first; it is then no longer ours to flush or drop.
            if entry not in self.mapping:
                continue
            if entry.dirty and (entry.start < sub.local_offset
                                or entry.end > sub.local_end):
                yield from self._flush_entry(entry)
                if entry not in self.mapping:
                    continue
            self._drop_entry(entry)

    def _ssd_trim(self, lbn: int, nbytes: int) -> None:
        """Tell the SSD's FTL (when modelled) that an extent died.

        Log-store invalidations free *logical* log space; without the
        trim the FTL would keep treating the dead extent's flash pages
        as valid and copy them around during garbage collection,
        inflating write amplification beyond what the log's own
        occupancy justifies.
        """
        self.ssd_queue.device.trim(lbn, nbytes)

    def _drop_entry(self, entry: CacheEntry) -> None:
        self.mapping.remove(entry)
        self.partition.drop(entry)
        self._log.invalidate(entry.ssd_lbn)
        self._ssd_trim(entry.ssd_lbn, entry.nbytes + TABLE_ENTRY_BYTES)
        self._by_lbn.pop(entry.ssd_lbn, None)
        if self.audit:
            if entry.dirty:
                # A still-dirty drop means a newer write superseded the
                # bytes (uncovered parts were flushed beforehand).
                self.audit.note_superseded(entry.nbytes)
            self.audit.check("drop", entries=(entry,))

    def _flush_entry(self, entry: CacheEntry, stream: int = BACKGROUND_STREAM):
        """Copy a dirty entry's bytes from the SSD log to its disk home."""
        if not entry.dirty or entry.forfeited:
            return
        entry.busy = True
        read = self.ssd_queue.submit(Op.READ, entry.ssd_lbn, entry.nbytes,
                                     stream=stream)
        yield read.done
        if entry.forfeited:
            # An SSD fail-stop forfeited this entry while its log read
            # was in flight; its bytes are already accounted as lost.
            entry.busy = False
            return
        ranges = self.disk_store.ranges_for_write(entry.handle, entry.start,
                                                  entry.nbytes)
        self.model.observe_disk(Op.WRITE, ranges[0][0], entry.nbytes,
                                self.hdd_queue.device.head)
        writes = [self.hdd_queue.submit(Op.WRITE, lbn, size, stream=stream)
                  for lbn, size in ranges]
        yield self.env.all_of([w.done for w in writes])
        entry.busy = False
        if entry.forfeited:
            return
        self.mapping.mark_clean(entry)
        self.stats.writeback_bytes += entry.nbytes
        if self.audit:
            self.audit.note_writeback(entry.nbytes)
            self.audit.check("writeback", entries=(entry,))

    # =================================================== space management
    def _make_room(self, kind: CacheKind, nbytes: int, max_attempts: int = 3):
        """Evict (flushing as needed) until ``nbytes`` fits; False if not.

        Flushing dirty victims yields to the simulation, so concurrent
        admissions may refill the partition while this runs.  The loop
        re-evaluates the fit after every eviction pass (no eviction
        candidates means it fits) and retries a bounded number of times
        rather than blindly reporting success — otherwise a class could
        over-commit its share under racing admissions.
        """
        for _ in range(max_attempts):
            try:
                victims = self.partition.eviction_candidates(kind, nbytes)
            except StorageError:
                return False
            if not victims:
                # It fits: a concurrent eviction freed the space already.
                return True
            dirty_victims = [v for v in victims if v.dirty]
            if dirty_victims:
                yield from self._flush_batch(self._flush_plan(dirty_victims))
            for victim in victims:
                if victim in self.mapping:
                    self._drop_entry(victim)
        return self.partition.fits(kind, nbytes)

    #: Whole free segments the cleaner keeps in reserve.  Cleaning at
    #: ``reserve=2`` starts while one free segment still remains, so a
    #: victim's live data always fits in the current segment plus (at
    #: most) one rotation — the cleaner can never strand itself with
    #: zero free segments mid-relocation.
    CLEAN_RESERVE = 2

    def _clean_log_if_needed(self):
        """Greedy segment cleaning to keep free log space available."""
        log = self._log
        while log.needs_cleaning(reserve=self.CLEAN_RESERVE):
            victim = log.pick_victim()
            if victim is None or victim.garbage <= 0:
                # No candidate, or the best candidate is fully live:
                # cleaning it would copy a whole segment to reclaim
                # nothing — pure churn that can livelock the loop.
                return
            for lbn, size in log.live_extents_in(victim):
                read = self.ssd_queue.submit(Op.READ, lbn, size,
                                             stream=BACKGROUND_STREAM)
                yield read.done
                if not log.is_live(lbn):
                    continue  # dropped by an overwrite during the read
                new_lbn = log.relocate(lbn)
                self._ssd_trim(lbn, size)
                # Repoint before the copy is written, so an overwrite
                # that drops the entry meanwhile invalidates the new
                # extent rather than the relocated-away old one.
                entry = self._by_lbn.pop(lbn, None)
                if entry is not None:
                    entry.ssd_lbn = new_lbn
                    self._by_lbn[new_lbn] = entry
                write = self.ssd_queue.submit(Op.WRITE, new_lbn, size,
                                              stream=BACKGROUND_STREAM)
                # Checked before yielding, like every other site, so no
                # other check sees the relocation before its own does.
                if self.audit:
                    self.audit.check(
                        "clean", entries=() if entry is None else (entry,),
                        moved=(lbn, new_lbn))
                yield write.done
            log.release_victim(victim)
            if self.audit:
                self.audit.check("release", segment=victim)

    # =================================================== background daemons
    def _flush_plan(self, entries: List[CacheEntry]) -> List[Tuple[CacheEntry, Ranges]]:
        """The flushable ``entries`` (dirty, idle) with their disk ranges.

        Computed once per flush: a busy entry is never trimmed, and its
        disk home was allocated when it was admitted, so the ranges
        cannot change before the flush writes them.
        """
        store = self.disk_store
        return [(e, store.ranges_for_write(e.handle, e.start, e.nbytes))
                for e in entries if e.dirty and not e.busy]

    def _flush_some(self, dirty: List[CacheEntry]):
        """Flush up to ``writeback_batch`` bytes, sorted by disk home LBN.

        Entries larger than the *remaining* batch budget are skipped —
        not a stop condition: an oversized entry early in LBN order must
        not block every later entry, or ``flush_all`` livelocks.  When
        nothing fits the budget at all, the smallest flushable entry is
        written alone so each pass is guaranteed forward progress.

        Returns the batch's flush generator, so no frame keeps the
        plan's ranges alive while it runs.
        """
        plan = self._flush_plan(dirty)
        batch = []
        budget = self.ib.writeback_batch
        for entry, ranges in sorted(plan, key=_home_lbn):
            if entry.nbytes > budget:
                continue
            batch.append((entry, ranges))
            budget -= entry.nbytes
        if not batch and plan:
            batch = [min(plan, key=lambda p: p[0].nbytes)]
        return self._flush_batch(batch)

    def _flush_batch(self, batch: List[Tuple[CacheEntry, Ranges]]):
        """Pipelined flush of exactly ``batch``, a :meth:`_flush_plan`
        made with no yield since."""
        if not batch:
            return
        batch = sorted(batch, key=_home_lbn)
        entries = [entry for entry, _ranges in batch]
        # Pipeline the whole batch: read everything from the SSD log,
        # then submit all disk writes together so the elevator sees one
        # LBN-sorted burst and dispatches it as a (near-)sequential
        # sweep — "as many long sequential accesses as possible".
        for entry in entries:
            entry.busy = True
        reads = [self.ssd_queue.submit(Op.READ, e.ssd_lbn, e.nbytes,
                                       stream=BACKGROUND_STREAM)
                 for e in entries]
        yield self.env.all_of([r.done for r in reads])
        writes = [self.hdd_queue.submit(Op.WRITE, lbn, size,
                                        stream=BACKGROUND_STREAM)
                  for _entry, ranges in batch for lbn, size in ranges]
        # Submitted: the ranges need not outlive the writes' wait (an
        # end-of-run flush holds every server's batch at once).
        del batch
        if writes:
            self.model.observe_disk(Op.WRITE, writes[0].lbn,
                                    sum(w.nbytes for w in writes),
                                    self.hdd_queue.device.head)
            yield self.env.all_of([w.done for w in writes])
        for entry in entries:
            entry.busy = False
            if entry.forfeited:
                # Forfeited mid-flight by an SSD fail-stop: the bytes
                # were already accounted as lost, not written back.
                continue
            self.mapping.mark_clean(entry)
            self.stats.writeback_bytes += entry.nbytes
            if self.audit:
                self.audit.note_writeback(entry.nbytes)
        if self.audit:
            self.audit.check("writeback_batch", entries=entries)

    def flush_all(self):
        """Synchronously flush every dirty entry (end-of-run accounting).

        The paper includes "the time for writing dirty data back to the
        hard disk after program termination" in all measurements.
        """
        while True:
            dirty = self.mapping.dirty_entries()
            if not dirty:
                busy = [e for e in self.mapping.entries if e.busy]
                if not busy:
                    return
                yield self.env.timeout(self.ib.writeback_idle)
                continue
            yield from self._flush_some(dirty)

    def _fill_daemon(self):
        """Copy read-miss candidate data into the SSD when idle."""
        env = self.env
        while True:
            task = yield self._fill_tasks.get()
            if not self.ssd_available:
                continue  # queued before an SSD fail-stop; drop it
            handle, start, end, kind, ret = task
            # Wait for a quiet period on the SSD.
            while self.ssd_queue.idle_duration() < self.ib.writeback_idle:
                yield env.timeout(self.ib.writeback_idle)
            if self.mapping.coverage(handle, start, end) > 0:
                continue  # raced with another admission
            if not self.partition.admissible(kind, end - start):
                continue
            ok = yield from self._make_room(kind, end - start)
            if not ok:
                self.stats.rejected_admissions += 1
                continue
            yield from self._clean_log_if_needed()
            # Everything above yielded; re-run every admission check now
            # so the check-and-insert below is one atomic step.  Without
            # this, a foreground write admitted during the eviction
            # flush could cover the same range (double-caching) or
            # refill the class partition (over-commit) — and an SSD
            # fail-stop opening during the idle wait could leave this
            # fill appending into a log that ssd_restore is about to
            # replace, stranding a mapping entry with no live extent.
            if (not self.ssd_available
                    or self.mapping.coverage(handle, start, end) > 0
                    or not self.partition.fits(kind, end - start)):
                self.stats.rejected_admissions += 1
                continue
            # Fills persist a mapping-table entry with the data exactly
            # like redirected writes; charging it here keeps log
            # occupancy (and cleaning thresholds) consistent between
            # the two admission paths.
            payload = (end - start) + TABLE_ENTRY_BYTES
            if not self._log.can_append(payload):
                self.stats.rejected_admissions += 1
                continue
            lbn = self._log.append(payload)
            entry = CacheEntry(handle=handle, start=start, end=end,
                               ssd_lbn=lbn, kind=kind, dirty=False, ret=ret,
                               last_use=env.now)
            self.mapping.insert(entry)
            self.partition.add(entry)
            self._by_lbn[lbn] = entry
            self.stats.fill_bytes += end - start
            self._count_admission(kind, "fill")
            if self.audit:
                self.audit.note_fill(end - start)
                self.audit.check("fill", entries=(entry,))
            write = self.ssd_queue.submit(Op.WRITE, lbn, payload,
                                          stream=BACKGROUND_STREAM)
            yield write.done

    # =================================================== fault handling
    def ssd_fail(self, policy: str = "forfeit"):
        """Take the SSD out of service (generator; fail-stop entry point).

        With ``policy="drain"`` the manager first writes all dirty data
        back to the disk (a graceful decommission / predicted-failure
        pull); with ``policy="forfeit"`` (hard failure) dirty bytes are
        lost — the disk keeps serving its stale-but-consistent copy and
        the loss is accounted in ``stats.forfeited_bytes`` and the
        auditor's forfeited ledger.  Either way the manager then runs in
        degraded mode: every request goes to the disk until
        :meth:`ssd_restore`.
        """
        if not self.ssd_available or self._log is None:
            return
        self.ssd_available = False
        self.stats.ssd_outages += 1
        if policy == "drain":
            yield from self.flush_all()
        forfeited = 0
        for entry in list(self.mapping.entries):
            entry.forfeited = True
            if entry.dirty:
                forfeited += entry.nbytes
                self.mapping.mark_clean(entry)
            self.mapping.remove(entry)
            self.partition.drop(entry)
            self._log.invalidate(entry.ssd_lbn)
            self._ssd_trim(entry.ssd_lbn, entry.nbytes + TABLE_ENTRY_BYTES)
            self._by_lbn.pop(entry.ssd_lbn, None)
        self.stats.forfeited_bytes += forfeited
        if self.audit:
            if forfeited:
                self.audit.note_forfeited(forfeited)
            self.audit.check("ssd_fail")

    def ssd_restore(self) -> None:
        """Return a (replacement) SSD to service after :meth:`ssd_fail`.

        The log is rebuilt empty: the replacement device holds none of
        the old cached data, so the manager re-learns its working set.
        """
        if self.ssd_available:
            return
        if self._log_params is not None:
            base, region, seg = self._log_params
            self._log = LogStore(base=base, region=region, segment_size=seg)
        # A replacement drive arrives factory-fresh: its FTL holds no
        # valid pages from the failed device.  (Idempotent when several
        # managers share the server's SSD.)
        self.ssd_queue.device.ftl_reset()
        self.ssd_available = True
        if self.audit:
            self.audit.check("ssd_restore")

    def shutdown(self) -> None:
        """Stop background daemons at the next poll (end of simulation)."""
        self._shutdown = True


class _Writeback(Chain):
    """The writeback daemon, a chain polling on a bare timer: flush
    dirty data to disk during quiet device periods, in long sorted runs
    (the paper's idle-time writeback thread), once one writeback batch
    of dirty data has accumulated, so each pass is one LBN-sorted sweep
    rather than small repositioned writes scattered through foreground
    traffic."""

    __slots__ = ("manager", "poll")

    def __init__(self, manager: IBridgeManager) -> None:
        self.env = manager.env
        self.manager = manager
        self.poll = max(manager.ib.writeback_idle, 1e-4)
        self._start(self._sleep)

    def _sleep(self, _event) -> None:
        self._after(self.poll, self._check)

    def _check(self, _event: Event) -> None:
        manager = self.manager
        if manager._shutdown:
            # An undetached process's completion fires with no waiters.
            self.env.event().succeed()
            return
        ib = manager.ib
        if (manager.hdd_queue.idle_duration() < ib.writeback_idle
                or manager.mapping.dirty_bytes < ib.writeback_batch):
            self._after(self.poll, self._check)
            return
        self._yield_from(manager._flush_some(manager.mapping.dirty_entries()),
                         self._sleep)
