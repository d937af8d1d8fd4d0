"""The PVFS2-like data server.

Each data server owns one or more disks (CFQ) and one SSD (Noop), a
local extent store per disk, and — when enabled — one iBridge manager
per disk (the paper's stated multi-disk extension: the managers share
the server's SSD, each with a slice of the partition and a disjoint log
region).  Incoming sub-requests become I/O jobs; a bounded pool of job
slots models the server's Trove I/O concurrency.  Without iBridge the
server simply maps the sub-request onto its primary store and issues
the block I/Os.

File handles are assigned to disks round-robin (``handle % ndisks``),
matching how a multi-volume Trove deployment places bstreams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..audit import AuditRuntime
from ..block import BlockQueue, BlockTracer, make_scheduler
from ..config import ClusterConfig
from ..core.manager import IBridgeManager
from ..core.service_model import GlobalTTable
from ..devices import HardDisk, Op, SolidStateDrive
from ..devices.profiling import SeekProfile
from ..localfs import LocalStore
from ..sim import Environment, Event, Resource
from .messages import SubRequest


@dataclass
class ServerStats:
    """Per-server job counters."""

    jobs: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


@dataclass
class DiskUnit:
    """One disk with its queue, store, tracer and (optional) manager."""

    hdd: HardDisk
    queue: BlockQueue
    store: LocalStore
    tracer: BlockTracer
    ibridge: Optional[IBridgeManager]


class DataServer:
    """One data server node."""

    def __init__(self, env: Environment, server_id: int, config: ClusterConfig,
                 profile: SeekProfile, t_table: Optional[GlobalTTable] = None,
                 trace_disk: bool = False,
                 audit: Optional[AuditRuntime] = None) -> None:
        self.env = env
        self.id = server_id
        self.config = config
        self.name = f"ds{server_id}"

        # Auditing: use the cluster's shared runtime when given one,
        # else (standalone servers in unit tests) own a private one.
        if audit is None and config.audit.enabled:
            audit = AuditRuntime(env, config.audit)
        self.audit = audit
        #: Observability tracer (:class:`repro.obs.span.Tracer`); wired
        #: by the cluster's ObsRuntime, None on untraced runs.
        self.obs = None

        self.ssd = SolidStateDrive(config.ssd, seed=config.seed,
                                   name=f"{self.name}-ssd")
        self.ssd_queue = BlockQueue(env, self.ssd,
                                    make_scheduler(config.ssd_scheduler),
                                    name=f"{self.name}-ssd")
        if self.audit is not None:
            self.audit.watch_queue(self.ssd_queue)
        # SSD-resident file store (used when primary_store == "ssd");
        # reserve the iBridge log region(s) when iBridge is enabled.
        reserve = config.ibridge.ssd_partition * 2 if config.ibridge.enabled else 0
        reserve = min(reserve, self.ssd.capacity // 2)
        self.ssd_store = LocalStore(self.ssd.capacity, reserve=reserve)

        ndisks = config.server.disks_per_server
        shared_table = t_table if t_table is not None else GlobalTTable()
        self._t_table = shared_table
        self.disks: List[DiskUnit] = []
        for d in range(ndisks):
            hdd = HardDisk(config.hdd)
            tracer = BlockTracer(enabled=trace_disk)
            queue = BlockQueue(env, hdd, make_scheduler(config.hdd_scheduler),
                               tracer=tracer, name=f"{self.name}-hdd{d}")
            if self.audit is not None:
                self.audit.watch_queue(queue)
            store = LocalStore(hdd.capacity)
            manager = None
            if config.ibridge.enabled:
                partition_slice = config.ibridge.ssd_partition // ndisks
                region_stride = max(2, partition_slice * 2)
                manager = IBridgeManager(
                    env, server_id, config, queue, self.ssd_queue, store,
                    profile, t_table=shared_table,
                    partition_bytes=partition_slice,
                    log_base=d * region_stride,
                    audit=self.audit)
            self.disks.append(DiskUnit(hdd=hdd, queue=queue, store=store,
                                       tracer=tracer, ibridge=manager))

        self._slots = Resource(env, capacity=config.server.io_depth)
        self.stats = ServerStats()
        #: Crash-fault state (repro.faults): while crashed the server
        #: accepts no jobs and sends no replies; the epoch distinguishes
        #: pre-crash jobs whose replies must be lost after a restart.
        self.crashed = False
        self.epoch = 0
        self.crashes = 0

    # --------------------------------------------------- single-disk views
    @property
    def hdd(self) -> HardDisk:
        return self.disks[0].hdd

    @property
    def hdd_queue(self) -> BlockQueue:
        return self.disks[0].queue

    @property
    def disk_store(self) -> LocalStore:
        return self.disks[0].store

    @property
    def disk_tracer(self) -> BlockTracer:
        return self.disks[0].tracer

    @property
    def ibridge(self) -> Optional[IBridgeManager]:
        return self.disks[0].ibridge

    # ------------------------------------------------------------- layout
    def _disk_of(self, handle: int) -> DiskUnit:
        return self.disks[handle % len(self.disks)]

    def primary_store_for(self, handle: int) -> LocalStore:
        if self.config.primary_store == "ssd":
            return self.ssd_store
        return self._disk_of(handle).store

    def primary_queue_for(self, handle: int) -> BlockQueue:
        if self.config.primary_store == "ssd":
            return self.ssd_queue
        return self._disk_of(handle).queue

    # Back-compat aliases used by single-disk code paths.
    @property
    def primary_store(self) -> LocalStore:
        if self.config.primary_store == "ssd":
            return self.ssd_store
        return self.disk_store

    @property
    def primary_queue(self) -> BlockQueue:
        if self.config.primary_store == "ssd":
            return self.ssd_queue
        return self.hdd_queue

    def preallocate(self, handle: int, nbytes: int) -> None:
        """Lay out this server's share of a file contiguously."""
        if nbytes > 0:
            self.primary_store_for(handle).preallocate(handle, nbytes)

    # ------------------------------------------------------------- serving
    def submit(self, sub: SubRequest) -> Event:
        """Accept a sub-request; the event fires when it is served.

        A crashed server accepts nothing: the returned event never
        fires, and the client's timeout/retry path recovers.
        """
        done = self.env.event()
        if self.crashed:
            return done
        obs = self.obs
        span = None
        if obs is not None and sub.span is not None:
            span = obs.start(f"{self.name}.job", "server", sub.span.trace_id,
                             self.env.now, parent=sub.span, server=self.id)
        self.env.spawn(self._job(sub, done, self.epoch, span),
                       name=f"{self.name}-job")
        return done

    def _job(self, sub: SubRequest, done: Event, epoch: int, span=None):
        env = self.env
        obs = self.obs
        with self._slots.request() as slot:
            if span is not None:
                # Time spent waiting for a Trove I/O slot is queueing,
                # not service — give it its own span.
                wait = obs.start("slot.wait", "queue", span.trace_id,
                                 env.now, parent=span)
                yield slot
                obs.finish(wait, env.now)
            else:
                yield slot
            yield env.timeout(self.config.server.request_overhead)
            self.stats.jobs += 1
            if sub.op is Op.WRITE:
                self.stats.bytes_written += sub.nbytes
            else:
                self.stats.bytes_read += sub.nbytes
            unit = self._disk_of(sub.handle)
            if unit.ibridge is not None and self.config.primary_store == "hdd":
                yield from unit.ibridge.handle(sub, span)
            else:
                yield from self._stock_io(sub, span)
        if span is not None:
            obs.finish(span, env.now)
        if self.crashed or self.epoch != epoch:
            # The server crashed while this job was in flight: whatever
            # the devices completed stays done, but the reply is lost.
            # The client retries against the restarted server.
            return
        done.succeed(sub)

    # ------------------------------------------------------------- faults
    def crash(self) -> None:
        """Fail-stop the whole server (devices pause, replies are lost)."""
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        self.epoch += 1
        for unit in self.disks:
            unit.queue.pause()
        self.ssd_queue.pause()

    def restart(self) -> None:
        """Bring the server back after :meth:`crash`.

        In-memory PFS state survives because the interesting recovery
        state is on stable storage already: the iBridge mapping table is
        persisted on the SSD alongside every dirty entry (see
        ``TABLE_ENTRY_BYTES``), so the restarted server re-reads it and
        resumes with its dirty log intact — the paper's crash-recovery
        story for redirected writes.
        """
        if not self.crashed:
            return
        self.crashed = False
        for unit in self.disks:
            unit.queue.resume()
        self.ssd_queue.resume()

    def _stock_io(self, sub: SubRequest, span=None):
        """Serve directly from the primary store (no iBridge)."""
        store = self.primary_store_for(sub.handle)
        queue = self.primary_queue_for(sub.handle)
        if sub.op is Op.WRITE:
            ranges = store.ranges_for_write(sub.handle, sub.local_offset,
                                            sub.nbytes)
        else:
            ranges = store.ranges_for_read(sub.handle, sub.local_offset,
                                           sub.nbytes)
        reqs = [queue.submit(sub.op, lbn, size, stream=sub.rank,
                             obs_parent=span)
                for lbn, size in ranges]
        yield self.env.all_of([r.done for r in reqs])

    # ------------------------------------------------------------- drains
    def drain(self):
        """Generator: wait until all device queues are quiescent and all
        dirty iBridge data has reached the disks."""
        for unit in self.disks:
            yield unit.queue.quiesce()
        yield self.ssd_queue.quiesce()
        for unit in self.disks:
            if unit.ibridge is not None:
                yield from unit.ibridge.flush_all()
                yield unit.queue.quiesce()

    @property
    def t_value(self) -> float:
        """The server's reported service-time average: the *slowest*
        disk's T (the disk that would gate a striped request)."""
        managers = [u.ibridge for u in self.disks if u.ibridge is not None]
        if not managers:
            return 0.0
        return max(m.model.t_value for m in managers)
