"""The fault injector: drives a :class:`FaultPlan` against a cluster.

One injector per run.  At installation it wraps every device a plan
event targets in a :class:`~repro.faults.device.FaultableDevice` (a
timing-transparent proxy, so untargeted behaviour is bit-identical) and
spawns one driver process per event.  Each driver sleeps to its window
start, applies the fault, sleeps the window duration, and runs the
recovery:

======================  ==============================================
``device_slow``         Wrapper multipliers on + the iBridge service
                        model degraded to match (Eq. 1 averages
                        *measured* times in the paper; our samples are
                        profile estimates, so the degradation must be
                        mirrored for T to rise).  Both cleared at end.
``device_fail``         Block queue paused (in-flight dispatch
                        completes; queued requests wait); resumed at
                        window end.
``ssd_fail``            ``IBridgeManager.ssd_fail`` per manager on the
                        server (drain or forfeit the dirty log, then
                        degraded SSD-bypass mode); ``ssd_restore`` at
                        window end — never before the fail transition
                        finished, so a long drain defers the restore.
``net_delay``/``drop``  A :class:`~repro.net.NetFault` window on the
                        fabric; drop decisions draw from a
                        seed+plan-name RNG substream.
``server_crash``        ``DataServer.crash`` / ``restart``.
======================  ==============================================

Every transition is appended to :attr:`records` (the injector's own
deterministic log, used by replay tests) and — when the run is audited —
emitted as ``fault_begin`` / ``fault_end`` trace events.  Fail-stop
kinds that legitimately stall block queues are flagged to the audit
runtime so the livelock watchdog stands down for the window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..net import NetFault
from ..util.rng import rng_stream
from .device import FaultableDevice, faultable
from .plan import FaultEvent, FaultKind, FaultPlan, FaultRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..audit.runtime import AuditRuntime
    from ..pfs.cluster import Cluster

#: Kinds whose windows stop block-request completions by design (the
#: audit watchdog must not read the stall as a livelock).
_STALLING = frozenset({FaultKind.DEVICE_FAIL, FaultKind.SERVER_CRASH})

class FaultInjector:
    """Schedules and reverts the faults of one plan on one cluster."""

    def __init__(self, cluster: "Cluster", plan: FaultPlan,
                 audit: Optional["AuditRuntime"] = None) -> None:
        plan.validate()
        self.cluster = cluster
        self.plan = plan
        self.env = cluster.env
        self.audit = audit if audit is not None else cluster.audit
        #: Chronological fault transitions (replay-determinism log).
        self.records: List[FaultRecord] = []
        #: Currently active fault windows.
        self.active = 0
        self._installed = False
        self._check_targets()

    # --------------------------------------------------------- validation
    def _check_targets(self) -> None:
        from ..errors import FaultError
        nservers = len(self.cluster.servers)
        for ev in self.plan.events:
            if ev.server is not None and not 0 <= ev.server < nservers:
                raise FaultError(
                    f"{ev.kind.value} targets server {ev.server}; cluster "
                    f"has {nservers}")
            if ev.kind in (FaultKind.DEVICE_SLOW, FaultKind.DEVICE_FAIL):
                server = self.cluster.servers[ev.server]
                if ev.device == "hdd":
                    ndisks = len(server.disks)
                    if ev.disk >= ndisks:
                        raise FaultError(
                            f"{ev.kind.value} targets disk {ev.disk}; server "
                            f"{ev.server} has {ndisks}")

    # ------------------------------------------------------- installation
    def install(self) -> "FaultInjector":
        """Wrap targeted devices and start one driver per event."""
        if self._installed:
            return self
        self._installed = True
        for ev in self.plan.events:
            if ev.kind in (FaultKind.DEVICE_SLOW, FaultKind.DEVICE_FAIL):
                self._wrap(ev)
        # Driver creation order == plan order; the heap's sequence-number
        # tie-break then makes simultaneous windows apply in plan order.
        for idx, ev in enumerate(self.plan.events):
            self.env.process(self._drive(idx, ev),
                             name=f"fault:{idx}:{ev.kind.value}")
        return self

    def _wrap(self, ev: FaultEvent) -> FaultableDevice:
        """Swap the targeted device for its fault wrapper (idempotent)."""
        server = self.cluster.servers[ev.server]
        if ev.device == "ssd" or ev.kind is FaultKind.SSD_FAIL:
            wrapper = faultable(server.ssd_queue.device)
            server.ssd = wrapper
            server.ssd_queue.device = wrapper
            return wrapper
        unit = server.disks[ev.disk]
        wrapper = faultable(unit.queue.device)
        unit.hdd = wrapper
        unit.queue.device = wrapper
        return wrapper

    # ------------------------------------------------------------ driving
    def _drive(self, idx: int, ev: FaultEvent):
        env = self.env
        if ev.start > 0:
            yield env.timeout(ev.start)
        cleanup = yield from self._begin(idx, ev)
        if ev.duration is None:
            return  # whole-run fault; never reverts
        yield env.timeout(ev.duration)
        if cleanup is not None:
            yield from cleanup()
        self._record("end", ev, idx)

    def _record(self, phase: str, ev: FaultEvent, idx: int,
                **detail) -> None:
        self.records.append(FaultRecord(time=self.env.now, phase=phase,
                                        event=ev, detail=detail, index=idx))
        if phase == "begin":
            self.active += 1
        else:
            self.active = max(0, self.active - 1)
        if self.audit is not None:
            note = (self.audit.fault_begin if phase == "begin"
                    else self.audit.fault_end)
            note(ev.kind.value, stalling=ev.kind in _STALLING,
                 server=ev.server, **detail)

    def _begin(self, idx: int, ev: FaultEvent):
        """Apply the fault; returns the cleanup generator-factory."""
        kind = ev.kind
        if kind is FaultKind.DEVICE_SLOW:
            return self._begin_slow(ev, idx)
        if kind is FaultKind.DEVICE_FAIL:
            return self._begin_fail(ev, idx)
        if kind is FaultKind.SSD_FAIL:
            return (yield from self._begin_ssd_fail(ev, idx))
        if kind in (FaultKind.NET_DELAY, FaultKind.NET_DROP):
            return self._begin_net(idx, ev)
        if kind is FaultKind.SERVER_CRASH:
            return self._begin_crash(ev, idx)
        if kind is FaultKind.GC_STORM:
            return self._begin_gc_storm(ev, idx)
        raise AssertionError(f"unhandled fault kind {kind!r}")  # pragma: no cover
        yield  # pragma: no cover - makes _begin a generator

    # ------------------------------------------------------ per-kind logic
    def _managers(self, server_id: int):
        server = self.cluster.servers[server_id]
        return [u.ibridge for u in server.disks if u.ibridge is not None]

    def _begin_slow(self, ev: FaultEvent, idx: int):
        server = self.cluster.servers[ev.server]
        if ev.device == "ssd":
            wrapper: FaultableDevice = server.ssd_queue.device
            models = []  # the service model tracks the disk, not the SSD
        else:
            unit = server.disks[ev.disk]
            wrapper = unit.queue.device
            models = ([unit.ibridge.model] if unit.ibridge is not None
                      else [])
        wrapper.set_slowdown(ev.latency_mult, ev.bw_mult)
        for model in models:
            model.set_degradation(ev.latency_mult, ev.bw_mult)
        self._record("begin", ev, idx, latency_mult=ev.latency_mult,
                     bw_mult=ev.bw_mult, device=ev.device)

        def cleanup():
            wrapper.clear_slowdown()
            for model in models:
                model.clear_degradation()
            return
            yield  # pragma: no cover - generator form for _drive

        return cleanup

    def _begin_fail(self, ev: FaultEvent, idx: int):
        server = self.cluster.servers[ev.server]
        if ev.device == "ssd":
            queue = server.ssd_queue
        else:
            queue = server.disks[ev.disk].queue
        queue.device.fail_stop()
        queue.pause()
        self._record("begin", ev, idx, queue=queue.name)

        def cleanup():
            queue.device.recover()
            queue.resume()
            return
            yield  # pragma: no cover

        return cleanup

    def _begin_ssd_fail(self, ev: FaultEvent, idx: int):
        managers = self._managers(ev.server)
        dirty = sum(m.mapping.dirty_bytes for m in managers)
        self._record("begin", ev, idx, policy=ev.policy, dirty_bytes=dirty)
        procs = [self.env.process(m.ssd_fail(ev.policy),
                                  name=f"ssd-fail:{ev.server}:{i}")
                 for i, m in enumerate(managers)]

        def cleanup():
            # A graceful drain may outlast the window: the replacement
            # SSD is admitted only after the fail transition finished,
            # so the restore never races the forfeit/drain loop.
            if procs:
                yield self.env.all_of(procs)
            for m in managers:
                m.ssd_restore()

        return cleanup
        yield  # pragma: no cover - generator form for _begin

    def _begin_net(self, idx: int, ev: FaultEvent):
        endpoints = (None if ev.server is None
                     else {self.cluster.servers[ev.server].name})
        rng = None
        if ev.kind is FaultKind.NET_DROP:
            rng = rng_stream(self.cluster.config.seed,
                             f"fault:{self.plan.name}:{idx}:drop")
        fault = NetFault(delay=ev.delay, drop_prob=ev.drop_prob,
                         endpoints=endpoints, rng=rng)
        self.cluster.network.add_fault(fault)
        self._record("begin", ev, idx, delay=ev.delay,
                     drop_prob=ev.drop_prob)

        def cleanup():
            self.cluster.network.remove_fault(fault)
            return
            yield  # pragma: no cover

        return cleanup

    def _begin_gc_storm(self, ev: FaultEvent, idx: int):
        # ``server=None`` is the correlated multi-device form: every
        # drive in the fleet storms at once.  Storm state nests (a depth
        # counter on the drive), so overlapping windows compose.
        if ev.server is None:
            servers = self.cluster.servers
        else:
            servers = [self.cluster.servers[ev.server]]
        drives = [s.ssd for s in servers]
        for drive in drives:
            drive.gc_storm_begin()
        self._record("begin", ev, idx, drives=len(drives))

        def cleanup():
            for drive in drives:
                drive.gc_storm_end()
            return
            yield  # pragma: no cover

        return cleanup

    def _begin_crash(self, ev: FaultEvent, idx: int):
        server = self.cluster.servers[ev.server]
        server.crash()
        self._record("begin", ev, idx, epoch=server.epoch)

        def cleanup():
            server.restart()
            return
            yield  # pragma: no cover

        return cleanup

    # ----------------------------------------------------------- replay
    def signature(self) -> tuple:
        """Hashable transition log for replay-determinism assertions."""
        return tuple(r.signature() for r in self.records)
