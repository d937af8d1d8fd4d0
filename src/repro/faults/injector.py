"""The fault injector: drives a :class:`FaultPlan` against a cluster.

One injector per run.  At installation it spawns one driver process per
plan event.  Each driver sleeps to its window start, applies the fault,
sleeps the window duration, and runs the revert:

======================  ==============================================
``device_slow``         ``latency_mult``/``bw_mult`` set on the real
                        disk or SSD; ``Device.serve`` scales its
                        timing, and the iBridge service model reads
                        the same multipliers off the disk it models, so
                        Eq. 1's T rises as the paper's measured EWMA
                        would.  Reset to 1.0 at window end.
``device_fail``         Device ``failed`` and its block queue paused
                        (in-flight dispatch completes; queued requests
                        wait); both cleared at window end.
``ssd_fail``            ``IBridgeManager.ssd_fail`` per manager on the
                        server (drain or forfeit the dirty log, then
                        degraded SSD-bypass mode); ``ssd_restore`` at
                        window end — never before the fail transition
                        finished, so a long drain defers the restore.
``net_delay``/``drop``  A :class:`~repro.net.NetFault` window on the
                        fabric; drop decisions draw from a
                        seed+plan-name RNG substream.
``server_crash``        ``DataServer.crash`` / ``restart``.
``gc_storm``            ``gc_storm_begin`` / ``gc_storm_end`` on one
                        drive or, with no server, the whole fleet.
======================  ==============================================

Every transition is appended to :attr:`records` (the injector's own
deterministic log, used by replay tests) and — when the run is audited —
emitted as ``fault_begin`` / ``fault_end`` trace events.  Fail-stop
kinds that legitimately stall block queues are flagged to the audit
runtime so the livelock watchdog stands down for the window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

from ..net import NetFault
from ..util.rng import rng_stream
from .plan import FaultEvent, FaultKind, FaultPlan, FaultRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pfs.cluster import Cluster
    from ..sim import Process

#: Kinds whose windows stop block-request completions by design (the
#: audit watchdog must not read the stall as a livelock).
_STALLING = frozenset({FaultKind.DEVICE_FAIL, FaultKind.SERVER_CRASH})

#: What applying a fault returns: the callable that reverts it, and the
#: processes the revert must wait for (only ``ssd_fail`` has any).
Applied = Tuple[Callable[[], None], Sequence["Process"]]


class FaultInjector:
    """Schedules and reverts the faults of one plan on one cluster."""

    def __init__(self, cluster: "Cluster", plan: FaultPlan) -> None:
        plan.validate()
        plan.check_targets(len(cluster.servers),
                           cluster.config.server.disks_per_server)
        self.cluster = cluster
        self.plan = plan
        self.env = cluster.env
        self.audit = cluster.audit
        #: Chronological fault transitions (replay-determinism log).
        self.records: List[FaultRecord] = []

    def install(self) -> "FaultInjector":
        """Start one driver per event (call once)."""
        # Driver creation order == plan order; the heap's sequence-number
        # tie-break then makes simultaneous windows apply in plan order.
        for idx, ev in enumerate(self.plan.events):
            self.env.process(self._drive(idx, ev),
                             name=f"fault:{idx}:{ev.kind.value}")
        return self

    def _drive(self, idx: int, ev: FaultEvent):
        env = self.env
        if ev.start > 0:
            yield env.timeout(ev.start)
        revert, waits = _APPLY[ev.kind](self, idx, ev)
        if ev.duration is None:
            return  # whole-run fault; never reverts
        yield env.timeout(ev.duration)
        if waits:
            # A graceful drain may outlast the window: the replacement
            # SSD is admitted only after the fail transition finished,
            # so the restore never races the forfeit/drain loop.
            yield env.all_of(waits)
        revert()
        self._record("end", ev, idx)

    def _record(self, phase: str, ev: FaultEvent, idx: int,
                **detail) -> None:
        self.records.append(FaultRecord(time=self.env.now, phase=phase,
                                        event=ev, detail=detail, index=idx))
        if self.audit is not None:
            note = (self.audit.fault_begin if phase == "begin"
                    else self.audit.fault_end)
            note(ev.kind.value, stalling=ev.kind in _STALLING,
                 server=ev.server, **detail)

    # ----------------------------------------------------------- replay
    def signature(self) -> tuple:
        """Hashable transition log for replay-determinism assertions."""
        return tuple(r.signature() for r in self.records)


# ---------------------------------------------------------- per-kind logic
def _queue(inj: FaultInjector, ev: FaultEvent):
    """The block queue in front of the device ``ev`` targets."""
    server = inj.cluster.servers[ev.server]
    if ev.device == "ssd":
        return server.ssd_queue
    return server.disks[ev.disk].queue


def _apply_slow(inj: FaultInjector, idx: int, ev: FaultEvent) -> Applied:
    device = _queue(inj, ev).device
    device.latency_mult = float(ev.latency_mult)
    device.bw_mult = float(ev.bw_mult)
    inj._record("begin", ev, idx, latency_mult=ev.latency_mult,
                bw_mult=ev.bw_mult, device=ev.device)

    def revert():
        device.latency_mult = device.bw_mult = 1.0

    return revert, ()


def _apply_fail(inj: FaultInjector, idx: int, ev: FaultEvent) -> Applied:
    queue = _queue(inj, ev)
    queue.device.failed = True
    queue.pause()
    inj._record("begin", ev, idx, queue=queue.name)

    def revert():
        queue.device.failed = False
        queue.resume()

    return revert, ()


def _apply_ssd_fail(inj: FaultInjector, idx: int, ev: FaultEvent) -> Applied:
    server = inj.cluster.servers[ev.server]
    managers = [u.ibridge for u in server.disks if u.ibridge is not None]
    dirty = sum(m.mapping.dirty_bytes for m in managers)
    inj._record("begin", ev, idx, policy=ev.policy, dirty_bytes=dirty)
    procs = [inj.env.process(m.ssd_fail(ev.policy),
                             name=f"ssd-fail:{ev.server}:{i}")
             for i, m in enumerate(managers)]

    def revert():
        for m in managers:
            m.ssd_restore()

    return revert, procs


def _apply_net(inj: FaultInjector, idx: int, ev: FaultEvent) -> Applied:
    cluster = inj.cluster
    endpoints = (None if ev.server is None
                 else {cluster.servers[ev.server].name})
    rng = None
    if ev.kind is FaultKind.NET_DROP:
        rng = rng_stream(cluster.config.seed,
                         f"fault:{inj.plan.name}:{idx}:drop")
    fault = NetFault(delay=ev.delay, drop_prob=ev.drop_prob,
                     endpoints=endpoints, rng=rng)
    cluster.network.add_fault(fault)
    inj._record("begin", ev, idx, delay=ev.delay, drop_prob=ev.drop_prob)
    return (lambda: cluster.network.remove_fault(fault)), ()


def _apply_crash(inj: FaultInjector, idx: int, ev: FaultEvent) -> Applied:
    server = inj.cluster.servers[ev.server]
    server.crash()
    inj._record("begin", ev, idx, epoch=server.epoch)
    return server.restart, ()


def _apply_gc_storm(inj: FaultInjector, idx: int, ev: FaultEvent) -> Applied:
    # ``server=None`` is the correlated multi-device form: every drive
    # in the fleet storms at once.  Storm state nests (a depth counter
    # on the drive), so overlapping windows compose.
    servers = inj.cluster.servers
    if ev.server is not None:
        servers = [servers[ev.server]]
    drives = [s.ssd for s in servers]
    for drive in drives:
        drive.gc_storm_begin()
    inj._record("begin", ev, idx, drives=len(drives))

    def revert():
        for drive in drives:
            drive.gc_storm_end()

    return revert, ()


_APPLY = {
    FaultKind.DEVICE_SLOW: _apply_slow,
    FaultKind.DEVICE_FAIL: _apply_fail,
    FaultKind.SSD_FAIL: _apply_ssd_fail,
    FaultKind.NET_DELAY: _apply_net,
    FaultKind.NET_DROP: _apply_net,
    FaultKind.SERVER_CRASH: _apply_crash,
    FaultKind.GC_STORM: _apply_gc_storm,
}
