"""The device queue runner: glue between a scheduler and a device model.

One :class:`BlockQueue` per physical device.  Submitted requests enter
the scheduler; a single runner (a callback chain) repeatedly asks the
scheduler for the next dispatch, charges the device model for it,
and completes the member requests.  The
runner honours CFQ idle hints (wait briefly for an anticipated request)
and exposes idle state so iBridge's writeback daemon can run "during
quiet I/O-device periods" as the paper specifies.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..config import SchedulerConfig
from ..devices.base import Device, Op
from ..errors import StorageError
from ..sim import Environment, Event
from ..sim.core import _schedule
from .cfq import CFQScheduler
from .request import BlockRequest, Dispatch
from .scheduler import DeadlineScheduler, NoopScheduler, Scheduler


def make_scheduler(config: SchedulerConfig) -> Scheduler:
    """Instantiate the scheduler named by ``config.kind``."""
    if config.kind == "cfq":
        return CFQScheduler(config)
    if config.kind == "noop":
        return NoopScheduler(config)
    if config.kind == "deadline":
        return DeadlineScheduler(config)
    raise StorageError(f"unknown scheduler kind {config.kind!r}")


class BlockQueue:
    """Queue + runner for one device."""

    def __init__(self, env: Environment, device: Device,
                 scheduler: Scheduler, name: str = "blkq") -> None:
        self.env = env
        self.device = device
        self.scheduler = scheduler
        #: Observability tracer (:class:`repro.obs.span.Tracer`); wired
        #: by the cluster's ObsRuntime, None on untraced runs.
        self.obs = None
        self.name = name
        self._arrival: Event = env.event()
        self._busy = False
        self._pause_depth = 0
        self._resume_evt: Optional[Event] = None
        self._inflight = 0
        self._last_activity = env.now
        self._last_service_end = env.now
        self._drain_waiters: List[Event] = []
        self.dispatches = 0
        #: Block requests completed over the queue's lifetime.  The
        #: audit watchdog reads this to detect stalls: simulated time
        #: advancing while no request on any queue completes.
        self.completed = 0
        # The runner is a chain of the step methods below, started by
        # the entry a process would push.  The queue lives as long as
        # its device, so each step's bound method is made once.
        self._dispatch: Optional[Dispatch] = None
        #: The open CFQ anticipation window's deadline (None when no
        #: window is open): its arrival and deadline race on it.
        self._window: Optional[Event] = None
        self._next_step = self._next
        self._arrived_step = self._arrived
        self._expired_step = self._expired
        self._served_step = self._served
        _schedule(env, self._next_step)

    # -- public API ---------------------------------------------------
    def submit(self, op: Op, lbn: int, nbytes: int, stream: int = 0,
               meta: Any = None, obs_parent=None) -> BlockRequest:
        """Queue an I/O; the returned request's ``done`` event fires
        (with value ``None``) on completion.

        ``obs_parent`` (a :class:`repro.obs.span.Span`) requests span
        tracing for this I/O: a queue-wait span opens now, flips to a
        device-service span at dispatch.  Background traffic passes
        nothing and stays untraced.
        """
        self.device.check_range(lbn, nbytes)
        req = BlockRequest(self.env, op, lbn, nbytes, stream=stream, meta=meta)
        obs = self.obs
        if obs is not None and obs_parent is not None:
            req.span = obs.start("blk.wait", "queue", obs_parent.trace_id,
                                 self.env.now, parent=obs_parent,
                                 attrs={"dev": self.name, "op": op._value_,
                                        "nbytes": nbytes})
        self.scheduler.add(req)
        self._inflight += 1
        self._last_activity = self.env.now
        if not self._arrival.triggered:
            self._arrival.succeed()
        return req

    @property
    def pending(self) -> int:
        """Requests queued or being served."""
        return self._inflight

    @property
    def busy(self) -> bool:
        """True while the device is actively serving a dispatch."""
        return self._busy

    def idle_duration(self, now: Optional[float] = None) -> float:
        """How long the queue has been completely idle (0 when active)."""
        if self._busy or self._inflight > 0 or self._pause_depth:
            return 0.0
        return (now if now is not None else self.env.now) - self._last_activity

    def quiesce(self) -> Event:
        """Event that fires once the queue is empty and the device idle."""
        ev = self.env.event()
        if self._inflight == 0 and not self._busy:
            ev.succeed()
        else:
            self._drain_waiters.append(ev)
        return ev

    @property
    def paused(self) -> bool:
        """True while dispatching is suspended (device fail-stop)."""
        return self._pause_depth > 0

    def pause(self) -> None:
        """Suspend dispatching: a fail-stop window on the device.

        The dispatch in flight (if any) completes — it was already on
        the platter — but nothing further is issued until
        :meth:`resume`.  Queued and newly submitted requests simply
        wait, modelling an outage the upper layers ride out via
        timeout/retry or degraded modes.

        Pauses nest: a server crash pauses every queue on the server,
        and a device fail-stop window may overlap the crash on one of
        them.  Each holder must release its own pause before dispatch
        restarts — with a boolean flag, the server *restart* would lift
        the device window's pause early and dispatch into a device
        still in fail-stop (found by repro.chaos, seed 10).
        """
        self._pause_depth += 1

    def resume(self) -> None:
        """Release one pause hold; dispatching restarts at zero holds."""
        if self._pause_depth == 0:
            return
        self._pause_depth -= 1
        if self._pause_depth:
            return
        if self._resume_evt is not None and not self._resume_evt.triggered:
            self._resume_evt.succeed()
        self._resume_evt = None

    # -- runner ---------------------------------------------------------
    # Steps of a callback chain (see repro.sim.Chain): each wait appends
    # the next step to the awaited event, except the service time, a
    # bare timer entry.  tests/test_round_trip_chains.py
    # keeps the generator this replaced and checks both schedule the
    # same heap entries: keep statement order in step with it.
    def _next(self, _event) -> None:
        """Wait for, pick and issue the next dispatch."""
        env = self.env
        while True:
            if self._pause_depth:
                if self._resume_evt is None:
                    self._resume_evt = env.event()
                self._resume_evt.callbacks.append(self._next_step)
                return
            if self.scheduler.empty:
                # Sleep until something arrives.
                self._arrival = env.event()
                self._arrival.callbacks.append(self._next_step)
                return
            dispatch, idle_until = self.scheduler.select(env.now)
            if dispatch is not None:
                self._issue(dispatch)
                return
            if idle_until is not None:
                # CFQ anticipation: wait for either the idle deadline or
                # a new arrival, whichever comes first.  The winner
                # closes the window and schedules the next pass.
                self._arrival = env.event()
                self._arrival.callbacks.append(self._arrived_step)
                self._window = env.timeout(max(0.0, idle_until - env.now))
                self._window.callbacks.append(self._expired_step)
                return

    def _arrived(self, _event: Event) -> None:
        # The deadline, left in the heap, finds the window closed.
        self._window = None
        _schedule(self.env, self._next_step, 0)

    def _expired(self, deadline: Event) -> None:
        if deadline is not self._window:
            # The deadline of a window its arrival already closed.
            return
        self._window = None
        # The arrival has not fired (it would have closed the window):
        # unhook it, or it would reopen the race when it fires.
        self._arrival.callbacks.remove(self._arrived_step)
        _schedule(self.env, self._next_step, 0)

    def _issue(self, dispatch: Dispatch) -> None:
        """Charge the device for ``dispatch`` and wait out its service."""
        env = self.env
        now = env.now
        self._busy = True
        # How long the device sat idle before this dispatch: rotational
        # state decays across idle gaps (see hdd.SWEEP_IDLE_RESET).
        idle_gap = max(0.0, now - self._last_service_end)
        service = self.device.serve(dispatch.op, dispatch.lbn, dispatch.nbytes,
                                    idle_gap=idle_gap)
        self.dispatches += 1
        obs = self.obs
        if obs is not None:
            # GC/storm share of this service time (SSD FTL model);
            # exposed as its own span nested in the service span so
            # critical_path attributes straggling stripe units to
            # garbage collection.
            gc_stall = self.device.last_gc_stall
            op, merged = dispatch.op._value_, len(dispatch.members)
        for member in dispatch.members:
            member.dispatch_time = now
            # Queue-wait ends at dispatch; the service span picks up as
            # a sibling (same parent) so the pair tiles [submit,
            # complete] exactly for the critical-path analyzer.
            span = member.span
            if span is not None and obs is not None:
                obs.finish(span, now)
                member.span = obs.start(
                    "blk.service", "service", span.trace_id, now,
                    parent_id=span.parent_id,
                    attrs={"dev": self.name, "op": op,
                           "nbytes": member.nbytes, "merged": merged})
                if gc_stall > 0.0:
                    gc_span = obs.start(
                        "ssd.gc", "gc", span.trace_id, now,
                        parent=member.span,
                        attrs={"dev": self.name, "stall": gc_stall})
                    obs.finish(gc_span, now + gc_stall)
        self._dispatch = dispatch
        _schedule(env, self._served_step, service)

    def _served(self, _event: Event) -> None:
        env = self.env
        dispatch = self._dispatch
        obs = self.obs
        self._busy = False
        self._inflight -= len(dispatch.members)
        self._last_activity = env.now
        self._last_service_end = env.now
        self.completed += len(dispatch.members)
        for member in dispatch.members:
            member.complete_time = env.now
            if member.span is not None and obs is not None:
                obs.finish(member.span, env.now)
            # Value None: a request -> done -> request value would be
            # a reference cycle per I/O.
            member.done.succeed()
        if self._inflight == 0 and self._drain_waiters:
            waiters, self._drain_waiters = self._drain_waiters, []
            for ev in waiters:
                ev.succeed()
        self._next(None)
