"""Differential test: the request-path callback chains against the
generator processes they replaced.

The client request, the client's retry loop and attempts, the network
message legs, the server job and the block-queue runner run as
:class:`~repro.sim.Chain` steps.  The functions between the
``verbatim`` markers are the generator bodies those chains replaced,
copied unchanged but for the slot release noted in ``_job`` (with the
``submit``/``send`` entry points that spawned them, the
``BlockQueue.__init__`` that started the runner, and the event-based
``Resource``/``Request`` the generators yield for NIC and I/O-slot
grants, where the chains hand a step to the grant FIFO);
:func:`_install_generators` puts them back on their classes and
modules.  Every
cell below runs once on the chains and once on the generators,
recording each popped entry by wrapping ``repro.sim.core.heappop`` and
the ``popleft`` of the engine's same-time lanes, and the two runs must
agree on:

* the popped ``(time, priority, seq)`` stream and each final ``_seq``;
* every client's recovery counters and ``outstanding``;
* the network's :class:`~repro.net.NetworkStats`;
* every server's job counters and every block queue's dispatch and
  completion counts, the iBridge counters and the fault log;
* the span tree of traced cells, ``run_digest``, and the error of a
  run that exhausts its retries.

The cells cover stock and iBridge paths, fault plans (message loss,
message delay with late replies, a server crash and restart, retry
exhaustion, the ``retry.total_timeout`` cap, and on iBridge a slow
disk, an SSD fail-stop and a paused disk queue) and retry disabled.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import inspect
import itertools
import sys

from collections import deque
from typing import Deque, List, Optional

import pytest

from repro.block import request as block_request
from repro.block.blktrace import BlockTracer
from repro.block.queue import BlockQueue
from repro.block.request import Dispatch
from repro.block.scheduler import Scheduler
from repro.config import ClusterConfig
from repro.core import mapping
from repro.devices.base import Device, Op
from repro.errors import FaultError, RequestTimeoutError, SimulationError
from repro.faults import (FaultEvent, FaultKind, FaultPlan, fail_slow,
                          server_outage, ssd_outage)
from repro.net import network
from repro.net.network import Network
from repro.pfs import messages
from repro.pfs import server as server_module
from repro.pfs.client import PFSClient
from repro.pfs.cluster import Cluster
from repro.pfs.messages import ParentRequest, SubRequest
from repro.pfs.server import DataServer
from repro.results import run_digest
from repro.sim import Environment, Event, core
from repro.units import KiB, MiB
from repro.workloads.base import run_workload
from repro.workloads.mpi_io_test import MpiIoTest

# ---------------------------------------------------------------- verbatim


def submit(self, op: Op, handle: int, offset: int, nbytes: int,
           rank: int) -> Event:
    """Issue one application request; event fires at completion with
    the :class:`ParentRequest` (timing fields filled) as value."""
    parent = ParentRequest(op=op, handle=handle, offset=offset,
                           nbytes=nbytes, rank=rank)
    done = self.env.event()
    self.env.spawn(self._request(parent, done),
                   name=f"{self.name}-r{parent.id}")
    return done


def _request(self, parent: ParentRequest, done: Event):
    env = self.env
    parent.submit_time = env.now
    # The root span opens at submit_time and closes at complete_time
    # (same ticks, no yields between), so its duration equals the
    # parent latency reported by analysis.metrics exactly.
    obs = self.obs
    root = None
    if obs is not None:
        # root() returns None for traces outside the 1-in-N sample;
        # every child site guards on its parent span, so a None
        # root prunes the whole tree at the cost of one modulo.
        root = obs.root("request", "client", parent.id, env.now, {
            "op": parent.op.value, "nbytes": parent.nbytes,
            "offset": parent.offset, "rank": parent.rank,
            "client": self.id})
    try:
        # Per-request OS/runtime noise; this is what makes concurrent
        # ranks drift out of phase (see ClusterConfig.client_jitter).
        jitter = (self._rng.random() * self.config.client_jitter
                  if self.config.client_jitter > 0 else 0.0)
        yield env.timeout(self.config.client_overhead + jitter)
        subs = self.split(parent)
        if root is not None:
            for sub in subs:
                sub.span = obs.start(
                    "subreq", "rpc", parent.id, env.now, parent=root,
                    attrs={"server": sub.server, "nbytes": sub.nbytes,
                           "fragment": sub.is_fragment,
                           "random": sub.is_random})
        completions = []
        for sub in subs:
            completions.append(self._sub_round_trip(sub))
        # A request is complete only when its slowest sub-request is —
        # the synchronous-request property the paper's analysis hinges
        # on.
        yield env.all_of(completions)
    except FaultError as exc:
        # Retry exhaustion (or another injected-fault error) must
        # fail ``done`` rather than silently killing this process:
        # a waiter yielding ``done`` gets the typed exception instead
        # of deadlocking on an event that never fires.
        self.failures += 1
        if self.audit is not None:
            self.audit.trace.emit(env.now, "client_give_up",
                                  client=self.id, parent=parent.id,
                                  error=type(exc).__name__)
        if root is not None:
            root.annotate(failed=type(exc).__name__)
            obs.finish(root, env.now)
        done.fail(exc)
        return
    parent.complete_time = env.now
    if root is not None:
        obs.finish(root, env.now)
    self.completed.append(parent)
    if self.collector is not None:
        self.collector.append(parent)
    done.succeed(parent)


def _sub_round_trip(self, sub: SubRequest) -> Event:
    """Request message -> server job -> response message.

    The whole round trip is one *attempt*; with retry enabled (the
    default) each attempt races a deadline, and a timed-out attempt
    is re-issued after capped exponential backoff.  A lost request
    or reply message, a crashed server, or a fail-stopped device all
    look identical from here — no completion before the deadline —
    which is exactly the failure model of a real RPC layer.  Retries
    are at-least-once: a slow (not lost) attempt may still complete
    after its deadline, and the server may serve a sub-request
    twice; servers are idempotent for both reads and writes.
    """
    env = self.env
    server = self.servers[sub.server]
    retry = self.config.retry
    finished = env.event()

    def attempt(attempt_done: Event):
        req_payload = sub.nbytes if sub.op is Op.WRITE else 0
        yield self.network.send(self.name, server.name, req_payload,
                                obs_parent=sub.span)
        served = server.submit(sub)
        yield served
        resp_payload = sub.nbytes if sub.op is Op.READ else 0
        yield self.network.send(server.name, self.name, resp_payload,
                                obs_parent=sub.span)
        if not attempt_done.triggered:
            attempt_done.succeed(sub)

    def finish_span():
        if sub.span is not None and self.obs is not None:
            self.obs.finish(sub.span, env.now)

    def give_up(exc: RequestTimeoutError, wallclock: bool) -> None:
        self.exhausted += 1
        if wallclock:
            self.wallclock_exhausted += 1
        self.outstanding -= 1
        finished.fail(exc)

    def run():
        self.outstanding += 1
        if not retry.enabled:
            one = env.event()
            env.spawn(attempt(one), name=f"{self.name}-s{sub.id}a0")
            yield one
            finish_span()
            self.outstanding -= 1
            finished.succeed(sub)
            return
        attempts = retry.max_retries + 1
        start = env.now
        budget = retry.total_timeout
        # One shared completion event for every attempt: the round
        # trip that finishes *first* completes the sub-request, even
        # when it is an earlier attempt whose deadline already
        # expired.  Racing each attempt against its own private
        # event discards those late replies, and under load that
        # feeds a retry storm: every duplicate deepens the server
        # queue, pushing every round trip past the deadline, which
        # mints more duplicates — self-sustaining long after the
        # fault window that started it reverts (found by
        # repro.chaos, seed 7).
        completed = env.event()
        for i in range(attempts):
            if completed.triggered:
                # A straggler replied during the backoff sleep.
                finish_span()
                self.outstanding -= 1
                finished.succeed(sub)
                return
            if budget is not None and env.now - start >= budget:
                # The attempt-count budget alone is unbounded in
                # time (each timed-out attempt restarts the clock);
                # the wall-clock cap bounds the whole loop.
                give_up(RequestTimeoutError(
                    f"{self.name}: sub-request {sub.id} to server "
                    f"{sub.server} exceeded its retry wall-clock "
                    f"budget ({budget}s) after {i} attempts"),
                    wallclock=True)
                return
            env.spawn(attempt(completed),
                      name=f"{self.name}-s{sub.id}a{i}")
            deadline = env.timeout(retry.timeout)
            fired = yield env.any_of([completed, deadline])
            if completed in fired:
                env.cancel(deadline)
                finish_span()
                self.outstanding -= 1
                finished.succeed(sub)
                return
            self.timeouts += 1
            if self.audit is not None:
                self.audit.trace.emit(
                    env.now, "client_timeout", client=self.id,
                    sub=sub.id, server=sub.server, attempt=i)
            if i + 1 < attempts:
                self.retries += 1
                yield env.timeout(retry.backoff(i))
        give_up(RequestTimeoutError(
            f"{self.name}: sub-request {sub.id} to server {sub.server} "
            f"got no reply after {attempts} attempts "
            f"(timeout {retry.timeout}s each)"), wallclock=False)

    env.spawn(run(), name=f"{self.name}-s{sub.id}")
    return finished


def send(self, src: str, dst: str, nbytes: int = 0,
         obs_parent=None) -> Event:
    """Deliver a message; the returned event fires at delivery time.

    ``nbytes`` is payload size; control messages pass 0 and still
    pay overhead + latency.  ``obs_parent`` (a span) traces the
    message as a network span from send to delivery.
    """
    done = self.env.event()
    span = None
    obs = self.obs
    if obs is not None and obs_parent is not None:
        span = obs.start("net.msg", "network", obs_parent.trace_id,
                         self.env.now, parent=obs_parent,
                         attrs={"src": src, "dst": dst,
                                "nbytes": int(nbytes)})
    self.env.spawn(self._transfer(src, dst, int(nbytes), done, span),
                   name=f"net:{src}->{dst}")
    return done


def _transfer(self, src: str, dst: str, nbytes: int, done: Event,
              span=None):
    env = self.env
    cfg = self.config
    yield env.timeout(cfg.message_overhead)
    if self._faults:
        extra_delay, dropped = self._fault_effects(src, dst)
        if dropped:
            # The message is lost: ``done`` never fires.  Recovery
            # is the sender's job (client timeout/retry).
            self.stats.dropped += 1
            if span is not None:
                span.annotate(dropped=True)
                self.obs.finish(span, env.now)
            return
        if extra_delay > 0.0:
            self.stats.fault_delay_time += extra_delay
            yield env.timeout(extra_delay)
    wire = nbytes / cfg.bandwidth
    if nbytes > 0:
        # Hold both NICs for the wire time: concurrent transfers at
        # an endpoint share its link serially.
        eg = self._nic(self._egress, src).request()
        yield eg
        ing = self._nic(self._ingress, dst).request()
        yield ing
        yield env.timeout(wire)
        self._nic(self._ingress, dst).release(ing)
        self._nic(self._egress, src).release(eg)
    yield env.timeout(cfg.latency)
    self.stats.messages += 1
    self.stats.bytes += nbytes
    self.stats.wire_time += wire
    if span is not None and self.obs is not None:
        self.obs.finish(span, env.now)
    done.succeed()


class _ServerGenerators:
    """``DataServer``'s job generators, verbatim."""

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
                             self.env.now, parent=sub.span,
                             attrs={"server": self.id})
        self.env.spawn(self._job(sub, done, self.epoch, span),
                       name=f"{self.name}-job")
        return done

    def _job(self, sub: SubRequest, done: Event, epoch: int, span=None):
        env = self.env
        obs = self.obs
        # The original held the slot in a ``with`` block; try/finally
        # releases it at the same points.
        slot = self._slots.request()
        try:
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
        finally:
            self._slots.release(slot)
        if span is not None:
            obs.finish(span, env.now)
        if self.crashed or self.epoch != epoch:
            # The server crashed while this job was in flight: whatever
            # the devices completed stays done, but the reply is lost.
            # The client retries against the restarted server.
            return
        done.succeed(sub)

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


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource


class Resource:
    """A counted resource with FIFO waiters."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._waiters: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        req = Request(self.env, self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiters.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a slot previously granted to ``req``."""
        try:
            self._users.remove(req)
        except ValueError:
            # Releasing an un-granted (still waiting) request cancels it.
            try:
                self._waiters.remove(req)
            except ValueError:
                raise SimulationError("release() of a request not held or queued")
            return
        if self._waiters:
            nxt = self._waiters.popleft()
            self._users.append(nxt)
            nxt.succeed()


class _QueueGenerators:
    """``BlockQueue``'s runner generators, verbatim."""

    def __init__(self, env: Environment, device: Device,
                 scheduler: Scheduler, tracer: Optional[BlockTracer] = None,
                 name: str = "blkq") -> None:
        self.env = env
        self.device = device
        self.scheduler = scheduler
        # Note: an empty BlockTracer is falsy (it defines __len__), so an
        # explicit None test is required here.
        self.tracer = tracer if tracer is not None else BlockTracer(enabled=False)
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
        env.process(self._run(), name=f"{name}-runner")

    def _run(self):
        env = self.env
        while True:
            if self._pause_depth:
                if self._resume_evt is None:
                    self._resume_evt = env.event()
                yield self._resume_evt
                continue
            if self.scheduler.empty:
                # Sleep until something arrives.
                self._arrival = env.event()
                yield self._arrival
                continue
            dispatch, idle_until = self.scheduler.select(env.now)
            if dispatch is None:
                if idle_until is None:
                    continue
                # CFQ anticipation: wait for either the idle deadline or
                # a new arrival, whichever comes first.
                arrival = self._arrival = env.event()
                deadline = env.timeout(max(0.0, idle_until - env.now))
                anticipation = env.any_of([arrival, deadline])
                yield anticipation
                if arrival.callbacks is not None:
                    # Timed out with the arrival still pending: unhook
                    # the condition, or the two keep each other alive
                    # in a cycle once ``_arrival`` is replaced.
                    arrival.callbacks.remove(anticipation._check)
                continue
            yield from self._serve(dispatch)

    def _serve(self, dispatch: Dispatch):
        env = self.env
        self._busy = True
        # How long the device sat idle before this dispatch: rotational
        # state decays across idle gaps (see HDDConfig.sweep_idle_reset).
        idle_gap = max(0.0, env.now - self._last_service_end)
        service = self.device.serve(dispatch.op, dispatch.lbn, dispatch.nbytes,
                                    idle_gap=idle_gap)
        self.dispatches += 1
        # Zero-cost when tracing is off: skip the record() call frame
        # (and its TraceRecord build) on every dispatch.
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(env.now, dispatch.op, dispatch.lbn,
                          dispatch.nbytes, len(dispatch.members))
        obs = self.obs
        # GC/storm share of this service time (SSD FTL model); exposed
        # as its own span nested in the service span so critical_path
        # attributes straggling stripe units to garbage collection.
        gc_stall = getattr(self.device, "last_gc_stall", 0.0)
        for member in dispatch.members:
            member.dispatch_time = env.now
            # Queue-wait ends at dispatch; the service span picks up as
            # a sibling (same parent) so the pair tiles [submit,
            # complete] exactly for the critical-path analyzer.
            span = member.span
            if span is not None and obs is not None:
                obs.finish(span, env.now)
                member.span = obs.start(
                    "blk.service", "service", span.trace_id, env.now,
                    parent_id=span.parent_id,
                    attrs={"dev": self.name, "op": dispatch.op.value,
                           "nbytes": member.nbytes,
                           "merged": len(dispatch.members)})
                if gc_stall > 0.0:
                    gc_span = obs.start(
                        "ssd.gc", "gc", span.trace_id, env.now,
                        parent=member.span,
                        attrs={"dev": self.name, "stall": gc_stall})
                    obs.finish(gc_span, env.now + gc_stall)
        yield env.timeout(service)
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


# ------------------------------------------------------------ /verbatim

GENERATORS = (
    (PFSClient, "submit", submit),
    (PFSClient, "_request", _request),
    (PFSClient, "_sub_round_trip", _sub_round_trip),
    (Network, "send", send),
    (Network, "_transfer", _transfer),
    (DataServer, "submit", _ServerGenerators.submit),
    (DataServer, "_job", _ServerGenerators._job),
    (DataServer, "_stock_io", _ServerGenerators._stock_io),
    (BlockQueue, "__init__", _QueueGenerators.__init__),
    (BlockQueue, "_run", _QueueGenerators._run),
    (BlockQueue, "_serve", _QueueGenerators._serve),
    (network, "Resource", Resource),
    (server_module, "Resource", Resource),
)


def _install_generators(m) -> None:
    for cls, name, fn in GENERATORS:
        m.setattr(cls, name, fn, raising=False)


#: Process-wide id counters (request, block-request, mapping-entry and
#: fault ids reach error messages and spans); restarted per run.
ID_COUNTERS = ((messages, "_request_ids"), (block_request, "_ids"),
               (mapping, "_entry_ids"), (network, "_fault_ids"))

CLIENT_COUNTERS = ("timeouts", "retries", "exhausted",
                   "wallclock_exhausted", "failures", "outstanding")


def _observe(monkeypatch, make, generators: bool) -> dict:
    """Run one cell; everything the two paths must agree on."""
    cfg, wl, plan, warm_runs = make()
    popped = []

    def pop(heap):
        entry = heapq.heappop(heap)
        popped.append(entry[:3])
        return entry

    class Lane(collections.deque):
        def popleft(self):
            entry = super().popleft()
            popped.append(entry[:3])
            return entry

    with monkeypatch.context() as m:
        if generators:
            _install_generators(m)
        for module, name in ID_COUNTERS:
            m.setattr(module, name, itertools.count(1))
        m.setattr(core, "heappop", pop)
        m.setattr(core, "deque", Lane)
        cluster = Cluster(cfg, fault_plan=plan)
        result = error = None
        try:
            result = run_workload(cluster, wl, warm_runs=warm_runs)
        except FaultError as exc:
            error = (type(exc).__name__, str(exc))
    tracer = cluster.obs.tracer if cluster.obs is not None else None
    spans = [] if tracer is None else [
        (s.trace_id, s.span_id, s.parent_id, s.name, s.start, s.end)
        for s in tracer.spans]
    return {
        "popped": popped,
        "seq": cluster.env._seq,
        "clients": [[getattr(c, k) for k in CLIENT_COUNTERS]
                    for c in cluster._clients.values()],
        "net": dataclasses.asdict(cluster.network.stats),
        "servers": [(dataclasses.asdict(srv.stats), srv.crashes,
                     [(q.dispatches, q.completed)
                      for q in [u.queue for u in srv.disks]
                      + [srv.ssd_queue]])
                    for srv in cluster.servers],
        "ibridge": (None if not cfg.ibridge.enabled
                    else dataclasses.asdict(cluster.ibridge_stats())),
        "faults": (None if cluster.faults is None else
                   [(r.time, r.phase, r.event.kind.value)
                    for r in cluster.faults.records]),
        "spans": spans,
        "digest": None if result is None else run_digest(result),
        "error": error,
    }


# ------------------------------------------------------------------ cells

def _reads(nprocs=8, file_size=4 * MiB):
    return MpiIoTest(nprocs=nprocs, request_size=65 * KiB,
                     file_size=file_size, op=Op.READ)


def _writes(nprocs=8, file_size=4 * MiB):
    return MpiIoTest(nprocs=nprocs, request_size=65 * KiB,
                     file_size=file_size, op=Op.WRITE)


def _ibridge(**overrides):
    return ClusterConfig(num_servers=4, seed=3, **overrides).with_ibridge(
        ssd_partition=8 * MiB)


def _lossy():
    return ClusterConfig(num_servers=4, seed=3).with_retry(
        timeout=0.05, max_retries=10, backoff_base=0.01, backoff_cap=0.05)


def _drop(prob=0.3, duration=0.5):
    return FaultPlan.single(FaultEvent(kind=FaultKind.NET_DROP,
                                       drop_prob=prob, duration=duration),
                            name="lossy")


def _delay():
    # Each message is 12 ms late against a 20 ms deadline: round trips
    # time out, retries go out, and late replies to earlier attempts
    # complete sub-requests (with a 5 ms first backoff, some during the
    # backoff sleep and the rest racing the retry).
    return FaultPlan.single(FaultEvent(kind=FaultKind.NET_DELAY,
                                       delay=0.012, duration=0.3),
                            name="slow-net")


def _device_faults():
    # A slow disk on server 0, an SSD fail-stop on server 1 (its
    # managers bypass the SSD until the restore) and a fail-stopped
    # disk on server 2, whose block queue pauses and then resumes.
    return FaultPlan(events=(
        fail_slow(0, 4.0, start=0.0, duration=0.05, bw_mult=2.0),
        ssd_outage(1, start=0.005, duration=0.03),
        FaultEvent(kind=FaultKind.DEVICE_FAIL, server=2, start=0.01,
                   duration=0.02),
    ), name="device-faults")


CELLS = {
    "stock_read": lambda: (ClusterConfig(num_servers=4, seed=3), _reads(),
                           None, 0),
    "ibridge_write_warm": lambda: (_ibridge(), _writes(), None, 1),
    "ibridge_read_traced": lambda: (
        _ibridge().with_obs(trace=True, metrics=False), _reads(), None, 1),
    "net_drop": lambda: (_lossy(), _writes(), _drop(), 0),
    "net_delay": lambda: (
        _lossy().with_retry(timeout=0.02, backoff_base=0.005),
        _reads(), _delay(), 0),
    "server_crash": lambda: (
        _lossy(), _writes(),
        FaultPlan.single(server_outage(1, start=0.02, duration=0.05),
                         name="crash"), 0),
    "retry_exhaustion": lambda: (
        ClusterConfig(num_servers=2, seed=3).with_retry(
            timeout=0.02, max_retries=2, backoff_base=0.001,
            backoff_cap=0.01),
        _writes(nprocs=2, file_size=1 * MiB),
        _drop(prob=1.0, duration=None), 0),
    "retry_total_timeout": lambda: (
        ClusterConfig(num_servers=2, seed=3).with_retry(
            timeout=0.02, max_retries=50, backoff_base=0.001,
            backoff_cap=0.01, total_timeout=0.1),
        _writes(nprocs=2, file_size=1 * MiB),
        _drop(prob=1.0, duration=None), 0),
    "retry_disabled": lambda: (
        ClusterConfig(num_servers=4, seed=3).with_retry(enabled=False),
        _writes(), _delay(), 0),
    "ibridge_device_faults": lambda: (_ibridge(), _writes(),
                                      _device_faults(), 0),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_chains_replay_the_generator_heap_stream(monkeypatch, cell):
    chains = _observe(monkeypatch, CELLS[cell], generators=False)
    gens = _observe(monkeypatch, CELLS[cell], generators=True)
    assert len(chains["popped"]) == len(gens["popped"])
    assert chains["popped"] == gens["popped"]
    for key in ("seq", "clients", "net", "servers", "ibridge", "faults",
                "spans", "digest", "error"):
        assert chains[key] == gens[key], key


def test_cells_reach_the_paths_they_are_here_for(monkeypatch):
    """Guard against cells that silently stop exercising a path."""
    from repro.pfs.client import _RoundTrip

    stragglers = []
    retry_step = _RoundTrip._try

    def counted(self, event):
        stragglers.append(self.completed.triggered)
        retry_step(self, event)

    monkeypatch.setattr(_RoundTrip, "_try", counted)

    def run(cell):
        obs = _observe(monkeypatch, CELLS[cell], generators=False)
        totals = dict(zip(CLIENT_COUNTERS,
                          map(sum, zip(*obs["clients"]))))
        return obs, totals

    drop, totals = run("net_drop")
    assert drop["net"]["dropped"] > 0 and totals["retries"] > 0
    stragglers.clear()
    _, totals = run("net_delay")
    # Late replies complete sub-requests both during a backoff sleep
    # and while racing the next attempt's deadline.
    assert totals["timeouts"] > 0 and totals["exhausted"] == 0
    assert 0 < sum(stragglers) < totals["retries"]
    assert run("server_crash")[1]["retries"] > 0
    exhausted, totals = run("retry_exhaustion")
    assert exhausted["error"][0] == "RequestTimeoutError"
    assert "attempts" in exhausted["error"][1] and totals["failures"] == 1
    capped, totals = run("retry_total_timeout")
    assert "wall-clock" in capped["error"][1]
    assert totals["wallclock_exhausted"] >= 1
    assert run("ibridge_read_traced")[0]["spans"]
    faulted = run("ibridge_device_faults")[0]
    assert [kind for _, phase, kind in faulted["faults"]
            if phase == "end"] == ["device_fail", "ssd_fail", "device_slow"]
    assert faulted["ibridge"]["ssd_outages"] == 1
    assert faulted["ibridge"]["ssd_redirected_writes"] > 0


@pytest.mark.parametrize("cell", ["stock_read", "ibridge_read_warm"])
def test_no_process_per_sub_request(monkeypatch, cell):
    """Processes started by a run do not grow with its request count:
    sub-requests, server jobs and dispatches are all chains."""
    started = []
    init = core.Process.__init__

    def counted(self, *args, **kwargs):
        started.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(core.Process, "__init__", counted)

    def processes(file_size):
        cfg = (ClusterConfig(num_servers=4, seed=3) if cell == "stock_read"
               else _ibridge())
        started.clear()
        cluster = Cluster(cfg)
        run_workload(cluster, _reads(file_size=file_size),
                     warm_runs=0 if cell == "stock_read" else 1)
        return len(started), sum(s.stats.jobs for s in cluster.servers)

    small, small_jobs = processes(4 * MiB)
    large, large_jobs = processes(8 * MiB)
    assert large_jobs >= 2 * small_jobs
    assert large == small


#: The only non-generator code that may build a timeout: waits someone
#: else can cancel or race.  Every other wait of a chain, a grant or a
#: delivery is a bare entry.
SHARED_WAITS = {
    "_RoundTrip._try",  # the round-trip deadline: cancelled on a reply
    "BlockQueue._next",  # the CFQ anticipation window: raced with arrivals
}


@pytest.mark.parametrize("cell", ["stock_read", "ibridge_write_warm"])
def test_private_waits_build_no_timeout(monkeypatch, cell):
    """Every ``Environment.timeout`` of a run is a round-trip deadline,
    a CFQ anticipation window, or a generator's own ``yield``."""
    callers = collections.Counter()
    timeout = Environment.timeout

    def recorded(env, delay, value=None):
        frame = sys._getframe(1)
        code = frame.f_code
        if code.co_flags & inspect.CO_GENERATOR:
            callers["generator"] += 1
        else:
            owner = type(frame.f_locals.get("self")).__name__
            callers[f"{owner}.{code.co_name}"] += 1
        return timeout(env, delay, value)

    monkeypatch.setattr(Environment, "timeout", recorded)
    observed = _observe(monkeypatch, CELLS[cell], generators=False)
    assert observed["error"] is None
    assert set(callers) - {"generator"} <= SHARED_WAITS, callers
    # One deadline per attempt; the stock cell's CFQ anticipates.
    assert callers["_RoundTrip._try"] >= sum(
        srv[0]["jobs"] for srv in observed["servers"])
    if cell == "stock_read":
        assert callers["BlockQueue._next"] > 0
