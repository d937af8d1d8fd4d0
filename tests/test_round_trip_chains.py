"""Differential test: the round-trip callback chains against the
generator processes they replaced.

The client request, the client's retry loop and attempts, and the
network message legs run as :class:`~repro.sim.Chain` subclasses.  The
functions between the ``verbatim`` markers are the generator bodies
those chains replaced, copied unchanged (with the ``submit``/``send``
entry points that spawned them); :func:`_install_generators` puts them
back on their classes.  Every cell below runs once on the chains and
once on the generators, recording each popped heap entry by wrapping
``repro.sim.core.heappop``, and the two runs must agree on:

* the popped ``(time, priority, seq)`` stream and each final ``_seq``;
* every client's recovery counters and ``outstanding``;
* the network's :class:`~repro.net.NetworkStats`;
* the span tree of traced cells, ``run_digest``, and the error of a
  run that exhausts its retries.

The cells cover stock and iBridge paths, fault plans (message loss,
message delay with late replies, a server crash and restart, retry
exhaustion, the ``retry.total_timeout`` cap) and retry disabled.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools

import pytest

from repro.block import request as block_request
from repro.config import ClusterConfig
from repro.core import mapping
from repro.devices.base import Op
from repro.errors import FaultError, RequestTimeoutError
from repro.faults import FaultEvent, FaultKind, FaultPlan, server_outage
from repro.net import network
from repro.net.network import Network
from repro.pfs import messages
from repro.pfs.client import PFSClient
from repro.pfs.cluster import Cluster
from repro.pfs.messages import ParentRequest, SubRequest
from repro.sim import Event, core
from repro.sim.parallel import run_digest
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
        root = obs.root("request", "client", parent.id, env.now,
                        op=parent.op.value, nbytes=parent.nbytes,
                        offset=parent.offset, rank=parent.rank,
                        client=self.id)
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
                    server=sub.server, nbytes=sub.nbytes,
                    fragment=sub.is_fragment, random=sub.is_random)
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
                         self.env.now, parent=obs_parent, src=src,
                         dst=dst, nbytes=int(nbytes))
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


# ------------------------------------------------------------ /verbatim

GENERATORS = (
    (PFSClient, "submit", submit),
    (PFSClient, "_request", _request),
    (PFSClient, "_sub_round_trip", _sub_round_trip),
    (Network, "send", send),
    (Network, "_transfer", _transfer),
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

    with monkeypatch.context() as m:
        if generators:
            _install_generators(m)
        for module, name in ID_COUNTERS:
            m.setattr(module, name, itertools.count(1))
        m.setattr(core, "heappop", pop)
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
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_chains_replay_the_generator_heap_stream(monkeypatch, cell):
    chains = _observe(monkeypatch, CELLS[cell], generators=False)
    gens = _observe(monkeypatch, CELLS[cell], generators=True)
    assert len(chains["popped"]) == len(gens["popped"])
    assert chains["popped"] == gens["popped"]
    for key in ("seq", "clients", "net", "spans", "digest", "error"):
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
