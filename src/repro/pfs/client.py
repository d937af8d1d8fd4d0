"""The PFS client: request splitting and fragment flagging.

This is the counterpart of the paper's instrumentation of PVFS2's
``io_datafile_setup_msgpairs()``: the client knows the striping unit,
so it decomposes each application request into per-server sub-requests
and — when iBridge is enabled — flags fragments (sub-threshold pieces
of multi-server requests) and regular random requests (sub-threshold
whole requests), attaching the sibling server list each data server
needs for Eq. 3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..config import ClusterConfig
from ..devices.base import Op
from ..errors import FaultError, ProtocolError, RequestTimeoutError
from ..net import Network
from ..sim import Environment, Event
from ..util.rng import rng_stream
from .layout import StripeLayout
from .messages import ParentRequest, SubRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..audit.runtime import AuditRuntime


class PFSClient:
    """One compute-node client (shared by that node's ranks)."""

    def __init__(self, env: Environment, client_id: int, config: ClusterConfig,
                 layout: StripeLayout, servers: List, network: Network,
                 audit: Optional["AuditRuntime"] = None) -> None:
        self.env = env
        self.id = client_id
        self.config = config
        self.layout = layout
        self.servers = servers
        self.network = network
        self.audit = audit
        #: Observability tracer (:class:`repro.obs.span.Tracer`); wired
        #: by the cluster's ObsRuntime, None on untraced runs.
        self.obs = None
        self.name = f"client{client_id}"
        self._rng = rng_stream(config.seed, f"client:{client_id}")
        self.completed: List[ParentRequest] = []
        #: When set, completed parent requests are appended here too
        #: (shared collector installed by the workload runner).
        self.collector: Optional[List[ParentRequest]] = None
        #: Recovery counters (see ClusterConfig.retry).
        self.timeouts = 0       # sub-request attempts that hit the deadline
        self.retries = 0        # attempts re-issued after a timeout
        self.failures = 0       # parent requests failed after exhaustion
        self.exhausted = 0      # sub-requests abandoned (any reason)
        self.wallclock_exhausted = 0  # ... because of retry.total_timeout
        #: Sub-requests issued but not yet completed/abandoned; sampled
        #: by the obs timeline as the client-side load gauge.
        self.outstanding = 0

    # ------------------------------------------------------------- splitting
    def split(self, parent: ParentRequest) -> List[SubRequest]:
        """Decompose ``parent``, flagging fragments and random requests."""
        pieces = self.layout.split(parent.offset, parent.nbytes)
        if not pieces:
            raise ProtocolError("request split produced no pieces")
        ib = self.config.ibridge
        subs: List[SubRequest] = []
        multi = len(pieces) > 1
        for piece in pieces:
            sub = SubRequest(parent_id=parent.id, op=parent.op,
                             handle=parent.handle, server=piece.server,
                             local_offset=piece.local_offset,
                             nbytes=piece.nbytes, rank=parent.rank)
            if ib.enabled:
                if multi and piece.nbytes < ib.fragment_threshold:
                    sub.is_fragment = True
                if not multi and parent.nbytes < ib.random_threshold:
                    sub.is_random = True
            subs.append(sub)
        if ib.enabled and multi:
            for sub in subs:
                if sub.is_fragment:
                    sub.sibling_servers = tuple(
                        other.server for other in subs if other is not sub)
        return subs

    # ------------------------------------------------------------- I/O
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

    def read(self, handle: int, offset: int, nbytes: int, rank: int) -> Event:
        return self.submit(Op.READ, handle, offset, nbytes, rank)

    def write(self, handle: int, offset: int, nbytes: int, rank: int) -> Event:
        return self.submit(Op.WRITE, handle, offset, nbytes, rank)

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
            if server.is_remote:
                # Sharded run, server owned by another shard: the stub
                # plays the sender leg and posts to the shard mailbox;
                # the reply record (delivered at a window barrier)
                # succeeds ``attempt_done`` directly.
                yield from server.round_trip(self, sub, attempt_done)
                return
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
