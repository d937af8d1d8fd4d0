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
from ..sim import Chain, Environment, Event
from ..sim.core import _schedule
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
        _Request(self, parent, done)
        return done

    def read(self, handle: int, offset: int, nbytes: int, rank: int) -> Event:
        return self.submit(Op.READ, handle, offset, nbytes, rank)

    def write(self, handle: int, offset: int, nbytes: int, rank: int) -> Event:
        return self.submit(Op.WRITE, handle, offset, nbytes, rank)

    def _attempt(self, sub: SubRequest, attempt_done: Event) -> None:
        """Start one attempt; a reply succeeds ``attempt_done``."""
        _Attempt(self, sub, self.servers[sub.server], attempt_done)


# ------------------------------------------------------------------ chains
# Each class below is one fire-and-forget process of the request path,
# written as a :class:`~repro.sim.Chain` (step methods appended to the
# events they wait on, or scheduled as bare entries for the waits only
# they see: their own timers, message deliveries and server replies)
# rather than a generator, as are the server job (pfs/server.py) and
# the block-queue runner (block/queue.py): a round trip starts no
# process.  Joins and races build no ``Condition`` either: a round trip
# reports to a countdown on its request, and an attempt's reply and
# deadline race on a first-wins flag; the step that resolves one pushes
# a bare entry where the ``all_of``/``any_of`` would have succeeded.
# tests/test_round_trip_chains.py keeps the equivalent generator bodies
# and checks both schedule the same heap entries: keep statement order
# in step with them (events, RNG draws, spans and counters).


class _Request(Chain):
    """One application request: client overhead, split, and the wait
    for the slowest sub-request.

    ``pending`` counts the round trips still to report; the first
    failure (kept in ``error``) or the last success resolves the join
    and sets it to 0, so later reports are absorbed.
    """

    __slots__ = ("client", "parent", "done", "root", "pending", "error")

    def __init__(self, client: PFSClient, parent: ParentRequest,
                 done: Event) -> None:
        self.env = client.env
        self.client = client
        self.parent = parent
        self.done = done
        self.root = None
        self.error = None
        self._start(self._begin)

    def _begin(self, _event: Event) -> None:
        client = self.client
        env = self.env
        parent = self.parent
        parent.submit_time = env.now
        # The root span opens at submit_time and closes at complete_time
        # (same ticks, no waits between), so its duration equals the
        # parent latency reported by RunResult.latencies exactly.
        obs = client.obs
        if obs is not None:
            # root() returns None for traces outside the 1-in-N sample;
            # every child site guards on its parent span, so a None
            # root prunes the whole tree at the cost of one modulo.
            self.root = obs.root("request", "client", parent.id, env.now, {
                "op": parent.op._value_, "nbytes": parent.nbytes,
                "offset": parent.offset, "rank": parent.rank,
                "client": client.id})
        # Per-request OS/runtime noise; this is what makes concurrent
        # ranks drift out of phase (see ClusterConfig.client_jitter).
        config = client.config
        jitter = (client._rng.random() * config.client_jitter
                  if config.client_jitter > 0 else 0.0)
        self._after(config.client_overhead + jitter, self._split)

    def _split(self, _event: Event) -> None:
        client = self.client
        env = self.env
        parent = self.parent
        subs = client.split(parent)
        root = self.root
        if root is not None:
            obs = client.obs
            for sub in subs:
                sub.span = obs.start(
                    "subreq", "rpc", parent.id, env.now, parent=root,
                    attrs={"server": sub.server, "nbytes": sub.nbytes,
                           "fragment": sub.is_fragment,
                           "random": sub.is_random})
        # A request is complete only when its slowest sub-request is —
        # the synchronous-request property the paper's analysis hinges
        # on.
        self.pending = len(subs)
        for sub in subs:
            _RoundTrip(self, sub)

    def _complete(self, _event) -> None:
        client = self.client
        env = self.env
        parent = self.parent
        root = self.root
        exc = self.error
        if exc is not None:
            if not isinstance(exc, FaultError):
                raise exc
            # Retry exhaustion (or another injected-fault error) fails
            # ``done``: a waiter yielding it gets the typed exception
            # instead of deadlocking on an event that never fires.
            client.failures += 1
            if client.audit is not None:
                client.audit.trace.emit(env.now, "client_give_up",
                                        client=client.id, parent=parent.id,
                                        error=type(exc).__name__)
            if root is not None:
                root.annotate(failed=type(exc).__name__)
                client.obs.finish(root, env.now)
            self.done.fail(exc)
        else:
            parent.complete_time = env.now
            if root is not None:
                client.obs.finish(root, env.now)
            client.completed.append(parent)
            if client.collector is not None:
                client.collector.append(parent)
            self.done.succeed(parent)
        self._end()


class _RoundTrip(Chain):
    """One sub-request: request message -> server job -> response
    message, reported to its request's join.

    The whole round trip is one *attempt*; with retry enabled (the
    default) each attempt races a deadline, and a timed-out attempt
    is re-issued after capped exponential backoff.  A lost request
    or reply message, a crashed server, or a fail-stopped device all
    look identical from here — no completion before the deadline —
    which is exactly the failure model of a real RPC layer.  Retries
    are at-least-once: a slow (not lost) attempt may still complete
    after its deadline, and the server may serve a sub-request
    twice; servers are idempotent for both reads and writes.

    The round trip reports success with ``error`` None, or with the
    :class:`RequestTimeoutError` in ``error`` once the retry budget is
    spent.  ``racing`` is the first-wins flag of the current attempt's
    race: set when it is issued, cleared by whichever of the reply and
    the deadline comes first; a reply that finds it clear lost the race
    or came during the backoff sleep.
    """

    __slots__ = ("request", "client", "sub", "error", "completed",
                 "deadline", "racing", "attempt", "start")

    def __init__(self, request: _Request, sub: SubRequest) -> None:
        self.env = request.env
        self.request = request
        self.client = request.client
        self.sub = sub
        self.error = None
        self._start(self._begin)

    def _begin(self, _event: Event) -> None:
        client = self.client
        env = self.env
        client.outstanding += 1
        if not client.config.retry.enabled:
            one = env.event()
            client._attempt(self.sub, one)
            one.callbacks.append(self._succeed)
            return
        self.start = env.now
        self.attempt = 0
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
        self.completed = env.event()
        self.completed.callbacks.append(self._replied)
        self._try(None)

    def _try(self, _event) -> None:
        """Issue attempt ``self.attempt``, racing its deadline."""
        client = self.client
        env = self.env
        retry = client.config.retry
        if self.completed.triggered:
            # A straggler replied during the backoff sleep.
            self._succeed(None)
            return
        budget = retry.total_timeout
        if budget is not None and env.now - self.start >= budget:
            # The attempt-count budget alone is unbounded in time (each
            # timed-out attempt restarts the clock); the wall-clock cap
            # bounds the whole loop.
            sub = self.sub
            self._give_up(RequestTimeoutError(
                f"{client.name}: sub-request {sub.id} to server "
                f"{sub.server} exceeded its retry wall-clock "
                f"budget ({budget}s) after {self.attempt} attempts"),
                wallclock=True)
            return
        client._attempt(self.sub, self.completed)
        self.deadline = deadline = env.timeout(retry.timeout)
        deadline.callbacks.append(self._timed_out)
        self.racing = True

    def _replied(self, _event: Event) -> None:
        # A reply that finds the race closed (its deadline won, or it
        # came during the backoff sleep) is picked up by the next _try.
        if self.racing:
            self.racing = False
            _schedule(self.env, self._answered, 0)

    def _timed_out(self, _event: Event) -> None:
        # A deadline fires only into an open race: a reply that won
        # cancelled it, and one at the same instant was pushed after it.
        self.racing = False
        _schedule(self.env, self._expired, 0)

    def _answered(self, _event) -> None:
        self.env.cancel(self.deadline)
        self._succeed(None)

    def _expired(self, _event) -> None:
        client = self.client
        sub = self.sub
        retry = client.config.retry
        i = self.attempt
        client.timeouts += 1
        if client.audit is not None:
            client.audit.trace.emit(
                self.env.now, "client_timeout", client=client.id,
                sub=sub.id, server=sub.server, attempt=i)
        attempts = retry.max_retries + 1
        if i + 1 < attempts:
            client.retries += 1
            self.attempt = i + 1
            self._after(retry.backoff(i), self._try)
            return
        self._give_up(RequestTimeoutError(
            f"{client.name}: sub-request {sub.id} to server {sub.server} "
            f"got no reply after {attempts} attempts "
            f"(timeout {retry.timeout}s each)"), wallclock=False)

    def _succeed(self, _event) -> None:
        client = self.client
        sub = self.sub
        if sub.span is not None and client.obs is not None:
            client.obs.finish(sub.span, self.env.now)
        client.outstanding -= 1
        _schedule(self.env, self._report, 0)
        self._end()

    def _give_up(self, exc: RequestTimeoutError, wallclock: bool) -> None:
        client = self.client
        client.exhausted += 1
        if wallclock:
            client.wallclock_exhausted += 1
        client.outstanding -= 1
        self.error = exc
        _schedule(self.env, self._report, 0)
        self._end()

    def _report(self, _event) -> None:
        """Count down on the request's join: the first failure or the
        last success resolves it, and what reports after that is
        absorbed."""
        request = self.request
        if not request.pending:
            return
        if self.error is not None:
            request.error = self.error
            request.pending = 0
        else:
            request.pending -= 1
            if request.pending:
                return
        _schedule(self.env, request._complete, 0)


class _Attempt(Chain):
    """One attempt against a local server: request message, server
    job, reply message."""

    __slots__ = ("client", "sub", "server", "attempt_done")

    def __init__(self, client: PFSClient, sub: SubRequest, server,
                 attempt_done: Event) -> None:
        self.env = client.env
        self.client = client
        self.sub = sub
        self.server = server
        self.attempt_done = attempt_done
        self._start(self._send)

    def _send(self, _event: Event) -> None:
        sub = self.sub
        req_payload = sub.nbytes if sub.op is Op.WRITE else 0
        self.client.network.send(self.client.name, self.server.name,
                                 req_payload, obs_parent=sub.span,
                                 then=self._serve)

    def _serve(self, _event: Event) -> None:
        self.server.submit(self.sub, then=self._reply)

    def _reply(self, _event: Event) -> None:
        sub = self.sub
        resp_payload = sub.nbytes if sub.op is Op.READ else 0
        self.client.network.send(self.server.name, self.client.name,
                                 resp_payload, obs_parent=sub.span,
                                 then=self._replied)

    def _replied(self, _event: Event) -> None:
        if not self.attempt_done.triggered:
            self.attempt_done.succeed(self.sub)
        self._end()
