"""Partitioned-horizon DES: one cluster as shards stepped in lock-step.

One big simulated cluster is partitioned round-robin into ``shards``
pieces — server ``i`` lives on shard ``i % nshards``, client node ``c``
on shard ``c % nshards`` — and each shard runs its own
:class:`~repro.sim.core.Environment` (its own event heap, clock, RNG
streams and telemetry).  Every shard runs in this one process: the
engine is a determinism and differential harness for the serial engine,
not a way to make a run faster (DESIGN.md §14 records why).  The shards
advance in lock-step through *conservative time windows* (Chandy–Misra
style, window-barrier variant):

1. every shard reports the time of its next pending event;
2. the coordinator sets the window end ``T = min(next events, pending
   cross-shard arrivals) + L`` where the lookahead ``L`` is the
   cross-shard message latency (``ClusterConfig.shard_lookahead``,
   default ``network.latency``);
3. each shard runs ``env.run(until=T)`` and collects the cross-shard
   messages that *departed* during the window into an outbox;
4. the coordinator routes the outboxes and delivers each record to its
   destination shard at ``arrival = departure + L``.

Safety: the earliest event any shard processes inside a window is at
``T - L`` (step 2), so every cross-shard departure ``d`` satisfies
``d >= T - L`` and its arrival ``d + L >= T`` — never in the receiver's
past.  Progress: ``L > 0`` makes each window strictly advance the
clock, and idle shards jump straight to the cluster-wide next event
(windows are *not* fixed-width).  See DESIGN.md §14 for the proof and
the fidelity deviations of the sharded network boundary.

Cross-shard traffic is exactly the client↔server RPC of
:mod:`repro.pfs`: a client whose target server lives elsewhere talks to
a :class:`~repro.pfs.remote.RemoteServerStub`, which plays the sender
leg of the request message locally and posts a pickled, span-stripped
:class:`~repro.pfs.messages.SubRequest` to the shard outbox; the owning
shard replays arrival → ``server.submit`` → service → reply leg and
posts a reply record that completes the client's (shared, late-reply
safe) attempt event.

Fault plans partition with the cluster: each shard's injector drives
the plan events targeting its own servers, while network windows and
fleet-wide storms install on every shard (a cross-shard round trip
plays its request leg on the client's shard and its reply leg on the
server's, so a net window must exist on both to be honored).  Drop-RNG
substreams are keyed by plan name + *plan* event index — never by the
partition — and the coordinator merges transition logs, recovery
counters and restoration checks (:func:`merge_fault_records`,
:func:`merge_recovery`, :func:`run_sharded_episode`).

Determinism: for a fixed ``(seed, shards)`` the partition, the window
schedule, the per-destination record order (sorted by departure time,
source shard, sequence number) and every per-shard heap order are all
deterministic, so sharded runs are exactly repeatable.  ``shards=1``
short-circuits to the serial :func:`repro.workloads.base.run_workload`
path and is therefore *bit-identical* to an unsharded run.  Request id
spaces are partitioned (shard ``k`` draws ids from ``k * 10**9 + 1``)
so merged request lists never collide.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

from ..errors import AuditError, SimulationError, WorkloadError

#: Each shard draws request ids from its own block so merged ledgers and
#: request lists never collide (10**9 ids per shard is far beyond any
#: run; the serial path keeps the ordinary shared counter).
ID_STRIDE = 10 ** 9

_INF = float("inf")


# --------------------------------------------------------------------------
# Shard context: partition map + cross-shard mailbox
# --------------------------------------------------------------------------
class ShardContext:
    """Partition ownership and the outgoing cross-shard mailbox.

    Passed to :class:`~repro.pfs.cluster.Cluster` as ``shard=``; the
    cluster builds :class:`~repro.pfs.remote.RemoteServerStub` objects
    for the servers this shard does not own, and the stubs post their
    wire records here.  The worker drains :attr:`outbox` at every
    window barrier.
    """

    def __init__(self, shard_id: int, nshards: int) -> None:
        self.shard_id = shard_id
        self.nshards = nshards
        #: Bound to the shard cluster's environment after construction.
        self.env = None
        #: Records departing this window: see the tuple formats below.
        self.outbox: List[tuple] = []
        #: token -> (attempt_done event, original SubRequest) for
        #: requests awaiting a remote reply.
        self.waiters: Dict[int, tuple] = {}
        self._tokens = itertools.count(1)
        #: Per-shard record sequence — the deterministic tie-breaker for
        #: same-instant departures at the coordinator's routing sort.
        self._seq = itertools.count(1)

    # ----------------------------------------------------------- ownership
    def owns_server(self, server_id: int) -> bool:
        return server_id % self.nshards == self.shard_id

    def owns_client(self, node_id: int) -> bool:
        return node_id % self.nshards == self.shard_id

    def shard_of_server(self, server_id: int) -> int:
        return server_id % self.nshards

    # ------------------------------------------------------------ mailbox
    # Record wire formats (plain picklable tuples):
    #   ("req", dst_shard, depart, src_shard, seq,
    #    token, server_id, client_name, wire_sub_pickle)
    #   ("rep", dst_shard, depart, src_shard, seq, token)
    def post_request(self, stub, client_name: str, wire_sub,
                     attempt_done, original_sub) -> None:
        """Queue one request record; the reply will complete
        ``attempt_done`` with ``original_sub`` as its value."""
        token = next(self._tokens)
        self.waiters[token] = (attempt_done, original_sub)
        self.outbox.append((
            "req", self.shard_of_server(stub.id), self.env.now,
            self.shard_id, next(self._seq),
            token, stub.id, client_name, pickle.dumps(wire_sub)))

    def post_reply(self, dst_shard: int, token: int) -> None:
        """Queue one reply record back to the requesting shard."""
        self.outbox.append((
            "rep", dst_shard, self.env.now, self.shard_id,
            next(self._seq), token))

    def take_outbox(self) -> List[tuple]:
        out = self.outbox
        self.outbox = []
        return out


# --------------------------------------------------------------------------
# The per-shard MPI run: launch only locally-owned ranks
# --------------------------------------------------------------------------
class _ForbiddenBarrier:
    """Barriers need every rank; a shard only has some of them."""

    def wait(self):
        raise WorkloadError(
            "MPI barriers are not supported with shards > 1: the barrier "
            "group spans shards (run this workload with shards=1)")


def _shard_run_cls():
    # Deferred import: repro.pfs imports repro.sim's package __init__,
    # so this module must not import repro.mpi/pfs at its own import
    # time from inside the repro.sim package namespace setup.
    from ..mpi.runtime import MPIRun, RankContext

    class _ShardRun(MPIRun):
        """One mpiexec job restricted to this shard's client nodes.

        Rank ``r`` runs on client node ``r % client_nodes``; the shard
        launches exactly the ranks whose node it owns.  Rank numbering,
        per-rank bodies and per-client RNG streams are unchanged, so
        the union over shards is the serial rank population.
        """

        def __init__(self, cluster, nprocs, client_nodes, shard):
            super().__init__(cluster, nprocs, client_nodes=client_nodes)
            self._shard = shard
            self.barrier = _ForbiddenBarrier()

        @property
        def collective(self):
            raise WorkloadError(
                "collective I/O is not supported with shards > 1: the "
                "two-phase exchange spans shards (run with shards=1)")

        def launch(self, body):
            env = self.cluster.env
            self._rank_procs = [
                env.process(body(RankContext(self, rank)),
                            name=f"rank{rank}")
                for rank in range(self.nprocs)
                if self._shard.owns_client(rank % self.client_nodes)
            ]
            return env.all_of(self._rank_procs)

    return _ShardRun


# --------------------------------------------------------------------------
# The shard worker: one environment + cluster + window protocol endpoint
# --------------------------------------------------------------------------
def _shard_config(cfg, shard_id: int):
    """Give per-shard suffixes to every configured telemetry path so
    shards never interleave writes in one file."""
    changes = {}
    obs_changes = {}
    for name in ("trace_path", "metrics_path", "metrics_text_path",
                 "timeline_path"):
        path = getattr(cfg.obs, name, None)
        if path:
            obs_changes[name] = f"{path}.shard{shard_id}"
    if obs_changes:
        changes["obs"] = dataclasses.replace(cfg.obs, **obs_changes)
    if getattr(cfg.audit, "trace_path", None):
        changes["audit"] = dataclasses.replace(
            cfg.audit, trace_path=f"{cfg.audit.trace_path}.shard{shard_id}")
    return dataclasses.replace(cfg, **changes) if changes else cfg


class ShardWorker:
    """Owns one shard: its cluster, its clock, its mailbox endpoint.

    Driven by the coordinator through a small call surface (`setup`,
    `launch`, `window`, `peek`, `drain`, `sync`, `reset`, `health`,
    `mark_start`, `finalize`).  The shard shares no objects with its
    siblings: it builds its cluster from its own unpickled copy of the
    workload, and cross-shard requests reach it as pickled records.
    """

    def __init__(self, cfg, workload_pickle: bytes, shard_id: int,
                 nshards: int, lookahead: float,
                 fault_plan=None) -> None:
        self.cfg = _shard_config(cfg, shard_id)
        self.workload = pickle.loads(workload_pickle)
        self.shard_id = shard_id
        self.nshards = nshards
        self.lookahead = lookahead
        self.fault_plan = fault_plan
        self.ctx = ShardContext(shard_id, nshards)
        self.cluster = None
        self._run = None
        self._done = None
        self._start = 0.0
        self._base_read = 0
        self._base_written = 0

    # ------------------------------------------------------------ lifecycle
    def setup(self) -> int:
        from ..pfs.cluster import Cluster
        self.cluster = Cluster(self.cfg, shard=self.ctx,
                               fault_plan=self.fault_plan)
        self.ctx.env = self.cluster.env
        self.workload.prepare(self.cluster)
        return self.shard_id

    def launch(self) -> Tuple[float, bool]:
        """Start this shard's ranks; returns (next event time, done?)."""
        wl = self.workload
        run_cls = _shard_run_cls()
        self._run = run_cls(self.cluster, wl.nprocs,
                            wl.client_nodes or wl.nprocs, self.ctx)
        self._done = self._run.launch(wl.body)
        return self.cluster.env.peek(), self._done.triggered

    # -------------------------------------------------------------- window
    def window(self, t_end: float, records: List[tuple]
               ) -> Tuple[List[tuple], float, bool, tuple]:
        """Deliver ``records``, run until ``t_end``, drain the outbox.

        Returns ``(outbox, next_event_time, ranks_done, stats)``.
        Records whose arrival falls beyond ``t_end`` stay queued in the
        local heap (their timeout simply fires in a later window) — the
        returned ``next_event_time`` accounts for them via ``peek``.

        ``stats`` is the barrier profiler's per-window telemetry,
        ``(busy_ns, idle_ns, events, sent, recv)``: integer-nanosecond
        wall clocks (``time.perf_counter_ns`` — integers so the
        coordinator's busy + idle + wait == wall identity is *exact*,
        never float-rounded), the number of events the shard scheduled
        during the window (the heap sequence counter delta — the
        zero-cost activity proxy; the hot dispatch loop is left
        untouched), and the cross-shard mailbox volume both ways.
        """
        t0 = time.perf_counter_ns()
        env = self.cluster.env
        for rec in records:
            arrival = rec[2] + self.lookahead
            if rec[0] == "req":
                token, server_id, client_name, wire = rec[5:9]
                sub = pickle.loads(wire)
                env.process(
                    self._serve_remote(arrival, rec[3], token,
                                       server_id, client_name, sub),
                    name=f"xshard-req:{rec[3]}:{token}")
            else:
                env.process(self._deliver_reply(arrival, rec[5]),
                            name=f"xshard-rep:{rec[3]}:{rec[5]}")
        seq0 = env._seq
        t1 = time.perf_counter_ns()
        env.run(until=t_end)
        t2 = time.perf_counter_ns()
        outbox = self.ctx.take_outbox()
        t3 = time.perf_counter_ns()
        stats = (t2 - t1,                      # busy: simulating
                 (t1 - t0) + (t3 - t2),        # idle: mailbox plumbing
                 env._seq - seq0, len(outbox), len(records))
        return (outbox, env.peek(),
                self._done is not None and self._done.triggered, stats)

    def _serve_remote(self, arrival: float, src_shard: int, token: int,
                      server_id: int, client_name: str, sub):
        """Replay the server-side middle of a cross-shard round trip."""
        from ..devices.base import Op
        env = self.cluster.env
        delay = arrival - env.now
        if delay > 0.0:
            yield env.timeout(delay)
        server = self.cluster.servers[server_id]
        yield server.submit(sub)
        resp_payload = sub.nbytes if sub.op is Op.READ else 0
        ok = yield self.cluster.network.send_local_leg(
            server.name, client_name, resp_payload)
        if ok:
            self.ctx.post_reply(src_shard, token)

    def _deliver_reply(self, arrival: float, token: int):
        env = self.cluster.env
        delay = arrival - env.now
        if delay > 0.0:
            yield env.timeout(delay)
        waiter = self.ctx.waiters.pop(token, None)
        if waiter is not None:
            attempt_done, original_sub = waiter
            # Shared attempt event: a late reply to an earlier attempt
            # may race a retry's — first one wins, the rest are no-ops.
            if not attempt_done.triggered:
                attempt_done.succeed(original_sub)

    # -------------------------------------------------------- pass control
    def drain(self) -> float:
        self.cluster.drain()
        return self.cluster.env.now

    def peek(self) -> float:
        """Next local event time (seeds the settle loop's candidates)."""
        return self.cluster.env.peek()

    def sync(self, t: float) -> float:
        """Advance the local clock to the cluster-wide time ``t``.

        Used after per-shard drains (which advance clocks unevenly) so
        the next pass's cross-shard departures share one time base.  No
        rank is active during a sync, so request traffic in the outbox
        is a protocol violation.  Leftover *replies* are legal under
        faults: a retried sub-request's earlier serving can complete
        during the drain, after its client already resolved the shared
        attempt event — delivering them would be a no-op, so they are
        dropped here instead of routed.
        """
        env = self.cluster.env
        if t > env.now or env.peek() <= t:
            env.run(until=t)
        leftover = self.ctx.take_outbox()
        if any(rec[0] != "rep" for rec in leftover):
            raise SimulationError(
                f"shard {self.shard_id}: cross-shard request traffic "
                "during clock sync (rank still active after its pass "
                "ended)")
        return env.now

    def reset(self) -> None:
        from ..workloads.base import _reset_measurement_state
        _reset_measurement_state(self.cluster)

    def health(self) -> List[str]:
        """This shard's restoration oracle (meaningful once settled)."""
        from ..faults.health import restoration_failures
        return restoration_failures(self.cluster)

    def mark_start(self) -> float:
        """Begin the measured pass: align telemetry, snapshot baselines."""
        cl = self.cluster
        if cl.obs is not None and cl.obs.registry is not None:
            cl.obs.registry.sample(cl.env.now)
        self._start = cl.env.now
        # Server byte counters accumulate across warm passes (the serial
        # reset deliberately keeps them), so the cross-shard conservation
        # ledger diffs against baselines taken here.
        self._base_read = sum(s.stats.bytes_read for s in cl.servers
                              if not s.is_remote)
        self._base_written = sum(s.stats.bytes_written for s in cl.servers
                                 if not s.is_remote)
        return self._start

    # ------------------------------------------------------------- results
    def finalize(self) -> Dict:
        """Close out the run; return this shard's picklable summary."""
        from ..devices.base import Op
        cl = self.cluster
        summary: Dict = {
            "shard": self.shard_id,
            "makespan": cl.env.now - self._start,
            "now": cl.env.now,
            "requests": list(cl.requests),
            "timeouts": sum(c.timeouts for c in cl._clients.values()),
            "ibridge": None,
            "obs": None,
            "audit": None if cl.audit is None else cl.audit.verdict(),
            "delta_read": sum(s.stats.bytes_read for s in cl.servers
                              if not s.is_remote) - self._base_read,
            "delta_written": sum(s.stats.bytes_written for s in cl.servers
                                 if not s.is_remote) - self._base_written,
            "req_read_bytes": sum(
                p.nbytes for p in cl.requests
                if p.complete_time is not None
                and p.submit_time >= self._start and p.op is Op.READ),
            "req_write_bytes": sum(
                p.nbytes for p in cl.requests
                if p.complete_time is not None
                and p.submit_time >= self._start and p.op is Op.WRITE),
        }
        stats = cl.ibridge_stats()
        if stats is not None:
            summary["ibridge"] = dict(vars(stats))
        from ..workloads.base import recovery_snapshot
        summary["recovery"] = recovery_snapshot(cl)
        if cl.faults is not None:
            summary["fault_records"] = [
                {"time": r.time, "phase": r.phase,
                 "event": r.event.to_dict(), "detail": dict(r.detail),
                 "index": r.index}
                for r in cl.faults.records]
        if cl.obs is not None and cl.obs.timeline is not None:
            summary["timeline_rows"] = len(cl.obs.timeline.rows)
        if cl.obs is not None:
            cl.obs.finish_run()
            if cl.obs.tracer is not None:
                report = cl.obs.analyze()
                summary["obs"] = {
                    "spans": len(cl.obs.tracer.spans),
                    "traces": report.count,
                    "mean_magnification": report.mean_magnification,
                    "unsampled": cl.obs.tracer.unsampled,
                }
        cl.shutdown()
        return summary


# --------------------------------------------------------------------------
# Coordinator
# --------------------------------------------------------------------------
def _route(outboxes: List[List[tuple]], nshards: int) -> List[List[tuple]]:
    """Bucket records by destination shard, deterministically ordered."""
    buckets: List[List[tuple]] = [[] for _ in range(nshards)]
    for records in outboxes:
        for rec in records:
            buckets[rec[1]].append(rec)
    for bucket in buckets:
        # (departure time, source shard, per-source sequence): a total
        # order independent of outbox collection order.
        bucket.sort(key=lambda r: (r[2], r[3], r[4]))
    return buckets


def _merge_audit(cfg, summaries: List[Dict]) -> Optional[Dict]:
    """Combine per-shard audit verdicts into one cluster-wide verdict."""
    verdicts = [s["audit"] for s in summaries if s["audit"] is not None]
    if not verdicts:
        return None
    firsts = [v["first"] for v in verdicts if v["first"] is not None]
    return {
        "ok": all(v["ok"] for v in verdicts),
        "violations": sum(v["violations"] for v in verdicts),
        "checks": sorted({c for v in verdicts for c in v["checks"]}),
        "watchdog_fired": sum(v["watchdog_fired"] for v in verdicts),
        "first": (min(firsts, key=lambda f: f.get("t") or 0.0)
                  if firsts else None),
    }


class _Coordinator:
    """Every shard of one run, stepped in this process by the window
    protocol.

    Each worker owns a pickled copy of the workload and its own
    request-id block: every call into shard ``k`` runs with shard
    ``k``'s private ``itertools.count`` installed as
    ``repro.pfs.messages._request_ids`` and the caller's counter
    restored afterwards, so interleaved serial runs in the same process
    stay bit-identical.  The workers are built and set up on
    construction; :attr:`windows` counts every barrier of every
    completed pass.
    """

    def __init__(self, cfg, workload, fault_plan=None) -> None:
        self.nshards = cfg.shards
        self.lookahead = (cfg.shard_lookahead
                          if cfg.shard_lookahead is not None
                          else cfg.network.latency)
        wire = pickle.dumps(workload)
        self._counters = [itertools.count(k * ID_STRIDE + 1)
                          for k in range(self.nshards)]
        self.workers = [ShardWorker(cfg, wire, k, self.nshards,
                                    self.lookahead, fault_plan)
                        for k in range(self.nshards)]
        self.windows = 0
        self.call_all("setup")

    def _call(self, i: int, method: str, args: tuple):
        from ..pfs import messages
        saved = messages._request_ids
        messages._request_ids = self._counters[i]
        try:
            return getattr(self.workers[i], method)(*args)
        finally:
            messages._request_ids = saved

    def call_all(self, method: str, *args) -> List:
        """Call ``method(*args)`` on every shard, in shard order."""
        return [self._call(i, method, args) for i in range(self.nshards)]

    def drain(self) -> None:
        """Drain every shard, then align all clocks at the latest one."""
        self.call_all("sync", max(self.call_all("drain")))

    # ------------------------------------------------------ window loop
    def run_pass(self, drain: bool, until: Optional[float] = None,
                 profile: Optional[List[Dict[str, Any]]] = None,
                 guard=None) -> None:
        """Run windows until the pass is over.

        With ``until=None`` this is one workload pass: launch every
        shard's ranks and run until all of them finished and no
        cross-shard record is in flight.  With a horizon ``until`` it
        is the settle pass: the ranks are done, and what is still live
        is the injector's cleanup transitions, recovery writeback, and
        straggling cross-shard serves from retried sub-requests.  Local
        events *before* ``until`` plus every pending cross-shard
        arrival are run out, and a final ``sync`` aligns all clocks at
        the horizon (dropping late replies; see
        :meth:`ShardWorker.sync`).  ``drain`` then drains every shard
        and aligns the clocks again.

        When ``profile`` is a list, every window appends one telemetry
        record to it (the barrier profiler).  Per shard the record
        carries busy/idle nanoseconds from the worker's own clock; the
        coordinator derives the barrier semantics: a window's wall time
        is the slowest shard's work time (``wall = max(busy + idle)``),
        every other shard waited out the difference (``wait = wall -
        work``), and the shard with the maximal work *gated* the
        window.  All integers, so ``busy + idle + wait == wall`` holds
        exactly for every shard.

        ``guard`` (the chaos budget hook) is called after every window
        as ``guard(t_end, events)`` with the window's end time and the
        total engine events the shards scheduled in it; it raises
        :class:`~repro.errors.EpisodeBudgetError` to abort a runaway
        episode.  It runs at the coordinator — never inside a shard's
        heap — so it cannot perturb event order.
        """
        nshards, lookahead = self.nshards, self.lookahead
        settle = until is not None
        horizon = until if settle else _INF
        if settle:
            next_times = self.call_all("peek")
            dones = [True] * nshards
        else:
            launches = self.call_all("launch")
            next_times = [l[0] for l in launches]
            dones = [l[1] for l in launches]
        pending: List[List[tuple]] = [[] for _ in range(nshards)]
        windows = 0
        t_prev: Optional[float] = None
        while True:
            candidates = [t for t in next_times if t < horizon]
            for bucket in pending:
                # Pending mail must be delivered regardless of the horizon.
                candidates.extend(rec[2] + lookahead for rec in bucket)
            if settle:
                if not candidates:
                    break
            elif all(dones) and not any(pending):
                break
            elif not candidates:
                raise SimulationError(
                    "sharded run cannot progress: every shard is out of "
                    "events but some ranks never finished (lost "
                    "cross-shard completion?)")
            if t_prev is None:
                t_prev = min(candidates)
            t_next = min(candidates) + lookahead
            results = [self._call(i, "window", (t_next, pending[i]))
                       for i in range(nshards)]
            windows += 1
            if profile is not None:
                profile.append(_window_record(results, t_prev, t_next))
            t_prev = t_next
            if guard is not None:
                guard(t_next, sum(r[3][2] for r in results))
            next_times = [r[1] for r in results]
            dones = [r[2] for r in results]
            pending = _route([r[0] for r in results], nshards)
        if settle:
            self.call_all("sync", until)
        if drain:
            self.drain()
        self.windows += windows

    # ---------------------------------------------------- pass sequence
    def run_measured(self, warm_runs: int, drain: bool = True,
                     reset_after_warm: bool = True,
                     profile: Optional[List[Dict[str, Any]]] = None,
                     guard=None) -> None:
        """Warm passes → measurement reset → ``mark_start`` → timed
        pass.  ``guard`` watches every pass, ``profile`` only the timed
        one."""
        for _ in range(max(0, warm_runs)):
            self.run_pass(drain, guard=guard)
        if warm_runs and reset_after_warm:
            self.call_all("reset")
        self.call_all("mark_start")
        self.run_pass(drain, profile=profile, guard=guard)


def _window_record(results: List[tuple], t_prev: float,
                   t_next: float) -> Dict[str, Any]:
    """One barrier-profiler record from a window's worker results."""
    stats = [r[3] for r in results]
    busy = [s[0] for s in stats]
    idle = [s[1] for s in stats]
    work = [b + i for b, i in zip(busy, idle)]
    wall = max(work)
    return {
        "t_end": t_next,
        "width": t_next - t_prev,
        "wall_ns": wall,
        "gating": work.index(wall),
        "busy_ns": busy,
        "idle_ns": idle,
        "wait_ns": [wall - w for w in work],
        "events": [s[2] for s in stats],
        "sent": [s[3] for s in stats],
        "recv": [s[4] for s in stats],
    }


def run_sharded_workload(cfg, workload, warm_runs: int = 0,
                         drain: bool = True,
                         reset_after_warm: bool = True,
                         fault_plan=None):
    """Run ``workload`` on a cluster partitioned into ``cfg.shards``.

    The sharded analog of :func:`repro.workloads.base.run_workload`
    with the same pass structure (warm passes, measurement reset, timed
    pass, drain) and a merged :class:`~repro.analysis.metrics.RunResult`:
    requests concatenated across shards (canonically sorted), makespan
    = the slowest shard's, iBridge/obs counters summed, and the merged
    audit verdict (plus the cross-shard byte-conservation check) on
    ``result.audit_verdict``.  ``shards=1`` routes through the serial
    engine unchanged and is bit-identical to it.

    ``fault_plan`` installs the plan *partitioned* across the shard
    injectors (see ``repro.faults.partition_events``); the merged
    result carries the coordinator-sorted transition log on
    ``result.fault_events`` (each record tagged with its driving shard)
    and the key-wise sum of the per-shard recovery snapshots on
    ``result.recovery``.
    """
    cfg.validate()
    if cfg.shards <= 1:
        from ..pfs.cluster import Cluster
        from ..workloads.base import run_workload
        cluster = Cluster(cfg, fault_plan=fault_plan)
        return run_workload(cluster, workload, drain=drain,
                            warm_runs=warm_runs,
                            reset_after_warm=reset_after_warm)

    coord = _Coordinator(cfg, workload, fault_plan)
    profile_windows: List[Dict[str, Any]] = []
    coord.run_measured(warm_runs, drain, reset_after_warm,
                       profile=profile_windows)
    summaries = coord.call_all("finalize")
    profile = {"nshards": coord.nshards, "lookahead": coord.lookahead,
               "windows": profile_windows}
    return _merge_results(cfg, workload, summaries, profile)


def run_sharded_episode(cfg, workload, fault_plan=None,
                        settle_until: Optional[float] = None,
                        warm_runs: int = 0, guard=None) -> Dict:
    """Chaos-shaped sharded run: pass, settle past the horizon, drain.

    The sharded analog of the chaos episode body: never raises for
    in-simulation failures — the first :class:`~repro.errors.ReproError`
    out of the window protocol is caught and returned, the workers are
    *always* finalized, and the restoration oracle is read only when
    the settle completed.  Mirrors the serial runner's budget
    semantics: a budget abort skips the settle (the run is torn
    anyway).

    Returns a dict with ``summaries`` (per-shard finalize payloads),
    ``error`` (the caught exception or ``None``), ``settled``,
    ``restoration`` (concatenated per-shard oracle findings), and
    ``windows`` (summed over warm, timed and settle passes).
    """
    from ..errors import EpisodeBudgetError, ReproError
    cfg.validate()
    coord = _Coordinator(cfg, workload, fault_plan)
    error: Optional[BaseException] = None
    settled = False
    restoration: List[str] = []
    try:
        coord.run_measured(warm_runs, guard=guard)
    except ReproError as exc:
        error = exc
    if not isinstance(error, EpisodeBudgetError):
        try:
            if settle_until is not None:
                coord.run_pass(drain=False, until=settle_until,
                               guard=guard)
            coord.drain()
            settled = True
        except ReproError as exc:
            if error is None:
                error = exc
    if settled:
        for failures in coord.call_all("health"):
            restoration.extend(failures)
    summaries = coord.call_all("finalize")
    return {"summaries": summaries, "error": error, "settled": settled,
            "restoration": restoration, "windows": coord.windows}


def merge_fault_records(summaries: List[Dict]) -> List[Dict]:
    """One cluster-wide fault transition log from per-shard injectors.

    Records are tagged with the shard that drove them and sorted on
    ``(time, plan index, begin-before-end, shard)`` — the serial
    injector's chronological/plan order, so a targeted-only plan's
    merged log equals the serial log modulo the ``shard`` tags.
    Broadcast events (network windows, fleet storms) legitimately
    appear once per shard: each shard applied the window to its own
    fabric view, and the merged log says so.
    """
    events: List[Dict] = []
    for s in summaries:
        for rec in s.get("fault_records") or ():
            events.append(dict(rec, shard=s["shard"]))
    events.sort(key=lambda r: (r["time"], r["index"],
                               0 if r["phase"] == "begin" else 1,
                               r["shard"]))
    return events


def merge_recovery(summaries: List[Dict]) -> Dict[str, float]:
    """Key-wise sum of per-shard recovery snapshots.

    Every counter in :func:`repro.workloads.base.recovery_snapshot` is
    a sum over disjoint per-shard populations (local clients, local
    servers, the local fabric view), so addition is the exact merge.
    """
    merged: Dict[str, float] = {}
    for s in summaries:
        for key, value in (s.get("recovery") or {}).items():
            merged[key] = merged.get(key, 0.0) + value
    return merged


def _merge_results(cfg, workload, summaries: List[Dict],
                   profile: Dict[str, Any]):
    from ..analysis.metrics import RunResult

    requests = []
    for s in summaries:
        requests.extend(s["requests"])
    requests.sort(key=lambda r: (
        r.complete_time if r.complete_time is not None else _INF,
        r.submit_time if r.submit_time is not None else _INF,
        r.rank, r.offset, r.id))

    agg = None
    if any(s["ibridge"] for s in summaries):
        from ..core.manager import IBridgeStats
        agg = IBridgeStats()
        for s in summaries:
            if s["ibridge"]:
                for name, value in s["ibridge"].items():
                    setattr(agg, name, getattr(agg, name) + value)

    result = RunResult(
        name=workload.name,
        makespan=max(s["makespan"] for s in summaries),
        total_bytes=workload.total_bytes,
        requests=requests,
        ssd_fraction=agg.ssd_fraction if agg is not None else 0.0,
    )
    obs_parts = [s["obs"] for s in summaries if s["obs"] is not None]
    if obs_parts:
        traces = sum(o["traces"] for o in obs_parts)
        result.extra["obs_spans"] = float(sum(o["spans"] for o in obs_parts))
        result.extra["obs_traces"] = float(traces)
        result.extra["obs_mean_magnification"] = (
            sum(o["mean_magnification"] * o["traces"] for o in obs_parts)
            / traces if traces else 0.0)
    result.extra["shards"] = float(len(summaries))
    # One profile record per window of the timed pass.
    result.extra["shard_windows"] = float(len(profile["windows"]))
    if any(s.get("fault_records") is not None for s in summaries):
        result.fault_events = merge_fault_records(summaries)
        result.recovery = merge_recovery(summaries)
    timeline_rows = sum(s.get("timeline_rows") or 0 for s in summaries)
    if timeline_rows:
        result.extra["timeline_rows"] = float(timeline_rows)
    # Wall-clock telemetry, deliberately excluded from run_digest (the
    # digest hashes only numeric extras): the same simulated run
    # profiles differently on every host.
    result.extra["shard_profile"] = profile

    merged = _merge_audit(cfg, summaries)

    # Cross-shard conservation: with no timeouts (hence no duplicate
    # at-least-once servings), the bytes the servers accounted during
    # the measured pass must equal the bytes the completed application
    # requests asked for — the one ledger no single shard can check.
    timeouts = sum(s["timeouts"] for s in summaries)
    conserved = True
    if timeouts == 0:
        delta_read = sum(s["delta_read"] for s in summaries)
        delta_written = sum(s["delta_written"] for s in summaries)
        req_read = sum(s["req_read_bytes"] for s in summaries)
        req_write = sum(s["req_write_bytes"] for s in summaries)
        conserved = (delta_read == req_read and delta_written == req_write)
        if not conserved:
            message = (f"servers read {delta_read} B for {req_read} B of "
                       f"completed read requests, wrote {delta_written} B "
                       f"for {req_write} B of completed write requests")
            if merged is None:
                merged = {"ok": False, "violations": 0, "checks": [],
                          "watchdog_fired": 0, "first": None}
            merged["ok"] = False
            merged["violations"] += 1
            merged["checks"] = sorted(set(merged["checks"])
                                      | {"xshard-conservation"})
            if merged["first"] is None:
                merged["first"] = {"check": "xshard-conservation",
                                   "message": message, "t": None}
            if cfg.audit.enabled and cfg.audit.strict:
                raise AuditError(f"[xshard-conservation] {message}")
    result.extra["xshard_conserved"] = 1.0 if conserved else 0.0
    result.audit_verdict = merged
    return result


# --------------------------------------------------------------------------
# Canonical run digests
# --------------------------------------------------------------------------
def run_digest(result) -> str:
    """A canonical sha256 over everything behavior-visible in a result.

    Request *ids* are excluded on purpose: the sharded engine draws ids
    from per-shard blocks (and back-to-back serial runs in one process
    keep counting up), but ids are labels — they never influence the
    event schedule.  Floats are hashed via ``float.hex`` so the digest
    is exact, not printf-rounded.

    Only numeric extras are hashed: non-numeric extras (the wall-clock
    ``shard_profile``) are host telemetry that varies run over run on
    identical simulated behavior.
    """
    def fhex(x):
        return None if x is None else float(x).hex()

    reqs = sorted(result.requests, key=lambda r: (
        r.complete_time if r.complete_time is not None else -1.0,
        r.submit_time if r.submit_time is not None else -1.0,
        r.rank, r.offset, r.nbytes, r.op.value))
    payload = {
        "name": result.name,
        "makespan": fhex(result.makespan),
        "total_bytes": int(result.total_bytes),
        "ssd_fraction": fhex(result.ssd_fraction),
        "requests": [
            [r.op.value, r.rank, r.offset, r.nbytes,
             fhex(r.submit_time), fhex(r.complete_time)] for r in reqs],
        "extra": {k: fhex(v) for k, v in sorted(result.extra.items())
                  if v is None or isinstance(v, (int, float))},
        "recovery": {k: fhex(v) for k, v in sorted(result.recovery.items())},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Barrier-profile analysis
# --------------------------------------------------------------------------
def analyze_shard_profile(profile: Dict[str, Any]) -> Dict[str, Any]:
    """Digest a ``result.extra["shard_profile"]`` record.

    Per shard, total busy (simulating), idle (mailbox plumbing), and
    barrier-wait nanoseconds, plus how many windows that shard gated
    (was the slowest worker in).  The *bottleneck* shard is the one
    with the largest total work (busy + idle) — the shard the barriers
    spend the run waiting for.  *Parallel efficiency* is aggregate busy
    time over aggregate wall time across all workers,
    ``sum(busy) / (nshards * sum(wall))``: 1.0 means every worker
    simulated for the whole run, lower means barrier waits and mailbox
    plumbing ate the difference.  *Projected speedup* is the most that
    running the shards in parallel could buy with free barriers: the
    summed busy time of all shards over the summed busy time of each
    window's slowest shard, ``sum(busy) / sum_windows(max(busy))``.
    """
    nshards = profile["nshards"]
    windows = profile["windows"]
    busy = [0] * nshards
    idle = [0] * nshards
    wait = [0] * nshards
    events = [0] * nshards
    sent = [0] * nshards
    recv = [0] * nshards
    gated = [0] * nshards
    wall_total = 0
    critical_busy = 0
    for w in windows:
        wall_total += w["wall_ns"]
        critical_busy += max(w["busy_ns"])
        gated[w["gating"]] += 1
        for k in range(nshards):
            busy[k] += w["busy_ns"][k]
            idle[k] += w["idle_ns"][k]
            wait[k] += w["wait_ns"][k]
            events[k] += w["events"][k]
            sent[k] += w["sent"][k]
            recv[k] += w["recv"][k]
    work = [b + i for b, i in zip(busy, idle)]
    bottleneck = work.index(max(work)) if nshards else 0
    efficiency = (sum(busy) / (nshards * wall_total)
                  if wall_total > 0 else 0.0)
    projected = sum(busy) / critical_busy if critical_busy > 0 else 0.0
    widths = [w["width"] for w in windows]
    return {
        "nshards": nshards,
        "lookahead": profile["lookahead"],
        "windows": len(windows),
        "mean_width": sum(widths) / len(widths) if widths else 0.0,
        "wall_ns": wall_total,
        "busy_ns": busy,
        "idle_ns": idle,
        "wait_ns": wait,
        "events": events,
        "sent": sent,
        "recv": recv,
        "gated_windows": gated,
        "bottleneck": bottleneck,
        "efficiency": efficiency,
        "projected_speedup": projected,
    }


def format_shard_profile(profile: Dict[str, Any]) -> str:
    """Render :func:`analyze_shard_profile` as a console table."""
    a = analyze_shard_profile(profile)
    ms = 1e-6  # ns -> ms

    lines = [
        f"shard barrier profile: {a['windows']} windows, "
        f"lookahead {a['lookahead']:g}s, "
        f"mean width {a['mean_width']:.6g}s",
        f"parallel efficiency {a['efficiency']:.1%}, projected speedup "
        f"{a['projected_speedup']:.2f}x (bottleneck: shard {a['bottleneck']})",
        f"{'shard':>5} {'busy ms':>10} {'idle ms':>10} {'wait ms':>10} "
        f"{'events':>9} {'sent':>7} {'recv':>7} {'gated':>6}",
    ]
    for k in range(a["nshards"]):
        tag = "*" if k == a["bottleneck"] else " "
        lines.append(
            f"{k:>4}{tag} {a['busy_ns'][k] * ms:>10.2f} "
            f"{a['idle_ns'][k] * ms:>10.2f} {a['wait_ns'][k] * ms:>10.2f} "
            f"{a['events'][k]:>9} {a['sent'][k]:>7} {a['recv'][k]:>7} "
            f"{a['gated_windows'][k]:>6}")
    return "\n".join(lines)
