"""Workload abstraction and the run harness.

A workload knows how many ranks it needs, how to prepare files on a
cluster, and supplies the per-rank body generator.  The harness wires
it to an :class:`MPIRun`, optionally performs untimed warm runs (the
paper's read-side benefit comes from fragments cached in prior runs of
the same program), runs the measured pass, drains dirty data (the
paper's methodology charges writeback to the program), and packages a
:class:`RunResult`.
"""

from __future__ import annotations

import abc
from typing import Optional

from ..analysis.metrics import RunResult
from ..mpi.runtime import MPIRun, RankContext
from ..pfs.cluster import Cluster


class Workload(abc.ABC):
    """Base class for benchmark workload models."""

    name: str = "workload"

    @property
    @abc.abstractmethod
    def nprocs(self) -> int:
        """Number of MPI ranks."""

    @property
    @abc.abstractmethod
    def total_bytes(self) -> int:
        """Payload bytes moved by one run (for throughput accounting)."""

    @abc.abstractmethod
    def prepare(self, cluster: Cluster) -> None:
        """Create files / record handles.  Called once per cluster."""

    @abc.abstractmethod
    def body(self, ctx: RankContext):
        """The rank body generator (yield events)."""

    #: Compute nodes to spread ranks over (None = one node per rank).
    client_nodes: Optional[int] = None


def run_workload(cluster: Cluster, workload: Workload, drain: bool = True,
                 warm_runs: int = 0, reset_after_warm: bool = True) -> RunResult:
    """Run ``workload`` on ``cluster`` and collect metrics.

    ``warm_runs`` untimed passes precede the measurement; they populate
    iBridge's SSD cache exactly the way earlier executions of the same
    program would.  Statistics and tracers are reset before the timed
    pass when ``reset_after_warm`` is set.
    """
    workload.prepare(cluster)

    for _ in range(max(0, warm_runs)):
        run = MPIRun(cluster, workload.nprocs, client_nodes=workload.client_nodes)
        run.run_to_completion(workload.body)
        if drain:
            cluster.drain()

    if warm_runs and reset_after_warm:
        _reset_measurement_state(cluster)

    if cluster.obs is not None and cluster.obs.registry is not None:
        # Align the sample clock with the measured pass so warm-run
        # drift does not offset the time series.
        cluster.obs.registry.sample(cluster.env.now)

    start = cluster.env.now
    run = MPIRun(cluster, workload.nprocs, client_nodes=workload.client_nodes)
    run.run_to_completion(workload.body)
    if drain:
        cluster.drain()
    makespan = cluster.env.now - start

    stats = cluster.ibridge_stats()
    result = RunResult(
        name=workload.name,
        makespan=makespan,
        total_bytes=workload.total_bytes,
        requests=list(cluster.requests),
        ssd_fraction=stats.ssd_fraction if stats else 0.0,
    )
    if cluster.obs is not None:
        # Export spans/metrics (when paths are configured) and carry the
        # headline critical-path numbers on the result.
        cluster.obs.finish_run()
        if cluster.obs.tracer is not None:
            report = cluster.obs.analyze()
            result.extra["obs_spans"] = float(len(cluster.obs.tracer.spans))
            result.extra["obs_traces"] = float(report.count)
            result.extra["obs_mean_magnification"] = report.mean_magnification
        if cluster.obs.timeline is not None:
            result.extra["timeline_rows"] = float(
                len(cluster.obs.timeline.rows))
            # Flat last-value gauges so downstream consumers (the svc
            # worker result payload, the run report) need no timeline
            # object — just the float extras every transport carries.
            for key, stats in cluster.obs.timeline_summary().items():
                result.extra[f"timeline_last[{key}]"] = stats["last"]
    if cluster.faults is not None:
        result.fault_events = [
            {"time": r.time, "phase": r.phase, "event": r.event.to_dict(),
             "detail": dict(r.detail), "index": r.index}
            for r in cluster.faults.records]
        result.recovery = recovery_snapshot(cluster)
    return result


def recovery_snapshot(cluster: Cluster) -> dict:
    """Current recovery telemetry of a cluster as a flat dict.

    Shared by :func:`run_workload` (which attaches it to
    ``RunResult.recovery``) and the chaos episode runner (which needs
    the same counters even when a run *aborted* — e.g. retry exhaustion
    raising out of the rank bodies — and no ``RunResult`` exists).
    """
    stats = cluster.ibridge_stats()
    clients = list(cluster._clients.values())
    return {
        "timeouts": float(sum(c.timeouts for c in clients)),
        "retries": float(sum(c.retries for c in clients)),
        "request_failures": float(sum(c.failures for c in clients)),
        "exhausted_subrequests": float(sum(c.exhausted for c in clients)),
        "retry_wallclock_exceeded": float(sum(c.wallclock_exhausted
                                              for c in clients)),
        "net_dropped": float(cluster.network.stats.dropped),
        "net_fault_delay_s": cluster.network.stats.fault_delay_time,
        "server_crashes": float(sum(s.crashes for s in cluster.servers)),
        "forfeited_bytes": float(stats.forfeited_bytes if stats else 0),
        "ssd_outages": float(stats.ssd_outages if stats else 0),
    }


def _reset_measurement_state(cluster: Cluster) -> None:
    """Restore pristine machine state after warm passes; keep the cache.

    A warm pass models a *previous execution* of the program: between
    real executions only the iBridge SSD cache persists — disk head
    positions, elevator queues and OS noise sequences do not.  So the
    reset re-seeds the client jitter streams, parks the device heads,
    and rebuilds the (quiescent) schedulers, in addition to clearing
    counters.  Without this, warm runs would perturb timings of
    workloads iBridge does not even touch (e.g. fully aligned patterns)
    and bias stock-vs-iBridge comparisons.
    """
    from ..block.queue import make_scheduler
    from ..core.manager import IBridgeStats
    from ..util.rng import rng_stream

    if cluster.audit is not None:
        # The warm-to-timed boundary is a phase boundary for the audit.
        cluster.audit.checkpoint("warm_reset")
    cluster.requests.clear()
    for client in cluster._clients.values():
        client._rng = rng_stream(cluster.config.seed, f"client:{client.id}")
    for server in cluster.servers:
        for unit in server.disks:
            unit.hdd.reset_stats()
            unit.hdd._head = 0
            unit.queue.scheduler = make_scheduler(cluster.config.hdd_scheduler)
            unit.tracer.clear()
            if unit.ibridge is not None:
                unit.ibridge.stats = IBridgeStats()
        server.ssd.reset_stats()
        server.ssd.reset_streams()
        server.ssd_queue.scheduler = make_scheduler(cluster.config.ssd_scheduler)
