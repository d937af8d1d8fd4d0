"""Per-cluster observability wiring: one telemetry spine per run.

:class:`ObsRuntime` owns the run's :class:`~repro.obs.span.Tracer`,
:class:`~repro.obs.metrics.MetricsRegistry` and the registry's sampler,
the :class:`~repro.obs.timeline.TimelineRecorder`, and attaches them to
every instrumented component (clients, network, servers, iBridge
managers, block queues) the way :class:`~repro.audit.runtime.AuditRuntime`
attaches its auditors.  It copies no other telemetry source: audit
records stay in the audit :class:`~repro.audit.trace.EventTrace` (and
its ``--audit-trace`` JSONL), dispatches in the per-disk
:class:`~repro.block.blktrace.BlockTracer`.

Lifecycle (mirrors the audit runtime):

* built by :class:`~repro.pfs.cluster.Cluster` when
  ``config.obs.enabled``;
* the timeline ticker runs as a sim process until :meth:`stop`
  (``Cluster.shutdown`` calls it, like the watchdog);
* :meth:`finish_run` (called by the workload harness after the drain)
  takes a final timeline sample (fault windows become its marks) and
  exports spans and the timeline (with the registry's histograms) to
  the configured paths —
  appending, so multi-cluster experiments accumulate into one file
  that the CLI truncated once up front (the ``--audit-trace``
  contract);
* nothing resets telemetry between a workload's warm passes and its
  timed pass: :meth:`reset` exists but has no caller, so the spans,
  marks, samples and the ``obs_*``/``timeline_last[...]`` result
  extras of a run with ``warm_runs`` cover the warm passes too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .critical_path import RunReport, analyze
from .export import append_spans
from .metrics import MetricsRegistry
from .span import Tracer
from .timeline import TimelineRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import ObsConfig
    from ..pfs.cluster import Cluster


class ObsRuntime:
    """Tracer + metrics registry + timeline + wiring for one cluster."""

    def __init__(self, env, config: "ObsConfig") -> None:
        self.env = env
        self.config = config
        self.tracer: Optional[Tracer] = (
            Tracer(max_spans=config.max_spans,
                   sample_n=config.trace_sample_n) if config.trace else None)
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if config.metrics else None)
        #: The registry's sampler (None exactly when the registry is).
        self.timeline: Optional[TimelineRecorder] = (
            TimelineRecorder(self.registry, config.timeline_dt)
            if self.registry is not None else None)
        #: Fault-injector record list (attached by the cluster after the
        #: injector installs); converted to timeline marks at finish.
        self._fault_records = None
        self._fault_marked = 0
        self._finished = False
        # Incremental span streaming (config.flush_spans > 0): closed
        # spans buffer here and hit the JSONL file every flush_spans
        # closures, so an aborted or killed run still leaves its trace
        # prefix on disk instead of losing everything export-at-finish
        # would have written.
        self._stream_buf: list = []
        self._streaming = bool(self.tracer is not None
                               and config.trace_path
                               and config.flush_spans > 0)
        if self._streaming:
            self.tracer.sink = self._span_closed

    # ------------------------------------------------------------- wiring
    def wire_cluster(self, cluster: "Cluster") -> None:
        """Attach the tracer/registry to every instrumented component."""
        tracer = self.tracer
        cluster.network.obs = tracer
        for server in cluster.servers:
            server.obs = tracer
            if self.timeline is not None:
                # GC-storm edges become event-driven timeline marks.
                env = self.env
                server.ssd.obs_mark = (
                    lambda name, tl=self.timeline, sid=server.id:
                    tl.mark(name, env.now, server=sid))
            self._wire_queue(server.ssd_queue, server.id, "ssd")
            for d, unit in enumerate(server.disks):
                self._wire_queue(unit.queue, server.id, f"hdd{d}")
                if unit.ibridge is not None:
                    self._wire_manager(unit.ibridge, server.id, d)
        if self.timeline is not None:
            self.timeline.start(self.env)

    def wire_client(self, client) -> None:
        client.obs = self.tracer
        if self.registry is not None:
            self.registry.gauge("outstanding_subrequests",
                                (lambda c=client: c.outstanding),
                                client=client.id)

    def attach_faults(self, injector) -> None:
        """Record the injector's window log; its begin/end records are
        replayed as timeline marks at finish (they carry sim times, so
        the pull is lossless)."""
        self._fault_records = injector.records

    def _wire_queue(self, queue, server_id: int, dev: str) -> None:
        queue.obs = self.tracer
        if self.registry is not None:
            self.registry.gauge("queue_depth", (lambda q=queue: q.pending),
                                server=server_id, dev=dev)
            device = queue.device
            if getattr(device, "ftl", None) is not None:
                self.registry.gauge(
                    "ssd_gc_active",
                    (lambda d=device: 1 if d.gc_active else 0),
                    server=server_id, dev=dev)
                self.registry.gauge(
                    "ssd_write_amplification",
                    (lambda d=device: d.ftl.write_amplification),
                    server=server_id, dev=dev)
                self.registry.gauge(
                    "ssd_gc_free_fraction",
                    (lambda d=device: d.ftl.free_fraction()),
                    server=server_id, dev=dev)
                self.registry.gauge(
                    "ssd_gc_stall_seconds",
                    (lambda d=device: d.gc_stall_time),
                    server=server_id, dev=dev)

    def _wire_manager(self, manager, server_id: int, disk: int) -> None:
        manager.obs = self.tracer
        manager.metrics = self.registry
        reg = self.registry
        if reg is None:
            return
        if manager._log is not None:
            reg.gauge("ssd_log_live_bytes",
                      (lambda m=manager: m._log.live_bytes
                       if m._log is not None else 0),
                      server=server_id, disk=disk)
            reg.gauge("ssd_log_free_segments",
                      (lambda m=manager: m._log.free_segments
                       if m._log is not None else 0),
                      server=server_id, disk=disk)
        reg.gauge("partition_used_bytes",
                  (lambda m=manager: m.partition.used()),
                  server=server_id, disk=disk)
        reg.gauge("partition_fragment_share",
                  (lambda m=manager: m.partition.shares()[1]),
                  server=server_id, disk=disk)
        # Cumulative manager counters sampled as time series: the
        # sampled deltas are the paper-relevant admission rates.
        reg.gauge("ibridge_redirected_writes",
                  (lambda m=manager: m.stats.ssd_redirected_writes),
                  server=server_id, disk=disk)
        reg.gauge("ibridge_rejected_admissions",
                  (lambda m=manager: m.stats.rejected_admissions),
                  server=server_id, disk=disk)

    # ---------------------------------------------------------- streaming
    def _span_closed(self, span) -> None:
        self._stream_buf.append(span)
        if len(self._stream_buf) >= self.config.flush_spans:
            self.flush_spans()

    def flush_spans(self) -> int:
        """Write buffered closed spans to the trace path now; returns the
        number of rows appended.

        No-op unless streaming is on.  Called every ``flush_spans``
        closures and by :meth:`finish_run`, so a traced run that aborts
        or is killed keeps the spans flushed before it stopped.
        """
        if not self._streaming or not self._stream_buf:
            return 0
        rows = append_spans(self.config.trace_path, self._stream_buf)
        self._stream_buf.clear()
        return rows

    # ----------------------------------------------------------- lifecycle
    def stop(self) -> None:
        """Stop the timeline ticker (lets ``env.run()`` terminate)."""
        if self.timeline is not None:
            self.timeline.stop()

    def reset(self) -> None:
        """Drop the telemetry accumulated so far (a measurement reset).

        Not called by :func:`~repro.workloads.base.run_workload`: warm
        passes stay in the telemetry, and calling this at the warm→timed
        boundary would change the ``obs_*`` extras that ``run_digest``
        covers.
        """
        if self.tracer is not None:
            self.tracer.clear()
        if self.registry is not None:
            self.registry.clear()
        if self.timeline is not None:
            self.timeline.clear()
            self._fault_marked = 0
        # Anything still buffered belongs to the discarded passes.
        self._stream_buf.clear()

    def finish_run(self) -> None:
        """Final timeline sample + export to the configured paths
        (idempotent)."""
        if self._finished:
            return
        self._finished = True
        if self.timeline is not None:
            self.timeline.sample(self.env.now)
            self.timeline.stop()
            self._mark_fault_windows()
            if self.config.timeline_path:
                self.timeline.export_jsonl(self.config.timeline_path)
        if self.tracer is not None and self.config.trace_path:
            if self._streaming:
                # Everything closed already streamed; drain the tail.
                self.flush_spans()
            else:
                closed = [s for s in self.tracer.spans if s.end is not None]
                append_spans(self.config.trace_path, closed)

    def _mark_fault_windows(self) -> None:
        """Convert injector begin/end records into timeline marks."""
        if self.timeline is None or self._fault_records is None:
            return
        records = self._fault_records[self._fault_marked:]
        self._fault_marked = len(self._fault_records)
        for rec in records:
            attrs = {"event": rec.event.kind.value}
            if getattr(rec.event, "server", None) is not None:
                attrs["server"] = rec.event.server
            self.timeline.mark(f"fault_{rec.phase}", rec.time, **attrs)

    def timeline_last(self):
        """Per-series last sampled value (None when timeline off)."""
        if self.timeline is None:
            return None
        return self.timeline.last_values()

    # ------------------------------------------------------------ analysis
    def analyze(self) -> RunReport:
        """Critical-path report over the spans retained in memory."""
        if self.tracer is None:
            return RunReport()
        return analyze(self.tracer.spans)
