"""Per-cluster observability wiring: one telemetry spine per run.

:class:`ObsRuntime` owns the run's :class:`~repro.obs.span.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` and attaches them to every
instrumented component (clients, network, servers, iBridge managers,
block queues) the way :class:`~repro.audit.runtime.AuditRuntime`
attaches its auditors.  It also installs the sink adapters that make the
two pre-existing telemetry sources — the audit
:class:`~repro.audit.trace.EventTrace` and the per-disk
:class:`~repro.block.blktrace.BlockTracer` — feed the same tracer as
instant events, so one exported file carries the whole story of a run.

Lifecycle (mirrors the audit runtime):

* built by :class:`~repro.pfs.cluster.Cluster` when
  ``config.obs.enabled``;
* the metrics sampler runs as a sim process until :meth:`stop`
  (``Cluster.shutdown`` calls it, like the watchdog);
* :meth:`finish_run` (called by the workload harness after the drain)
  takes a final sample and exports spans/metrics to the configured
  paths — appending, so multi-cluster experiments accumulate into one
  file that the CLI truncated once up front (the ``--audit-trace``
  contract);
* nothing resets telemetry between a workload's warm passes and its
  timed pass: :meth:`reset` exists but has no caller, so the spans,
  events, samples and the ``obs_*``/``timeline_last[...]`` result
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
    """Tracer + metrics registry + component wiring for one cluster."""

    def __init__(self, env, config: "ObsConfig") -> None:
        self.env = env
        self.config = config
        self.tracer: Optional[Tracer] = (
            Tracer(max_spans=config.max_spans,
                   sample_n=config.trace_sample_n) if config.trace else None)
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if config.metrics else None)
        #: Sim-time series recorder (None unless timeline_dt > 0): the
        #: continuous-telemetry sibling of the one-shot registry sample.
        self.timeline: Optional[TimelineRecorder] = (
            TimelineRecorder(self.registry, config.timeline_dt,
                             config.timeline_limit)
            if self.registry is not None and config.timeline_dt > 0
            else None)
        #: Fault-injector record list (attached by the cluster after the
        #: injector installs); converted to timeline marks at finish.
        self._fault_records = None
        self._fault_marked = 0
        self._finished = False
        # Incremental span streaming (config.flush_spans > 0): closed
        # spans buffer here and hit the JSONL file every flush_spans
        # closures, so an aborted / budget-killed / OOM-killed episode
        # still leaves its trace prefix on disk instead of losing
        # everything export-at-finish would have written.
        self._stream_buf: list = []
        self._events_streamed = 0
        self._streaming = bool(self.tracer is not None
                               and config.trace_path
                               and config.flush_spans > 0)
        if self._streaming:
            self.tracer.sink = self._span_closed

    # ------------------------------------------------------------- wiring
    def wire_cluster(self, cluster: "Cluster") -> None:
        """Attach the tracer/registry to every instrumented component."""
        tracer = self.tracer
        reg = self.registry
        cluster.network.obs = tracer
        if tracer is not None and cluster.audit is not None:
            self.attach_event_trace(cluster.audit.trace)
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
                if tracer is not None:
                    self.attach_block_tracer(unit.tracer, unit.queue.name)
                if unit.ibridge is not None:
                    self._wire_manager(unit.ibridge, server.id, d)
        if reg is not None:
            reg.start(self.env, self.config.sample_period)
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

    # ------------------------------------------------------------ adapters
    def attach_event_trace(self, trace) -> None:
        """Mirror audit trace records into the tracer as instant events.

        The tracer keeps a reference to the ring's record, not a copy;
        :func:`~repro.obs.span.event_record` strips ``t``/``kind`` from
        it when the event is read.
        """
        tracer = self.tracer
        if tracer is None:
            return
        add = tracer.add_event
        trace.set_sink(lambda record: add((None, None, record)))

    def attach_block_tracer(self, block_tracer, dev: str) -> None:
        """Mirror blktrace dispatch records into the tracer."""
        tracer = self.tracer
        if tracer is None:
            return
        add = tracer.add_event

        def sink(rec) -> None:
            add(("blk.dispatch", rec.time,
                 {"dev": dev, "op": rec.op.name.lower(),
                  "sectors": rec.sectors, "merged": rec.merged}))

        block_tracer.sink = sink

    # ---------------------------------------------------------- streaming
    def _span_closed(self, span) -> None:
        self._stream_buf.append(span)
        if len(self._stream_buf) >= self.config.flush_spans:
            self.flush_spans()

    def flush_spans(self) -> int:
        """Write buffered closed spans (+ new instant events) to the
        trace path now; returns the number of rows appended.

        No-op unless streaming is on.  Safe to call at any time — the
        chaos episode runner calls it after catching a typed abort so
        the failure's trace survives for the reproducer.
        """
        if not self._streaming:
            return 0
        events = self.tracer.events_since(self._events_streamed)
        self._events_streamed += len(events)
        if not self._stream_buf and not events:
            return 0
        rows = append_spans(self.config.trace_path, self._stream_buf, events)
        self._stream_buf.clear()
        return rows

    # ----------------------------------------------------------- lifecycle
    def stop(self) -> None:
        """Stop the samplers (lets ``env.run()`` terminate)."""
        if self.registry is not None:
            self.registry.stop()
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
        # Anything still buffered belongs to the discarded passes, and
        # tracer.clear() emptied the events list the stream index points
        # into.
        self._stream_buf.clear()
        self._events_streamed = 0

    def finish_run(self) -> None:
        """Final sample + export to the configured paths (idempotent)."""
        if self._finished:
            return
        self._finished = True
        if self.timeline is not None:
            self.timeline.sample(self.env.now)
            self.timeline.stop()
            self._mark_fault_windows()
            path = self.config.timeline_path
            if path:
                if path.endswith(".csv"):
                    self.timeline.export_csv(path)
                else:
                    self.timeline.export_jsonl(path)
        if self.registry is not None:
            self.registry.sample(self.env.now)
            self.registry.stop()
            if self.config.metrics_path:
                self.registry.export_jsonl(self.config.metrics_path)
            if self.config.metrics_text_path:
                with open(self.config.metrics_text_path, "w",
                          encoding="utf-8") as fh:
                    fh.write(self.registry.to_prometheus_text())
        if self.tracer is not None and self.config.trace_path:
            if self._streaming:
                # Everything closed already streamed; drain the tail.
                self.flush_spans()
            else:
                closed = [s for s in self.tracer.spans if s.end is not None]
                append_spans(self.config.trace_path, closed,
                             self.tracer.events)

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

    def timeline_summary(self):
        """Per-series min/mean/p99/last dict (None when timeline off)."""
        if self.timeline is None:
            return None
        return self.timeline.summary()

    # ------------------------------------------------------------ analysis
    def analyze(self) -> RunReport:
        """Critical-path report over the spans retained in memory."""
        if self.tracer is None:
            return RunReport()
        return analyze(self.tracer.spans)
