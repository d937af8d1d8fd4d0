"""End-to-end observability: request tracing, metrics, critical paths.

The paper's central claim is that one slow fragment gates the whole
synchronous parallel request (striping magnification, §II).  This
package makes that visible per request instead of only in aggregate:

* :mod:`repro.obs.span` — sim-time spans with trace/span/parent IDs,
  propagated client → network → server → iBridge manager → block queue
  → device, so every :class:`~repro.pfs.messages.ParentRequest` yields
  a causal span tree separating queue-wait, network and device-service
  time.
* :mod:`repro.obs.critical_path` — walks each tree, names the straggler
  sub-request, attributes the parent's latency along the slowest path,
  and computes per-request magnification factors (straggler time over
  median sibling time) — Fig. 2's motivation, quantified per request.
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry;
  the timeline is its only sampler and its only export.
* :mod:`repro.obs.export` — span JSONL and Chrome trace-event /
  Perfetto JSON exporters (``--trace-out``; the Chrome export takes the
  timeline's marks as its instant events).
* :mod:`repro.obs.runtime` — per-cluster wiring.  It copies no other
  telemetry source: audit records stay in
  :class:`~repro.audit.trace.EventTrace`, served read sizes in
  :class:`~repro.devices.base.DeviceStats`.
* :mod:`repro.obs.timeline` — sim-time series recorder: samples every
  registry gauge and counter on a fixed cadence
  (``ObsConfig.timeline_dt``) into a bounded ring buffer, differencing
  cumulative series into rates, with event-driven marks for fault
  windows and GC storms; its JSONL export (``--timeline-out``) ends
  with the registry's histograms.
* :mod:`repro.obs.report` — the ``python -m repro.obs.report`` CLI that
  joins trace + timeline into one console/markdown run report.

Everything is flag-gated (``ObsConfig.enabled``): with observability
off, instrumented sites cost one attribute load and a ``None`` test —
no records, no spans, no sampler process (``python -m
benchmarks.perf.obs_bench`` times every tier).
"""

from .critical_path import RunReport, TraceReport, analyze, build_trees
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .runtime import ObsRuntime
from .span import Span, Tracer
from .timeline import (TimelineRecorder, load_timeline_jsonl, series_key,
                       sparkline, summarize_series)

__all__ = [
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsRuntime",
    "TimelineRecorder",
    "TraceReport",
    "RunReport",
    "analyze",
    "build_trees",
    "load_timeline_jsonl",
    "series_key",
    "sparkline",
    "summarize_series",
]
