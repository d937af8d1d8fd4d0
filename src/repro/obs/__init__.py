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
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry
  sampled on sim-time ticks with JSONL time-series export.
* :mod:`repro.obs.export` — span JSONL and Chrome trace-event /
  Perfetto JSON exporters (``--trace-out`` / ``--metrics-out``).
* :mod:`repro.obs.runtime` — per-cluster wiring plus the adapters that
  let :class:`~repro.audit.trace.EventTrace` and
  :class:`~repro.block.blktrace.BlockTracer` feed the same sink.
* :mod:`repro.obs.timeline` — sim-time series recorder: samples every
  registry gauge on a fixed cadence (``ObsConfig.timeline_dt``) into a
  bounded ring buffer, differencing cumulative series into rates, with
  event-driven marks for fault windows and GC storms.
* :mod:`repro.obs.report` — the ``python -m repro.obs.report`` CLI that
  joins trace + metrics + timeline into one console/markdown run
  report.

Everything is flag-gated (``ObsConfig.enabled``) following the
``BlockTracer`` pattern: with observability off, instrumented sites
cost one attribute load and a ``None`` test — no records, no spans, no
sampler process (measured by ``benchmarks/perf/obs_bench.py``).
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
