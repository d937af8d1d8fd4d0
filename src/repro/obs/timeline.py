"""Sim-time series recorder: how the system evolved over the run.

The critical-path analyzer answers "where did one request's latency
go".  The :class:`TimelineRecorder` answers *how did the run evolve*:
it is the only sampler of the metrics registry
(:mod:`repro.obs.metrics`), snapshotting every registry gauge and
counter on a fixed sim-time cadence (``ObsConfig.timeline_dt``) into a
bounded ring buffer:

* plain gauges (queue depth, SSD log occupancy, partition shares,
  ``ssd_gc_active``, write amplification, outstanding sub-requests)
  are sampled as-is;
* cumulative series (counters and monotonically increasing gauges such
  as the iBridge admission totals) are *differenced* into per-second
  rates, which is the form the paper-relevant admission dynamics read
  in (``<name>_rate`` series);
* event-driven marks (fault windows, GC-storm begin/end) are recorded
  out of band via :meth:`TimelineRecorder.mark` — devices and the
  fault injector feed them through :class:`~repro.obs.runtime.ObsRuntime`.

Export is JSONL (one ``{"t", "series", "labels", "value"}`` row per
sample, marks as ``{"type": "mark", ...}`` rows, then the registry's
histograms as ``{"type": "histogram", ...}`` rows with their final
bucket counts), with every export prefixed by a
``{"type": "timeline_begin", ...}`` segment header so multi-cluster
appends stay checkable (timestamps must be nondecreasing within a
segment — ``python -m repro.obs.validate`` enforces this).
:func:`summarize_series` reduces a series list to min/mean/p99/last
for the run-report CLI, which renders them as sparklines;
:meth:`TimelineRecorder.last_values` gives the last values alone, the
flat ``timeline_last[...]`` form attached to results.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import MetricsRegistry, percentile

#: Registry series that are cumulative totals: the timeline emits them
#: as differenced per-second ``<name>_rate`` series instead of raw
#: values.  (Counters are always cumulative; these are the gauges that
#: wrap monotonically increasing stats.)
CUMULATIVE_SERIES = frozenset({
    "ibridge_redirected_writes",
    "ibridge_rejected_admissions",
    "ssd_gc_stall_seconds",
})

#: Every series name the obs wiring can produce, raw or differenced —
#: the whitelist ``python -m repro.obs.validate`` checks timeline JSONL
#: against.  Extend this set when wiring a new gauge.
KNOWN_SERIES = frozenset({
    "queue_depth",
    "ssd_gc_active",
    "ssd_write_amplification",
    "ssd_gc_free_fraction",
    "ssd_gc_stall_seconds",
    "ssd_log_live_bytes",
    "ssd_log_free_segments",
    "partition_used_bytes",
    "partition_fragment_share",
    "ibridge_redirected_writes",
    "ibridge_rejected_admissions",
    "ibridge_admissions",
    "outstanding_subrequests",
}) | frozenset(f"{name}_rate" for name in CUMULATIVE_SERIES) \
  | frozenset({"ibridge_admissions_rate"})

#: Mark names the wiring can produce (fault windows + GC storms).
KNOWN_MARKS = frozenset({
    "gc_storm_begin", "gc_storm_end", "fault_begin", "fault_end",
})

#: Histogram names the wiring can produce (the Eq. 1/3 returns).
KNOWN_HISTOGRAMS = frozenset({"ibridge_benefit"})


def series_key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical flat key for one labelled series:
    ``queue_depth{dev=hdd0,server=3}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class TimelineRecorder:
    """Ring-buffered gauge sampler driven by a sim-time ticker."""

    def __init__(self, registry: MetricsRegistry, dt: float,
                 limit: int = 100_000) -> None:
        if dt <= 0:
            raise ValueError("timeline dt must be positive")
        self.registry = registry
        self.dt = dt
        #: Sample rows ``{"t", "series", "labels", "value"}``, oldest
        #: evicted once ``limit`` is reached (bounded retention).
        self.rows: deque = deque(maxlen=limit or None)
        #: Event-driven marks ``{"t", "name", "attrs"}`` (same bound).
        self.marks: deque = deque(maxlen=limit or None)
        #: Rows and marks dropped by ring-buffer eviction (retention
        #: telemetry).
        self.evicted = 0
        self._prev: Dict[Tuple[str, tuple], float] = {}
        self._prev_t: Optional[float] = None
        self._stopped = False
        self.ticks = 0

    # ------------------------------------------------------------ sampling
    def sample(self, t: float) -> None:
        """Record one tick: every gauge, counters/cumulatives as rates."""
        prev = self._prev
        dt = (t - self._prev_t) if self._prev_t is not None else None
        for gauge in self.registry._gauges.values():
            value = gauge.read()
            if gauge.name in CUMULATIVE_SERIES:
                self._rate_row(t, dt, gauge, value, prev)
            else:
                self._append(self.rows, {"t": t, "series": gauge.name,
                                         "labels": gauge.labels,
                                         "value": value})
        for counter in self.registry._counters.values():
            self._rate_row(t, dt, counter, counter.value, prev)
        self._prev_t = t
        self.ticks += 1

    def _rate_row(self, t: float, dt: Optional[float], inst, value: float,
                  prev: Dict[Tuple[str, tuple], float]) -> None:
        last = prev.get(inst.key)
        prev[inst.key] = value
        if last is None or dt is None or dt <= 0:
            return  # first tick: no interval to rate over
        self._append(self.rows, {"t": t, "series": f"{inst.name}_rate",
                                 "labels": inst.labels,
                                 "value": (value - last) / dt})

    def _append(self, ring: deque, row: Dict[str, Any]) -> None:
        """Append one row or mark to ``ring``, counting the one a full
        ring evicts."""
        if len(ring) == ring.maxlen:
            self.evicted += 1
        ring.append(row)

    def mark(self, name: str, t: float, **attrs: Any) -> None:
        """Record one event-driven mark (fault window edge, GC storm)."""
        self._append(self.marks, {"t": t, "name": name, "attrs": attrs})

    # ----------------------------------------------------------- lifecycle
    def start(self, env):
        """Run the ticker as a sim process until the tick after
        :meth:`stop` (so ``env.run()`` to exhaustion can end).

        Its timeouts add heap entries, which moves ``env._seq`` and the
        engine's event count, but a tick only reads instruments: it
        never reorders other events or changes a simulated result.
        """
        return env.process(self._ticker(env), name="obs-timeline")

    def _ticker(self, env):
        while not self._stopped:
            self.sample(env.now)
            yield env.timeout(self.dt)

    def stop(self) -> None:
        self._stopped = True

    def clear(self) -> None:
        """Drop warm-pass samples (measurement reset)."""
        self.rows.clear()
        self.marks.clear()
        self._prev.clear()
        self._prev_t = None
        self.evicted = 0
        self.ticks = 0

    # ------------------------------------------------------------- export
    def merged_rows(self) -> List[Dict[str, Any]]:
        """Samples + marks merged into one t-ordered row list."""
        out: List[Dict[str, Any]] = list(self.rows)
        out.extend({"type": "mark", "t": m["t"], "name": m["name"],
                    "attrs": m["attrs"]} for m in self.marks)
        out.sort(key=lambda r: r["t"])
        return out

    def export_jsonl(self, path: str, mode: str = "a") -> int:
        """Append a segment header, the samples and marks, then the
        registry's histogram rows to ``path``; row count."""
        rows = self.merged_rows() + self.registry.final_rows()
        header = {"type": "timeline_begin", "dt": self.dt,
                  "rows": len(rows), "evicted": self.evicted}
        with open(path, mode, encoding="utf-8") as fh:
            json.dump(header, fh)
            fh.write("\n")
            for row in rows:
                json.dump(row, fh, default=str)
                fh.write("\n")
        return len(rows)

    def last_values(self) -> Dict[str, float]:
        """Each series' last sampled value, keyed by :func:`series_key`
        in order of first appearance: the ``last`` column of
        :func:`summarize_series` without its sort, mean and p99.  A
        series' rows share one labels dict, so each key is built once.
        """
        keys: Dict[Tuple[str, int], str] = {}
        out: Dict[str, float] = {}
        for row in self.rows:
            name, labels = row["series"], row["labels"]
            key = keys.get((name, id(labels)))
            if key is None:
                key = keys[name, id(labels)] = series_key(name, labels)
            out[key] = float(row["value"])
        return out


# --------------------------------------------------------------- helpers
def load_timeline_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read back a timeline JSONL file (headers + samples + marks)."""
    rows: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def summarize_series(rows: Iterable[Dict[str, Any]]) \
        -> Dict[str, Dict[str, float]]:
    """Per-series ``{min, mean, p99, last, n}`` over sample rows.

    Keys are :func:`series_key` strings; marks and segment headers are
    ignored.
    """
    values: Dict[str, List[float]] = {}
    for row in rows:
        if "series" not in row:
            continue
        key = series_key(row["series"], row.get("labels") or {})
        values.setdefault(key, []).append(float(row["value"]))
    out: Dict[str, Dict[str, float]] = {}
    for key, series in values.items():
        ordered = sorted(series)
        out[key] = {
            "min": ordered[0],
            "max": ordered[-1],
            "mean": sum(series) / len(series),
            "p99": percentile(ordered, 99.0),
            "last": series[-1],
            "n": float(len(series)),
        }
    return out


_SPARK_BARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Unicode sparkline of a series, downsampled to ``width`` buckets
    (mean per bucket).  Flat series render as a line of low bars."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        buckets: List[float] = []
        step = len(vals) / width
        for i in range(width):
            lo, hi = int(i * step), max(int((i + 1) * step), int(i * step) + 1)
            chunk = vals[lo:hi]
            buckets.append(sum(chunk) / len(chunk))
        vals = buckets
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK_BARS[0] * len(vals)
    return "".join(
        _SPARK_BARS[min(len(_SPARK_BARS) - 1,
                        int((v - lo) / span * len(_SPARK_BARS)))]
        for v in vals)
