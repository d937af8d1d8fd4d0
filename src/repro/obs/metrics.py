"""A small time-series metrics registry sampled on sim-time ticks.

Three instrument types, modelled on the Prometheus client surface:

* :class:`Counter` — monotonically increasing count (admissions,
  rejections, redirected writes).
* :class:`Gauge` — a callback read at sample time (queue depth, SSD log
  occupancy, partition ratio).
* :class:`Histogram` — bucketed distribution fed by ``observe`` (the
  Eq. 1/3 benefit values at decision time).

A :class:`MetricsRegistry` owns the instruments and, when started on an
environment, runs a sampler process that snapshots every counter and
gauge each ``period`` simulated seconds into an in-memory time series
exported as JSONL (one ``{"t", "name", "labels", "value"}`` row per
sample).  Histograms are exported once, as their final bucket counts.

The sampler consumes event-heap sequence numbers like the audit
watchdog does, so enabling metrics perturbs event schedules; this is
why the observability config is part of the experiment-matrix cache key
(see :mod:`repro.experiments.runner`).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, Any], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """Instantaneous value read from a callback at sample time."""

    __slots__ = ("name", "labels", "fn")

    def __init__(self, name: str, labels: Dict[str, Any],
                 fn: Callable[[], float]) -> None:
        self.name = name
        self.labels = labels
        self.fn = fn

    def read(self) -> float:
        return float(self.fn())


class Histogram:
    """Fixed-bucket histogram (upper bounds; +inf bucket is implicit)."""

    __slots__ = ("name", "labels", "bounds", "counts", "count", "sum")

    def __init__(self, name: str, labels: Dict[str, Any],
                 buckets: Sequence[float]) -> None:
        self.name = name
        self.labels = labels
        self.bounds = sorted(buckets)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def to_row(self) -> Dict[str, Any]:
        buckets = {f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)}
        buckets["le_inf"] = self.counts[-1]
        return {"name": self.name, "labels": self.labels, "type": "histogram",
                "count": self.count, "sum": self.sum, "buckets": buckets}


class MetricsRegistry:
    """Instrument registry + sim-time sampler + JSONL export."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        #: Sampled time-series rows, in sample order.
        self.samples: List[Dict[str, Any]] = []
        self._stopped = False

    # -------------------------------------------------------- instruments
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(name, labels)
        return inst

    def gauge(self, name: str, fn: Callable[[], float],
              **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        inst = self._gauges[key] = Gauge(name, labels, fn)
        return inst

    def histogram(self, name: str, buckets: Sequence[float],
                  **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(name, labels, buckets)
        return inst

    # ----------------------------------------------------------- sampling
    def sample(self, t: float) -> None:
        """Snapshot every counter and gauge at sim time ``t``."""
        rows = self.samples
        for counter in self._counters.values():
            rows.append({"t": t, "name": counter.name,
                         "labels": counter.labels, "value": counter.value})
        for gauge in self._gauges.values():
            rows.append({"t": t, "name": gauge.name,
                         "labels": gauge.labels, "value": gauge.read()})

    def start(self, env, period: float):
        """Start the periodic sampler process on ``env``.

        Stops at the next tick after :meth:`stop` — mirroring the audit
        watchdog's lifecycle so ``env.run()`` (to exhaustion) can end.
        """
        if period <= 0:
            return None
        return env.process(self._sampler(env, period), name="obs-sampler")

    def _sampler(self, env, period: float):
        while not self._stopped:
            self.sample(env.now)
            yield env.timeout(period)

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------- export
    def final_rows(self) -> List[Dict[str, Any]]:
        """Histogram summaries (appended after the time series)."""
        return [h.to_row() for h in self._histograms.values()]

    def export_jsonl(self, path: str, mode: str = "a") -> int:
        """Append all samples + histogram rows to ``path``; row count."""
        rows = list(self.samples) + self.final_rows()
        with open(path, mode, encoding="utf-8") as fh:
            for row in rows:
                json.dump(row, fh, default=str)
                fh.write("\n")
        return len(rows)

    def clear(self) -> None:
        """Drop samples and reset instruments (measurement reset)."""
        self.samples.clear()
        for counter in self._counters.values():
            counter.value = 0.0
        for hist in self._histograms.values():
            hist.counts = [0] * (len(hist.bounds) + 1)
            hist.count = 0
            hist.sum = 0.0


def load_metrics_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read back a metrics JSONL file (tests/CI helpers)."""
    rows: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


#: Default benefit-value histogram buckets (seconds of saved service
#: time per striping unit; negative buckets capture rejected returns).
BENEFIT_BUCKETS: Sequence[float] = (-0.01, -0.001, 0.0, 0.001, 0.005,
                                    0.01, 0.05, 0.1)


def percentile(sorted_values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of pre-sorted values (None when empty)."""
    if not sorted_values:
        return None
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = max(0, min(len(sorted_values) - 1,
                      round(q / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[rank]
