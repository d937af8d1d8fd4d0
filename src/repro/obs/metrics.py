"""A small metrics registry: the instruments the timeline samples.

Three instrument types, modelled on the Prometheus client surface:

* :class:`Counter` — monotonically increasing count (admissions,
  rejections, redirected writes).
* :class:`Gauge` — a callback read at sample time (queue depth, SSD log
  occupancy, partition ratio).
* :class:`Histogram` — bucketed distribution fed by ``observe`` (the
  Eq. 1/3 benefit values at decision time).

A :class:`MetricsRegistry` only owns the instruments.  Its one sampler
is the :class:`~repro.obs.timeline.TimelineRecorder`, which reads every
counter and gauge each ``ObsConfig.timeline_dt`` simulated seconds and
appends the histograms' final bucket counts (:meth:`final_rows`) to its
JSONL export.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, Any], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "labels", "key", "value")

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        #: The registry's key for this series (the timeline's too).
        self.key = (name, _label_key(labels))
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """Instantaneous value read from a callback at sample time."""

    __slots__ = ("name", "labels", "key", "fn")

    def __init__(self, name: str, labels: Dict[str, Any],
                 fn: Callable[[], float]) -> None:
        self.name = name
        self.labels = labels
        self.key = (name, _label_key(labels))
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
        """Count ``value`` in the first bucket whose bound it does not
        exceed.  NaN is ``<=`` no bound, so it lands in +inf."""
        self.count += 1
        self.sum += value
        bounds = self.bounds
        self.counts[bisect_left(bounds, value) if value == value
                    else len(bounds)] += 1

    def to_row(self) -> Dict[str, Any]:
        buckets = {f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)}
        buckets["le_inf"] = self.counts[-1]
        return {"name": self.name, "labels": self.labels, "type": "histogram",
                "count": self.count, "sum": self.sum, "buckets": buckets}


class MetricsRegistry:
    """Get-or-create store of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -------------------------------------------------------- instruments
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(name, labels)
        return inst

    def gauge(self, name: str, fn: Callable[[], float],
              **labels: Any) -> Gauge:
        inst = Gauge(name, labels, fn)
        self._gauges[inst.key] = inst
        return inst

    def histogram(self, name: str, buckets: Sequence[float],
                  **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(name, labels, buckets)
        return inst

    # ------------------------------------------------------------- export
    def final_rows(self) -> List[Dict[str, Any]]:
        """Histogram summaries (the timeline JSONL's trailing rows)."""
        return [h.to_row() for h in self._histograms.values()]

    def clear(self) -> None:
        """Reset counters and histograms (measurement reset)."""
        for counter in self._counters.values():
            counter.value = 0.0
        for hist in self._histograms.values():
            hist.counts = [0] * (len(hist.bounds) + 1)
            hist.count = 0
            hist.sum = 0.0


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
