"""Run results: throughput, latency statistics, fault windows, tables
and the canonical run digest.

Every table the experiments print comes from a :class:`RunResult`,
rendered by :func:`format_table`; :func:`run_digest` hashes what a run
did so refactors can prove results bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .devices.base import Op
from .pfs.messages import ParentRequest
from .units import MiB


@dataclass
class LatencyStats:
    """Summary statistics over a set of request latencies (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def from_latencies(cls, latencies: Sequence[float]) -> "LatencyStats":
        if not latencies:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        arr = np.asarray(latencies, dtype=np.float64)
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
            max=float(arr.max()),
        )


@dataclass
class FaultWindow:
    """One applied-and-reverted fault interval of a run."""

    kind: str
    start: float
    end: Optional[float]        # None: the fault lasted to the end of run
    server: Optional[int] = None

    def contains(self, t: float) -> bool:
        return t >= self.start and (self.end is None or t <= self.end)


@dataclass
class RunResult:
    """Everything an experiment needs from one simulated run."""

    name: str
    makespan: float                      # seconds of simulated I/O time
    total_bytes: int
    requests: List[ParentRequest] = field(default_factory=list)
    #: Fraction of payload served from SSDs (0 without iBridge).
    ssd_fraction: float = 0.0
    #: Optional extra key figures an experiment wants to carry along.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Injected fault transitions (``repro.faults`` injector records as
    #: dicts: time, phase, event, detail), empty on fault-free runs.
    fault_events: List[Dict] = field(default_factory=list)
    #: Recovery counters (client retries/timeouts, dropped messages,
    #: forfeited bytes, crashes...), empty on fault-free runs.
    recovery: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_mib_s(self) -> float:
        """Aggregate application throughput in MiB/s."""
        if self.makespan <= 0:
            return 0.0
        return self.total_bytes / MiB / self.makespan

    def latencies(self, op: Optional[Op] = None) -> List[float]:
        return [r.latency for r in self.requests
                if r.latency is not None and (op is None or r.op is op)]

    def latency_stats(self, op: Optional[Op] = None) -> LatencyStats:
        return LatencyStats.from_latencies(self.latencies(op))

    @property
    def mean_service_time(self) -> float:
        """Mean request completion latency (Table III's metric)."""
        lats = self.latencies()
        return float(np.mean(lats)) if lats else 0.0

    # ------------------------------------------------------------- faults
    def fault_windows(self) -> List[FaultWindow]:
        """Pair ``begin``/``end`` transitions into fault intervals.

        A window whose fault never reverted (whole-run faults, or a run
        that ended first) has ``end=None``.
        """
        windows: List[FaultWindow] = []
        open_idx: Dict[str, List[int]] = {}

        def key(rec: Dict) -> str:
            event = dict(rec.get("event") or {})
            return repr(sorted(event.items()))

        for rec in self.fault_events:
            k = key(rec)
            event = rec.get("event") or {}
            if rec["phase"] == "begin":
                windows.append(FaultWindow(kind=event.get("kind", "?"),
                                           start=rec["time"], end=None,
                                           server=event.get("server")))
                open_idx.setdefault(k, []).append(len(windows) - 1)
            else:
                stack = open_idx.get(k)
                if stack:
                    windows[stack.pop(0)].end = rec["time"]
        return windows

    def window_latencies(self, window: FaultWindow,
                         op: Optional[Op] = None) -> List[float]:
        """Latencies of requests *completing* inside ``window``."""
        return [r.latency for r in self.requests
                if r.latency is not None and (op is None or r.op is op)
                and r.complete_time is not None
                and window.contains(r.complete_time)]

    def baseline_latencies(self, op: Optional[Op] = None) -> List[float]:
        """Latencies of requests completing outside every fault window."""
        windows = self.fault_windows()
        return [r.latency for r in self.requests
                if r.latency is not None and (op is None or r.op is op)
                and r.complete_time is not None
                and not any(w.contains(r.complete_time) for w in windows)]

    def window_slowdown(self, window: FaultWindow) -> float:
        """Mean in-window latency over mean fault-free latency (>= 0).

        Returns 0.0 when either side has no completions to compare.
        """
        inside = self.window_latencies(window)
        outside = self.baseline_latencies()
        if not inside or not outside:
            return 0.0
        base = float(np.mean(outside))
        return float(np.mean(inside)) / base if base > 0 else 0.0


# ---------------------------------------------------------------- tables
def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table."""
    srows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in srows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def fault_report(result: RunResult) -> str:
    """Render a run's fault windows, recovery counters and tail latencies.

    On a fault-free run the report says so in one line.
    """
    if not result.fault_events:
        return "no faults injected"
    lines = []
    rows = []
    for w in result.fault_windows():
        inside = result.window_latencies(w)
        stats = LatencyStats.from_latencies(inside)
        rows.append([
            w.kind,
            "all" if w.server is None else w.server,
            round(w.start, 4),
            "(end of run)" if w.end is None else round(w.end, 4),
            stats.count,
            round(result.window_slowdown(w), 2),
            round(stats.p95 * 1e3, 3),
            round(stats.p99 * 1e3, 3),
        ])
    lines.append(format_table(
        ["fault", "server", "start", "end", "reqs in window",
         "slowdown x", "p95 (ms)", "p99 (ms)"],
        rows, title="Fault windows"))
    base = LatencyStats.from_latencies(result.baseline_latencies())
    lines.append(f"fault-free baseline: {base.count} requests, "
                 f"p95 {base.p95 * 1e3:.3f} ms, p99 {base.p99 * 1e3:.3f} ms")
    if result.recovery:
        kv = "  ".join(f"{k}={v}" for k, v in sorted(result.recovery.items())
                       if v)
        lines.append(f"recovery: {kv or 'no recovery action needed'}")
    return "\n".join(lines)


# ---------------------------------------------------------------- digest
def run_digest(result: RunResult) -> str:
    """A canonical sha256 over everything behavior-visible in a result.

    Request *ids* are excluded on purpose: back-to-back runs in one
    process keep counting them up, but ids are labels — they never
    influence the event schedule.  Floats are hashed via ``float.hex``
    so the digest is exact, not printf-rounded.

    Only numeric extras are hashed, so a caller may attach descriptive,
    non-numeric extras (host telemetry, labels) without changing it.
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
