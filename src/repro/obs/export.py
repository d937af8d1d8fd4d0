"""Span exporters: JSONL and Chrome trace-event (Perfetto) JSON.

Two formats, one source of truth:

* **JSONL** — one ``Span.to_dict()`` record per line, spans only.
  Appended per simulated cluster (mirroring the
  ``--audit-trace`` contract: the CLI truncates the file once per
  invocation, runs append).  This is the format the critical-path
  analyzer and CI validator read back.
* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` array
  format understood by ``chrome://tracing`` and https://ui.perfetto.dev.
  Spans become ``ph="X"`` complete events with microsecond timestamps;
  each trace (parent request) becomes a ``pid`` with a metadata name
  record so the UI groups a request's spans together.  Instant events
  (``ph="i"``) come from the timeline's marks (fault windows, GC
  storms), which the CLI passes in.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .span import Span
from .timeline import series_key

#: Chrome trace events use microseconds; the sim uses seconds.
_US = 1e6


# ----------------------------------------------------------------- JSONL
def append_spans(path: str, spans: Sequence[Span]) -> int:
    """Append span records to a JSONL file; returns row count."""
    with open(path, "a", encoding="utf-8") as fh:
        for span in spans:
            json.dump(span.to_dict(), fh, default=str)
            fh.write("\n")
    return len(spans)


def load_spans_jsonl(path: str) -> List[Span]:
    """Read back the spans of a span JSONL file."""
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("type") == "span":
                spans.append(Span.from_dict(rec))
    return spans


# ------------------------------------------------------- Chrome / Perfetto
def chrome_path_for(jsonl_path: str) -> str:
    """Derive the Chrome JSON path from a span JSONL path."""
    if jsonl_path.endswith(".jsonl"):
        return jsonl_path[: -len(".jsonl")] + ".chrome.json"
    return jsonl_path + ".chrome.json"


def _lanes(spans: Sequence[Span]) -> Dict[int, int]:
    """Assign a tid lane per top-level subtree so siblings don't stack.

    The root span and everything under each of its children get their
    own lane; a span keeps its parent's lane so nested work renders as
    a flame stack inside the sub-request's row.
    """
    lane_of: Dict[int, int] = {}
    by_parent: Dict[Optional[int], List[Span]] = {}
    roots: List[Span] = []
    ids = {s.span_id for s in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        if parent is None:
            roots.append(span)
        by_parent.setdefault(parent, []).append(span)
    for root in roots:
        lane_of[root.span_id] = 0
        next_lane = 1
        for child in sorted(by_parent.get(root.span_id, []),
                            key=lambda s: (s.start, s.span_id)):
            stack = [child]
            lane = next_lane
            next_lane += 1
            while stack:
                span = stack.pop()
                lane_of[span.span_id] = lane
                stack.extend(by_parent.get(span.span_id, []))
    return lane_of


def chrome_trace(spans: Sequence[Span],
                 events: Sequence[Dict[str, Any]] = (),
                 counters: Sequence[Dict[str, Any]] = ()) -> Dict[str, Any]:
    """Build a Chrome trace-event document from spans.

    ``events`` takes ``{"name", "t", "attrs"}`` rows (timeline marks)
    and renders each as a global instant event (``ph: "i"``) on pid 0.
    ``counters`` takes timeline sample rows (``{"t", "series", "labels",
    "value"}`` — see :mod:`repro.obs.timeline`) and renders each
    labelled series as a Perfetto *counter track* (``ph: "C"``) on pid
    0, so queue depth and SSD occupancy plot under the span lanes.
    """
    out: List[Dict[str, Any]] = []
    by_trace: Dict[int, List[Span]] = {}
    for span in spans:
        if span.end is None:
            continue
        by_trace.setdefault(span.trace_id, []).append(span)
    for trace_id in sorted(by_trace):
        group = by_trace[trace_id]
        out.append({
            "ph": "M", "name": "process_name", "pid": trace_id, "tid": 0,
            "args": {"name": f"request {trace_id}"},
        })
        lane_of = _lanes(group)
        for span in group:
            ev: Dict[str, Any] = {
                "ph": "X",
                "name": span.name,
                "cat": span.kind,
                "pid": trace_id,
                "tid": lane_of.get(span.span_id, 0),
                "ts": span.start * _US,
                "dur": span.duration * _US,
            }
            if span.attrs:
                ev["args"] = {k: v for k, v in span.attrs.items()}
            out.append(ev)
    for rec in events:
        ev = {
            "ph": "i", "name": rec.get("name", "event"), "cat": "event",
            "pid": 0, "tid": 0, "ts": float(rec.get("t", 0.0)) * _US,
            "s": "g",
        }
        if rec.get("attrs"):
            ev["args"] = rec["attrs"]
        out.append(ev)
    for row in counters:
        if "series" not in row:
            continue  # segment headers / marks ride the events path
        out.append({
            "ph": "C",
            "name": series_key(row["series"], row.get("labels") or {}),
            "pid": 0, "tid": 0,
            "ts": float(row["t"]) * _US,
            "args": {"value": float(row["value"])},
        })
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Sequence[Span],
                       events: Sequence[Dict[str, Any]] = (),
                       counters: Sequence[Dict[str, Any]] = ()) -> int:
    """Write the Chrome JSON document; returns the event count."""
    doc = chrome_trace(spans, events, counters)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


def validate_chrome_trace(path: str) -> List[str]:
    """Schema-check a Chrome trace file; returns a list of problems."""
    problems: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "i", "B", "E", "C"):
            problems.append(f"event {i}: unknown ph {ph!r}")
            continue
        if "name" not in ev:
            problems.append(f"event {i}: missing name")
        if ph in ("X", "i", "C"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"event {i}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: bad dur {dur!r}")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"event {i}: counter without args")
            elif any(not isinstance(v, (int, float)) or v != v
                     for v in args.values()):
                problems.append(f"event {i}: non-numeric counter value")
    return problems
