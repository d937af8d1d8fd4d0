"""Well-formedness validator for exported telemetry (CI entry point).

Usage::

    python -m repro.obs.validate spans.jsonl [trace.chrome.json] \
        [--timeline timeline.jsonl]

Checks the span JSONL for structural soundness — every span parented to
a span of the same trace (or a root), no negative durations, every
parent span covering its children — and, when given, that the Chrome
export parses and matches the trace-event schema.  ``--timeline``
additionally checks the JSONL time series: timestamps nondecreasing
within a ``timeline_begin`` segment (multi-cluster appends restart the
sim clock at a segment boundary), every series, mark and histogram name
on its whitelist, and no NaN values or histogram counts/sums.  Exits
non-zero with a per-problem listing on failure; prints a one-line
summary on success.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Dict, List

from .critical_path import EPS, analyze
from .export import load_spans_jsonl, validate_chrome_trace
from .span import Span
from .timeline import KNOWN_HISTOGRAMS, KNOWN_MARKS, KNOWN_SERIES


def validate_spans(spans: List[Span]) -> List[str]:
    """Structural checks over closed spans; returns a list of problems."""
    problems: List[str] = []
    by_trace: Dict[int, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    for trace_id in sorted(by_trace):
        group = by_trace[trace_id]
        ids = {s.span_id for s in group}
        roots = 0
        for span in group:
            where = f"trace {trace_id} span {span.span_id} ({span.name})"
            if span.parent_id is None:
                roots += 1
            elif span.parent_id not in ids:
                problems.append(f"{where}: parent {span.parent_id} missing")
            if span.end is not None and span.end < span.start - EPS:
                problems.append(f"{where}: negative duration "
                                f"[{span.start}, {span.end}]")
        if roots != 1:
            problems.append(f"trace {trace_id}: {roots} root spans "
                            f"(expected exactly 1)")
        by_id = {s.span_id: s for s in group}
        for span in group:
            if span.parent_id is None or span.parent_id not in by_id:
                continue
            parent = by_id[span.parent_id]
            where = f"trace {trace_id} span {span.span_id} ({span.name})"
            if span.start < parent.start - EPS:
                problems.append(f"{where}: starts before parent "
                                f"({span.start} < {parent.start})")
            if (span.end is not None and parent.end is not None
                    and span.end > parent.end + EPS):
                problems.append(f"{where}: ends after parent "
                                f"({span.end} > {parent.end})")
    return problems


def _bad_value(value: Any) -> bool:
    try:
        return math.isnan(float(value))
    except (TypeError, ValueError):
        return True


def validate_timeline_rows(rows: List[Dict[str, Any]]) -> List[str]:
    """Well-formedness checks over timeline JSONL rows.

    Every export is prefixed by a ``timeline_begin`` segment header;
    timestamps must be nondecreasing *within* a segment (each segment
    is one cluster's run, so its clock never rewinds).  Histogram rows
    close a segment and carry no timestamp.
    """
    problems: List[str] = []
    if rows and rows[0].get("type") != "timeline_begin":
        problems.append("row 0: missing timeline_begin segment header")
    prev_t = None
    for i, row in enumerate(rows):
        kind = row.get("type")
        if kind == "timeline_begin":
            prev_t = None  # new segment: fresh sim clock
            if _bad_value(row.get("dt")) or row.get("dt", 0) <= 0:
                problems.append(f"row {i}: segment header with bad dt")
            continue
        if kind == "histogram":
            if row.get("name") not in KNOWN_HISTOGRAMS:
                problems.append(f"row {i}: unknown histogram "
                                f"{row.get('name')!r}")
            if _bad_value(row.get("count")) or _bad_value(row.get("sum")):
                problems.append(f"row {i}: histogram with bad count/sum")
            continue
        if kind == "mark":
            if row.get("name") not in KNOWN_MARKS:
                problems.append(f"row {i}: unknown mark "
                                f"{row.get('name')!r}")
        else:
            series = row.get("series")
            if series not in KNOWN_SERIES:
                problems.append(f"row {i}: unknown series {series!r}")
            if _bad_value(row.get("value")):
                problems.append(f"row {i}: bad value {row.get('value')!r}")
        t = row.get("t")
        if not isinstance(t, (int, float)) or t != t:
            problems.append(f"row {i}: bad timestamp {t!r}")
            continue
        if prev_t is not None and t < prev_t:
            problems.append(f"row {i}: timestamp went backwards "
                            f"({prev_t} -> {t}) within a segment")
        prev_t = t
    return problems


def main(argv: List[str]) -> int:
    positional: List[str] = []
    timeline_path = None
    it = iter(argv)
    for arg in it:
        if arg == "--timeline":
            timeline_path = next(it, None)
        else:
            positional.append(arg)
    if not positional and not timeline_path:
        print("usage: python -m repro.obs.validate spans.jsonl "
              "[trace.chrome.json] [--timeline timeline.jsonl]",
              file=sys.stderr)
        return 2

    problems: List[str] = []
    spans: List[Span] = []
    if positional:
        spans = load_spans_jsonl(positional[0])
        if not spans:
            print(f"{positional[0]}: no spans found", file=sys.stderr)
            return 1
        problems += validate_spans(spans)
        if len(positional) > 1:
            problems += [f"chrome: {p}"
                         for p in validate_chrome_trace(positional[1])]
    nrows = 0
    if timeline_path:
        from .timeline import load_timeline_jsonl
        rows = load_timeline_jsonl(timeline_path)
        nrows = len(rows)
        problems += [f"timeline: {p}" for p in validate_timeline_rows(rows)]
    if problems:
        for p in problems:
            print(f"INVALID: {p}", file=sys.stderr)
        print(f"{len(problems)} problem(s)", file=sys.stderr)
        return 1
    summary = []
    if spans:
        report = analyze(spans)
        summary.append(f"{len(spans)} spans, "
                       f"{report.count} complete traces, "
                       f"mean magnification "
                       f"{report.mean_magnification:.2f}x")
    if timeline_path:
        summary.append(f"{nrows} timeline rows")
    print("OK: " + "; ".join(summary))
    return 0


if __name__ == "__main__":  # pragma: no cover - CI entry point
    sys.exit(main(sys.argv[1:]))
