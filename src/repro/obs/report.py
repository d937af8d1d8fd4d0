"""Unified run report: one console/markdown digest per observed run.

Usage::

    python -m repro.obs.report --trace trace.jsonl \
        --timeline timeline.jsonl \
        [--format console|markdown] [--out report.md]

Joins the two telemetry artifacts a traced run leaves behind — the
span JSONL (where did each request's latency go) and the timeline JSONL
(how did the run evolve, and the final histograms) — into one report:

* the critical-path straggler table with a per-request magnification
  CDF (the paper's striping-magnification effect as percentiles);
* one sparkline + min/mean/p99/last line per timeline series, and each
  histogram's observation count and sum;
* fault-window and GC-storm annotations pulled from timeline marks.

Every section is optional: the report renders whatever artifacts it is
given.  ``--format markdown`` wraps tables in code fences for PR/CI
summaries; the default console format prints them bare.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from .critical_path import RunReport, analyze
from .export import load_spans_jsonl
from .metrics import percentile
from .span import Span
from .timeline import (load_timeline_jsonl, series_key, sparkline,
                       summarize_series)

#: Cap on distinct series rendered as sparklines (a 16-server cluster
#: wires hundreds of labelled gauges; the report shows the busiest).
MAX_SPARK_SERIES = 24


def _magnification_cdf(mags: List[float]) -> List[str]:
    ordered = sorted(mags)
    lines = ["magnification CDF (straggler / median sibling):"]
    for q in (10.0, 50.0, 90.0, 99.0):
        lines.append(f"  p{q:g}: {percentile(ordered, q):.2f}x")
    lines.append(f"  max: {ordered[-1]:.2f}x over {len(ordered)} "
                 "multi-piece requests")
    return lines


def trace_section(spans: Sequence[Span], report: RunReport) -> List[str]:
    """``report`` is ``analyze(spans)``."""
    lines = [report.format()]
    mags = report.magnifications()
    if mags:
        lines.extend(_magnification_cdf(mags))
    lines.append(f"({len(spans)} spans, {report.count} complete traces)")
    return lines


def timeline_section(rows: List[Dict[str, Any]]) -> List[str]:
    samples = [r for r in rows if "series" in r]
    hists = [f"histogram {series_key(h['name'], h.get('labels') or {})}: "
             f"n={h['count']}, sum={h['sum']:.6g}"
             for h in rows if h.get("type") == "histogram"]
    if not samples:
        return ["(no timeline samples)"] + hists
    summary = summarize_series(samples)
    series: Dict[str, List[float]] = {}
    for row in samples:
        key = series_key(row["series"], row.get("labels") or {})
        series.setdefault(key, []).append(float(row["value"]))
    # Busiest (highest-variance-proxy: widest range) series first.
    ranked = sorted(summary, key=lambda k: -(summary[k]["max"]
                                             - summary[k]["min"]))
    shown = ranked[:MAX_SPARK_SERIES]
    width = max(len(k) for k in shown)
    lines = [f"{len(summary)} series, {len(samples)} samples"]
    for key in shown:
        s = summary[key]
        lines.append(
            f"{key:<{width}} {sparkline(series[key]):<32} "
            f"min {s['min']:.4g}  mean {s['mean']:.4g}  "
            f"p99 {s['p99']:.4g}  last {s['last']:.4g}")
    if len(ranked) > len(shown):
        lines.append(f"(+{len(ranked) - len(shown)} flat series elided)")
    return lines + hists


def marks_section(rows: List[Dict[str, Any]]) -> List[str]:
    marks = [r for r in rows if r.get("type") == "mark"]
    if not marks:
        return []
    lines = []
    for m in sorted(marks, key=lambda r: r["t"]):
        attrs = m.get("attrs") or {}
        inner = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        lines.append(f"t={m['t']:.6g} {m['name']}"
                     + (f" ({inner})" if inner else ""))
    return lines


def render(sections: List[tuple], markdown: bool) -> str:
    out: List[str] = []
    if markdown:
        out.append("# Run report")
    for title, lines in sections:
        if not lines:
            continue
        if markdown:
            out.append(f"\n## {title}\n")
            out.append("```")
            out.extend(lines)
            out.append("```")
        else:
            out.append(f"\n=== {title} ===")
            out.extend(lines)
    return "\n".join(out) + "\n"


def build_report(spans: Optional[Sequence[Span]] = None,
                 report: Optional[RunReport] = None,
                 timeline_rows: Optional[List[Dict[str, Any]]] = None,
                 markdown: bool = False) -> str:
    """The report over artifacts already loaded: ``spans`` from a span
    JSONL with ``report = analyze(spans)``, and ``timeline_rows`` from
    a timeline JSONL.  The experiment CLI passes what it loaded for its
    own trace outputs, so nothing is parsed or analyzed twice."""
    sections: List[tuple] = []
    if spans is not None:
        sections.append(("Critical path", trace_section(spans, report)))
    if timeline_rows is not None:
        sections.append(("Timeline", timeline_section(timeline_rows)))
        sections.append(("Fault / GC windows", marks_section(timeline_rows)))
    return render(sections, markdown=markdown)


def write_report(text: str, out: Optional[str]) -> None:
    """Write the report to ``out``, or to stdout without one."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a unified run report from trace and "
                    "timeline artifacts.")
    parser.add_argument("--trace", help="span JSONL (from --trace-out)")
    parser.add_argument("--timeline", help="timeline JSONL")
    parser.add_argument("--format", choices=("console", "markdown"),
                        default="console")
    parser.add_argument("--out", help="write the report here instead of "
                                      "stdout")
    args = parser.parse_args(argv)
    if not (args.trace or args.timeline):
        parser.error("give at least one of --trace/--timeline")

    spans = load_spans_jsonl(args.trace) if args.trace else None
    write_report(build_report(
        spans, analyze(spans) if spans is not None else None,
        load_timeline_jsonl(args.timeline) if args.timeline else None,
        markdown=args.format == "markdown"), args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
