"""Unified run report: one console/markdown digest per observed run.

Usage::

    python -m repro.obs.report --trace trace.jsonl \
        --timeline timeline.jsonl [--metrics metrics.jsonl] \
        [--format console|markdown] [--out report.md]

Joins the three telemetry artifacts a traced run leaves behind — the
span JSONL (where did each request's latency go), the metrics JSONL
(what was the final state), and the timeline JSONL (how did the run
evolve) — into one report:

* the critical-path straggler table with a per-request magnification
  CDF (the paper's striping-magnification effect as percentiles);
* one sparkline + min/mean/p99/last line per timeline series;
* fault-window and GC-storm annotations pulled from timeline marks.

Every section is optional: the report renders whatever artifacts it is
given.  ``--format markdown`` wraps tables in code fences for PR/CI
summaries; the default console format prints them bare.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from .critical_path import analyze
from .export import load_spans_jsonl
from .metrics import load_metrics_jsonl, percentile
from .timeline import load_timeline_jsonl, sparkline, summarize_series

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


def trace_section(path: str) -> List[str]:
    spans, events = load_spans_jsonl(path)
    report = analyze(spans)
    lines = [report.format()]
    mags = report.magnifications()
    if mags:
        lines.extend(_magnification_cdf(mags))
    lines.append(f"({len(spans)} spans, {len(events)} instant events, "
                 f"{report.count} complete traces)")
    return lines


def timeline_section(rows: List[Dict[str, Any]]) -> List[str]:
    samples = [r for r in rows if "series" in r]
    if not samples:
        return ["(no timeline samples)"]
    summary = summarize_series(samples)
    series: Dict[str, List[float]] = {}
    for row in samples:
        labels = row.get("labels") or {}
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        key = f"{row['series']}{{{inner}}}" if inner else row["series"]
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
    return lines


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


def metrics_section(path: str) -> List[str]:
    rows = load_metrics_jsonl(path)
    hists = [r for r in rows if r.get("type") == "histogram"]
    samples = [r for r in rows if "value" in r and "t" in r]
    finals: Dict[str, float] = {}
    for row in samples:  # last write wins: the final sample of a series
        labels = row.get("labels") or {}
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        key = f"{row['name']}{{{inner}}}" if inner else row["name"]
        finals[key] = float(row["value"])
    lines = [f"{len(samples)} samples over {len(finals)} series"]
    nonzero = {k: v for k, v in finals.items() if v}
    for key in sorted(nonzero)[:16]:
        lines.append(f"  final {key} = {nonzero[key]:.6g}")
    for h in hists:
        lines.append(f"  histogram {h['name']}: n={h['count']}, "
                     f"sum={h['sum']:.6g}")
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a unified run report from trace, metrics, "
                    "and timeline artifacts.")
    parser.add_argument("--trace", help="span JSONL (from --trace-out)")
    parser.add_argument("--metrics", help="metrics JSONL")
    parser.add_argument("--timeline", help="timeline JSONL")
    parser.add_argument("--format", choices=("console", "markdown"),
                        default="console")
    parser.add_argument("--out", help="write the report here instead of "
                                      "stdout")
    args = parser.parse_args(argv)
    if not (args.trace or args.metrics or args.timeline):
        parser.error("give at least one of --trace/--metrics/--timeline")

    sections: List[tuple] = []
    if args.trace:
        sections.append(("Critical path", trace_section(args.trace)))
    if args.timeline:
        rows = load_timeline_jsonl(args.timeline)
        sections.append(("Timeline", timeline_section(rows)))
        sections.append(("Fault / GC windows", marks_section(rows)))
    if args.metrics:
        sections.append(("Metrics", metrics_section(args.metrics)))

    text = render(sections, markdown=args.format == "markdown")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
