"""Command-line driver: ``ibridge-experiment <name> [--scale S]``.

Runs one experiment (or ``all``) and prints its table(s).  The scale is
the fraction of the paper's 10 GB working set to simulate.

Sweep execution (``--jobs``, ``--no-cache``, ``--cache-dir``) is routed
through :mod:`repro.experiments.runner`: experiments that decompose
into independent cells fan them out over a process pool and reuse
cached cell results across invocations.  Serial and parallel runs are
bit-identical by construction; ``--no-cache`` forces every cell to
simulate from scratch.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import List, Optional

from ..config import AuditConfig, ObsConfig
from .common import (DEFAULT_SCALE, set_default_audit, set_default_fault_plan,
                     set_default_obs, warn_if_oversubscribed)
from .registry import EXPERIMENTS, get
from .runner import default_cache_dir, set_sweep_defaults


def _profiled(runner, kwargs, limit: int = 25):
    """Run one experiment under cProfile; print top-``limit`` entries.

    The same idea as the offline device profiling in
    ``repro.devices.profiling`` — measure the thing we are about to
    optimize — applied to the simulator itself: the printout names the
    engine hot paths (event dispatch, scheduler select, device serve)
    so a perf regression is visible before a wall-clock trend is.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = runner(**kwargs)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(limit)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]

    parser = argparse.ArgumentParser(
        prog="ibridge-experiment",
        description="Reproduce a table/figure from the iBridge paper.")
    parser.add_argument("name", nargs="?", default=None,
                        help="experiment name, or 'all'")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help=f"fraction of the paper's 10GB working set "
                             f"(default {DEFAULT_SCALE:.4f})")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for the experiment matrix "
                             "(default 1 = in-process; results are "
                             "bit-identical at any N)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result "
                             "cache; every cell simulates from scratch")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help=f"result cache location (default "
                             f"{default_cache_dir()!r})")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top-25 "
                             "cumulative entries (forces --jobs 1: "
                             "profiling a worker pool measures only the "
                             "coordinator)")
    parser.add_argument("--audit", action="store_true",
                        help="run with the invariant auditor + livelock "
                             "watchdog enabled (strict: first violation "
                             "aborts the experiment)")
    parser.add_argument("--audit-trace", metavar="PATH", default=None,
                        help="mirror audit trace events to a JSONL file "
                             "(implies --audit)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="record request/span traces to a JSONL file; "
                             "also writes a Chrome/Perfetto trace next to "
                             "it (PATH with a .chrome.json suffix) and "
                             "prints the critical-path straggler report")
    parser.add_argument("--timeline-out", metavar="PATH", default=None,
                        help="record the continuous sim-time series "
                             "(gauges sampled every --timeline-dt "
                             "simulated seconds, counters as rates, "
                             "fault/GC marks, then the final histograms) "
                             "to a JSONL file; turns the metrics "
                             "registry on")
    parser.add_argument("--timeline-dt", type=float, default=0.05,
                        metavar="SECONDS",
                        help="timeline sample cadence in simulated "
                             "seconds (default 0.05; only with "
                             "--timeline-out)")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write a unified markdown run report "
                             "(critical path + timeline sparklines + "
                             "fault windows) after the run; needs "
                             "--trace-out and/or --timeline-out")
    parser.add_argument("--fault-plan", metavar="PATH", default=None,
                        help="run the experiment under the fault plan in "
                             "PATH (JSON, or YAML with PyYAML installed); "
                             "applies to every cluster the experiment "
                             "builds via measure()")
    parser.add_argument("--degrade-factor", type=float, default=None,
                        help="slowdown factor for experiments with a "
                             "degraded-disk knob (e.g. 'degraded')")
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    # One warning, not one per cell: more pool workers than cores only
    # adds context-switch overhead.
    warn_if_oversubscribed(jobs=args.jobs)

    if args.fault_plan:
        from ..faults import FaultPlan
        set_default_fault_plan(FaultPlan.from_file(args.fault_plan))

    if args.audit or args.audit_trace:
        if args.audit_trace:
            # EventTrace appends so that multi-cluster experiments keep
            # every cluster's events; truncate once per CLI invocation.
            open(args.audit_trace, "w", encoding="utf-8").close()
        set_default_audit(AuditConfig(enabled=True,
                                      trace_path=args.audit_trace))

    if args.report and not (args.trace_out or args.timeline_out):
        parser.error("--report needs --trace-out and/or --timeline-out")
    if args.timeline_dt <= 0:
        parser.error("--timeline-dt must be positive")

    if args.trace_out or args.timeline_out:
        # Like the audit trace, obs files are appended per cluster;
        # truncate each once per CLI invocation.
        for path in (args.trace_out, args.timeline_out):
            if path:
                open(path, "w", encoding="utf-8").close()
        set_default_obs(ObsConfig(
            enabled=True,
            trace=args.trace_out is not None,
            metrics=args.timeline_out is not None,
            trace_path=args.trace_out,
            timeline_dt=args.timeline_dt,
            timeline_path=args.timeline_out))

    if args.audit_trace and args.jobs > 1:
        # Pool workers appending to one JSONL would interleave; keep the
        # trace coherent by running the matrix in-process.
        print("note: --audit-trace forces --jobs 1 (single trace writer)")
        args.jobs = 1
    if (args.trace_out or args.timeline_out) and args.jobs > 1:
        print("note: --trace-out/--timeline-out force --jobs 1 "
              "(single trace writer)")
        args.jobs = 1
    if args.profile and args.jobs > 1:
        args.jobs = 1

    # CLI runs cache cell results by default (repeat invocations of the
    # same experiment at the same scale/seed/config hit the cache and
    # perform zero simulation steps); --no-cache forces fresh runs.
    # The telemetry files were truncated above and only a simulated
    # cell writes to them, so they turn the cache off as well.
    # The programmatic API (runner.sweep) stays uncached unless
    # explicitly configured, so tests and benchmarks always simulate.
    telemetry = args.trace_out or args.timeline_out or args.audit_trace
    set_sweep_defaults(jobs=args.jobs,
                       cache=not (args.no_cache or telemetry),
                       cache_dir=args.cache_dir)

    if args.list or args.name is None:
        print("available experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
        return 0

    # "all" runs each artifact once (fig2's sub-figures fold into fig2).
    names = sorted(n for n in EXPERIMENTS
                   if n not in ("fig2a", "fig2b", "fig2cde")) \
        if args.name == "all" else [args.name]
    for name in names:
        runner = get(name)
        kwargs = {"scale": args.scale}
        # Optional knobs are forwarded only to experiments that take
        # them, so 'all' keeps working with any flag combination.
        if args.degrade_factor is not None:
            params = inspect.signature(runner).parameters
            if "degrade_factor" in params:
                kwargs["degrade_factor"] = args.degrade_factor
        start = time.time()
        if args.profile:
            result = _profiled(runner, kwargs)
        else:
            result = runner(**kwargs)
        elapsed = time.time() - start
        print(result)
        print(f"  [{name} finished in {elapsed:.1f}s wall time]")
        print()

    _emit_obs_outputs(args.trace_out, args.timeline_out, args.report)
    return 0


def _emit_obs_outputs(trace_path: Optional[str], timeline_path: Optional[str],
                      report_path: Optional[str]) -> None:
    """Post-run products of ``--trace-out``, ``--timeline-out`` and
    ``--report``: the report renders the spans, their analysis and the
    timeline rows the trace outputs already loaded."""
    spans = report = rows = None
    if trace_path:
        spans, report, rows = _emit_trace_outputs(trace_path, timeline_path)
    if timeline_path:
        print(f"timeline written to {timeline_path}")
    if report_path:
        from ..obs.report import build_report, write_report
        if timeline_path and rows is None:
            from ..obs.timeline import load_timeline_jsonl
            rows = load_timeline_jsonl(timeline_path)
        write_report(build_report(spans, report, rows, markdown=True),
                     report_path)


def _emit_trace_outputs(trace_path: str,
                        timeline_path: Optional[str] = None) -> tuple:
    """Post-run trace products: straggler report + Chrome/Perfetto JSON.

    Returns the loaded spans, their :class:`~repro.obs.critical_path.RunReport`
    and the timeline rows (None without ``timeline_path``), so
    ``--report`` renders them without loading them again.
    """
    from ..obs.critical_path import analyze
    from ..obs.export import (chrome_path_for, load_spans_jsonl,
                              write_chrome_trace)

    spans = load_spans_jsonl(trace_path)
    report = analyze(spans)
    rows = None
    if timeline_path:
        from ..obs.timeline import load_timeline_jsonl
        rows = load_timeline_jsonl(timeline_path)
    if not spans:
        print(f"note: no spans recorded in {trace_path}")
        return spans, report, rows
    print(report.format())
    marks, counters = (), ()
    if rows is not None:
        # Timeline samples ride along as Perfetto counter tracks, so
        # queue depth / SSD occupancy plot under the span lanes, and
        # its marks (fault windows, GC storms) as instant events.
        marks = [r for r in rows if r.get("type") == "mark"]
        counters = [r for r in rows if "series" in r]
    chrome_path = chrome_path_for(trace_path)
    write_chrome_trace(chrome_path, spans, marks, counters)
    print(f"spans written to {trace_path} "
          f"(Chrome/Perfetto: {chrome_path} — open at https://ui.perfetto.dev)")
    return spans, report, rows


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
