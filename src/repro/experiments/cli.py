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


def cache_main(argv: List[str]) -> int:
    """``ibridge-experiment cache stats|prune`` — result-cache upkeep."""
    from .cache_tools import cache_stats, parse_age, parse_size, prune_cache

    parser = argparse.ArgumentParser(
        prog="ibridge-experiment cache",
        description="Inspect or prune the on-disk result cache.")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help=f"cache location (default "
                             f"{default_cache_dir()!r})")
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("stats", help="entry count, bytes, age range")
    prune = sub.add_parser("prune", help="evict by age and/or LRU size cap")
    prune.add_argument("--max-bytes", metavar="SIZE", default=None,
                       help="shrink the cache to at most SIZE "
                            "(e.g. 500M, 2G), evicting least-recently-"
                            "used entries first")
    prune.add_argument("--max-age", metavar="AGE", default=None,
                       help="drop entries not touched for AGE "
                            "(e.g. 7d, 12h)")
    prune.add_argument("--dry-run", action="store_true",
                       help="report what would be removed; remove nothing")
    args = parser.parse_args(argv)

    if args.action == "stats":
        print(cache_stats(args.cache_dir).format())
        return 0
    if args.max_bytes is None and args.max_age is None:
        parser.error("prune needs --max-bytes and/or --max-age")
    report = prune_cache(
        args.cache_dir,
        max_bytes=None if args.max_bytes is None else parse_size(args.max_bytes),
        max_age=None if args.max_age is None else parse_age(args.max_age),
        dry_run=args.dry_run)
    print(("[dry-run] " if args.dry_run else "") + report.format())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The cache subcommand has its own grammar; dispatch before the
    # experiment parser claims the positional.
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="ibridge-experiment",
        description="Reproduce a table/figure from the iBridge paper "
                    "(or maintain the result cache: see "
                    "'ibridge-experiment cache --help').")
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
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="sample time-series metrics (queue depths, "
                             "SSD log occupancy, admission counters) to a "
                             "JSONL file")
    parser.add_argument("--metrics-text", metavar="PATH", default=None,
                        help="write the final metrics snapshot as "
                             "Prometheus exposition text (the same "
                             "format the experiment service serves "
                             "under /metrics)")
    parser.add_argument("--timeline-out", metavar="PATH", default=None,
                        help="record the continuous sim-time series "
                             "(gauges sampled every --timeline-dt "
                             "simulated seconds, counters as rates, "
                             "fault/GC marks) to a JSONL file (.csv "
                             "suffix switches to CSV); implies metrics")
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

    if (args.trace_out or args.metrics_out or args.metrics_text
            or args.timeline_out):
        # Like the audit trace, obs files are appended per cluster;
        # truncate each once per CLI invocation.  (--metrics-text is
        # overwrite-per-cluster by nature; no truncation needed.)
        for path in (args.trace_out, args.metrics_out, args.timeline_out):
            if path:
                open(path, "w", encoding="utf-8").close()
        metrics_on = (args.metrics_out is not None
                      or args.metrics_text is not None
                      or args.timeline_out is not None)
        set_default_obs(ObsConfig(
            enabled=True,
            trace=args.trace_out is not None,
            metrics=metrics_on,
            trace_path=args.trace_out,
            metrics_path=args.metrics_out,
            metrics_text_path=args.metrics_text,
            timeline_dt=(args.timeline_dt if args.timeline_out else 0.0),
            timeline_path=args.timeline_out))

    if args.audit_trace and args.jobs > 1:
        # Pool workers appending to one JSONL would interleave; keep the
        # trace coherent by running the matrix in-process.
        print("note: --audit-trace forces --jobs 1 (single trace writer)")
        args.jobs = 1
    if (args.trace_out or args.metrics_out or args.metrics_text
            or args.timeline_out) and args.jobs > 1:
        print("note: --trace-out/--metrics-out/--metrics-text/"
              "--timeline-out force --jobs 1 (single trace writer)")
        args.jobs = 1
    if args.profile and args.jobs > 1:
        args.jobs = 1

    # CLI runs cache cell results by default (repeat invocations of the
    # same experiment at the same scale/seed/config hit the cache and
    # perform zero simulation steps); --no-cache forces fresh runs.
    # The programmatic API (runner.sweep) stays uncached unless
    # explicitly configured, so tests and benchmarks always simulate.
    set_sweep_defaults(jobs=args.jobs, cache=not args.no_cache,
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

    if args.trace_out:
        _emit_trace_outputs(args.trace_out, args.timeline_out)
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    if args.metrics_text:
        print(f"metrics exposition written to {args.metrics_text}")
    if args.timeline_out:
        print(f"timeline written to {args.timeline_out}")
    if args.report:
        from ..obs import report as obs_report
        rc = obs_report.main(
            (["--trace", args.trace_out] if args.trace_out else [])
            + (["--timeline", args.timeline_out] if args.timeline_out
               else [])
            + (["--metrics", args.metrics_out] if args.metrics_out else [])
            + ["--format", "markdown", "--out", args.report])
        if rc != 0:
            return rc
    return 0


def _emit_trace_outputs(trace_path: str,
                        timeline_path: Optional[str] = None) -> None:
    """Post-run trace products: straggler report + Chrome/Perfetto JSON."""
    from ..obs.critical_path import analyze
    from ..obs.export import (chrome_path_for, load_spans_jsonl,
                              write_chrome_trace)

    spans, events = load_spans_jsonl(trace_path)
    if not spans:
        print(f"note: no spans recorded in {trace_path}")
        return
    report = analyze(spans)
    print(report.format())
    counters = ()
    if timeline_path and timeline_path.endswith(".jsonl"):
        # Timeline samples ride along as Perfetto counter tracks, so
        # queue depth / SSD occupancy plot under the span lanes.
        from ..obs.timeline import load_timeline_jsonl
        counters = [r for r in load_timeline_jsonl(timeline_path)
                    if "series" in r]
    chrome_path = chrome_path_for(trace_path)
    write_chrome_trace(chrome_path, spans, events, counters)
    print(f"spans written to {trace_path} "
          f"(Chrome/Perfetto: {chrome_path} — open at https://ui.perfetto.dev)")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
