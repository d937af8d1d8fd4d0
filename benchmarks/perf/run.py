"""Run the perf suite and write ``BENCH_<date>.json`` at the repo root.

The JSON embeds the committed pre-optimization baseline
(``benchmarks/perf/BASELINE.json``, measured on the same class of host
before the engine fast paths landed) and a ratio table against it, so
one file answers "how fast is the simulator today and how does that
compare to where it started".

::

    PYTHONPATH=src python -m benchmarks.perf.run              # full
    PYTHONPATH=src python -m benchmarks.perf.run --quick      # CI smoke
    PYTHONPATH=src python -m benchmarks.perf.run --out /tmp   # elsewhere
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Optional

from . import e2e, fig2_bench, gc_bench, microbench, obs_bench, span_bench

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BASELINE.json")


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=REPO_ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def load_baseline() -> Optional[Dict[str, Any]]:
    try:
        with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _ratios(current: Dict[str, Any],
            baseline: Dict[str, Any]) -> Dict[str, float]:
    """current/baseline speedups for every shared rate & time metric."""
    out: Dict[str, float] = {}
    cur_micro = current.get("micro", {})
    for name, base in baseline.get("micro", {}).items():
        cur = cur_micro.get(name)
        if cur and base.get("ops_per_s"):
            out[f"micro.{name}.speedup"] = cur["ops_per_s"] / base["ops_per_s"]
    base_e2e = baseline.get("e2e", {}).get("midsize", {})
    cur_e2e = current.get("e2e", {}).get("midsize", {})
    if base_e2e.get("seconds") and cur_e2e.get("seconds"):
        out["e2e.midsize.speedup"] = base_e2e["seconds"] / cur_e2e["seconds"]
    base_fig2 = baseline.get("fig2", {}).get("serial_seconds")
    cur_fig2 = current.get("fig2", {}).get("fig2_sweep", {})
    if base_fig2 and cur_fig2.get("serial_seconds"):
        out["fig2.serial.speedup"] = base_fig2 / cur_fig2["serial_seconds"]
    if base_fig2 and cur_fig2.get("parallel_seconds"):
        out["fig2.parallel_vs_baseline.speedup"] = \
            base_fig2 / cur_fig2["parallel_seconds"]
    return out


def run_suite(quick: bool = False, jobs: int = 4,
              skip_fig2: bool = False) -> Dict[str, Any]:
    report: Dict[str, Any] = {
        "meta": {
            "date": time.strftime("%Y-%m-%d %H:%M:%S"),
            "commit": _git_commit(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "quick": quick,
            "jobs": jobs,
        }
    }
    print("== micro: engine events/sec ==", flush=True)
    report["micro"] = microbench.run_all(quick=quick)
    for name, row in report["micro"].items():
        print(f"  {name:22s} {row['ops_per_s']:>12,.0f} ops/s "
              f"({row['seconds']:.3f}s best)")
    print("== e2e: mid-size cluster run ==", flush=True)
    report["e2e"] = e2e.run_all(quick=quick)
    row = report["e2e"]["midsize"]
    print(f"  midsize (scale={row['scale']}, nprocs={row['nprocs']}) "
          f"{row['seconds']:.2f}s wall, {row['throughput_mib_s']:.1f} MiB/s sim")
    print("== obs: tracing overhead (off / spans / spans+metrics) ==",
          flush=True)
    report["obs"] = obs_bench.run_all(quick=quick)
    print(f"  off {report['obs']['obs_off']['seconds']:.2f}s, "
          f"spans {report['obs']['obs_trace']['seconds']:.2f}s "
          f"(+{report['obs']['obs_trace']['overhead_pct']:.1f}%), "
          f"sampled 1-in-{report['obs']['obs_sampled']['sample_n']} "
          f"{report['obs']['obs_sampled']['seconds']:.2f}s "
          f"(+{report['obs']['obs_sampled']['overhead_pct']:.1f}%), "
          f"spans+metrics {report['obs']['obs_full']['seconds']:.2f}s "
          f"(+{report['obs']['obs_full']['overhead_pct']:.1f}%), "
          f"+timeline@{report['obs']['obs_timeline']['timeline_dt']:g}s "
          f"{report['obs']['obs_timeline']['seconds']:.2f}s "
          f"(+{report['obs']['obs_timeline']['overhead_pct']:.1f}%)")
    print("== gc: FTL/GC model overhead (off vs on) ==", flush=True)
    report["gc"] = gc_bench.run_all(quick=quick)
    gc_on = report["gc"]["ftl_on"]
    print(f"  ftl off {report['gc']['ftl_off']['seconds']:.2f}s, "
          f"ftl on {gc_on['seconds']:.2f}s "
          f"(+{gc_on['overhead_pct']:.1f}%), "
          f"WA {gc_on['write_amplification']:.2f}, "
          f"erases {gc_on['erases']:.0f}")
    print("== spans: span slab allocation ==", flush=True)
    report["spans"] = span_bench.run_all(quick=quick)
    span_row = report["spans"]["span_alloc"]
    print(f"  span alloc: unsampled {span_row['unsampled_ops_per_s']:>11,.0f}"
          f" ops/s, 1-in-{span_row['sample_n']} sampled "
          f"{span_row['sampled_ops_per_s']:>11,.0f} ops/s "
          f"({span_row['sampled_speedup']:.2f}x)")
    if not skip_fig2:
        print("== fig2: full sweep, serial vs pool ==", flush=True)
        report["fig2"] = fig2_bench.run_all(quick=quick, jobs=jobs)
        row = report["fig2"]["fig2_sweep"]
        print(f"  serial {row['serial_seconds']:.2f}s, "
              f"jobs={row['jobs']} {row['parallel_seconds']:.2f}s, "
              f"speedup {row['speedup']:.2f}x, "
              f"identical={row['values_identical']}")
        cache_row = report["fig2"]["cache_warm_vs_cold"]
        print(f"  cache: cold {cache_row['cold_seconds']:.2f}s "
              f"({cache_row['cold_executed']} executed), warm "
              f"{cache_row['warm_seconds']:.4f}s "
              f"({cache_row['warm_executed']} executed)")

    baseline = load_baseline()
    if baseline is not None:
        report["baseline"] = baseline
        if quick:
            # Quick runs shrink problem sizes; ratios against the
            # full-size baseline would be meaningless.
            print("(skipping baseline comparison: --quick sizes are not "
                  "comparable)")
        else:
            report["vs_baseline"] = _ratios(report, baseline)
            if report["vs_baseline"]:
                print("== vs committed baseline ==")
                for key, ratio in sorted(report["vs_baseline"].items()):
                    print(f"  {key:40s} {ratio:.2f}x")
    return report


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf.run",
        description="Time the simulator and write BENCH_<date>.json.")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes (CI smoke; numbers not comparable "
                             "to full runs)")
    parser.add_argument("--jobs", "-j", type=int, default=4,
                        help="pool width for the fig2 sweep (default 4)")
    parser.add_argument("--skip-fig2", action="store_true",
                        help="micro + e2e only")
    parser.add_argument("--out", default=REPO_ROOT, metavar="DIR",
                        help="directory for BENCH_<date>.json "
                             "(default: repo root)")
    args = parser.parse_args(argv)

    report = run_suite(quick=args.quick, jobs=args.jobs,
                       skip_fig2=args.skip_fig2)
    # Failures in the correctness cross-checks make the bench run fail:
    # a speedup that changes results is a bug, not a win.
    fig2_row = report.get("fig2", {}).get("fig2_sweep")
    if fig2_row is not None and not fig2_row["values_identical"]:
        print("FAIL: serial and parallel fig2 values differ", file=sys.stderr)
        return 1
    # The timeline ticker rides the obs_full stack; its *marginal* cost
    # over obs_full must stay small (quick sizes are too noisy for a
    # percentage-point gate).
    obs_row = report.get("obs", {})
    if (not args.quick and obs_row
            and obs_row["obs_timeline"]["overhead_pct"]
            - obs_row["obs_full"]["overhead_pct"] > 10.0):
        print(f"FAIL: timeline recorder adds "
              f"{obs_row['obs_timeline']['overhead_pct'] - obs_row['obs_full']['overhead_pct']:.1f}% "
              f"over the spans+metrics tier (> 10% budget)",
              file=sys.stderr)
        return 1

    name = f"BENCH_{time.strftime('%Y%m%d')}.json"
    path = os.path.join(args.out, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
