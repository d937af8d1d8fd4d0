"""Observability overhead micro-benchmark: tracing on vs off.

Runs the same unaligned mpi-io-test cell four ways — obs disabled
(the default every experiment runs with), spans only, spans with
1-in-4 trace sampling (the always-on configuration the ≤5% overhead
target applies to), and the full stack: spans plus the metrics
registry and its sampler, the timeline recorder at its default cadence
— and reports each tier's median wall seconds plus its relative
overhead.  The disabled case is the one every experiment runs: each
instrumented site must cost one attribute load and a ``None`` test.
The gap between ``obs_full`` and ``obs_trace`` is the whole
registry-plus-timeline cost: outside ``--quick`` the command fails if
it exceeds 10 percentage points.

Methodology: tiers are **interleaved** round-robin and each overhead
is the *median of per-round ratios* against the obs-off run of the
same round.  Back-to-back tiers with min-of-N, the previous scheme,
let host drift between tiers masquerade as (or hide) tracing cost;
pairing within a round cancels it.  The seconds printed beside each
overhead are medians over the same rounds (a min-of-rounds beside a
median-of-ratios once printed ``obs_trace`` faster than ``obs_off``
next to a +22.5% overhead).

::

    PYTHONPATH=src python -m benchmarks.perf.obs_bench            # full, gated
    PYTHONPATH=src python -m benchmarks.perf.obs_bench --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from typing import Any, Dict, Optional

from repro.config import ClusterConfig
from repro.devices.base import Op
from repro.pfs.cluster import Cluster
from repro.units import KiB, MiB
from repro.workloads.base import run_workload
from repro.workloads.mpi_io_test import MpiIoTest

#: Largest marginal overhead (percentage points) the metrics registry and
#: its timeline sampler may add over the spans-only tier in a full run.
TIMELINE_BUDGET_PCT = 10.0


def _run_once(obs_cfg: ClusterConfig, nprocs: int, file_size: int) -> float:
    workload = MpiIoTest(nprocs=nprocs, request_size=65 * KiB,
                         file_size=file_size, op=Op.WRITE)
    cluster = Cluster(obs_cfg)
    start = time.perf_counter()
    run_workload(cluster, workload)
    elapsed = time.perf_counter() - start
    cluster.shutdown()
    return elapsed


def run_all(quick: bool = False) -> Dict[str, Any]:
    nprocs = 8 if quick else 16
    file_size = (4 if quick else 16) * MiB
    rounds = 3 if quick else 7
    base = ClusterConfig(num_servers=4, client_jitter=0.0)
    tiers = {
        "obs_off": base,
        "obs_trace": base.with_obs(metrics=False),
        "obs_sampled": base.with_obs(metrics=False, trace_sample_n=4),
        "obs_full": base.with_obs(),
    }

    times: Dict[str, list] = {name: [] for name in tiers}
    for _ in range(rounds):
        for name, cfg in tiers.items():
            times[name].append(_run_once(cfg, nprocs, file_size))

    report: Dict[str, Any] = {
        "obs_off": {"seconds": statistics.median(times["obs_off"])}
    }
    for name in ("obs_trace", "obs_sampled", "obs_full"):
        ratios = [times[name][i] / times["obs_off"][i]
                  for i in range(rounds)]
        report[name] = {
            "seconds": statistics.median(times[name]),
            "overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
        }
    report["obs_sampled"]["sample_n"] = 4
    report["obs_full"]["timeline_dt"] = tiers["obs_full"].obs.timeline_dt
    return report


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf.obs_bench",
        description="Time the observability tiers.")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes (CI smoke; no overhead gate)")
    args = parser.parse_args(argv)

    obs = run_all(quick=args.quick)
    print(f"  {'obs_off':14s} {obs['obs_off']['seconds']:.3f}s")
    labels = {"obs_trace": "spans",
              "obs_sampled": f"spans, 1-in-{obs['obs_sampled']['sample_n']}",
              "obs_full": "spans+metrics, timeline@"
                          f"{obs['obs_full']['timeline_dt']:g}s"}
    for name, label in labels.items():
        print(f"  {name:14s} {obs[name]['seconds']:.3f}s "
              f"({obs[name]['overhead_pct']:+.1f}%, {label})")

    # The registry and its timeline sampler ride the spans-only stack;
    # their *marginal* cost over obs_trace must stay small (quick sizes
    # are too noisy for a percentage-point gate).
    marginal = (obs["obs_full"]["overhead_pct"]
                - obs["obs_trace"]["overhead_pct"])
    if not args.quick and marginal > TIMELINE_BUDGET_PCT:
        print(f"FAIL: metrics registry + timeline add {marginal:.1f}% over "
              f"the spans-only tier (> {TIMELINE_BUDGET_PCT:g}% budget)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
