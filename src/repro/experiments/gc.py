"""Extension experiment: iBridge under SSD garbage collection.

Not a paper figure; the study the FTL/GC model
(:mod:`repro.devices.ftl`) enables.  The paper's premise — redirect
unaligned fragments into a log on the SSD because sequential SSD
writes are ~4.7x faster — quietly assumes the SSD serves at its
Table II speeds forever.  A real drive under sustained writes spends
time collecting garbage, and in an *array* of drives, per-device GC
that is unsynchronized across servers magnifies stripe stragglers:
some member of the stripe is almost always collecting (Zheng & Burns,
"Optimize Unsynchronized GC in an SSD Array"; Borge et al. on GC-window
read variability).

The same unaligned write workload runs four ways: FTL off (the plain
Table II model), and FTL on with each fleet GC policy — unsynchronized
(every drive collects on its own watermark), stop-the-fleet
synchronized (collection windows align across servers), and
stagger-coordinated (round-robin slots, at most one drive collecting).
Two warm passes push the small drive into steady-state GC pressure, so
the measured pass runs with collection active.  The table reports
throughput, stripe-request latency percentiles, the write-amplification
ledger, and total foreground GC stall time.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..devices.base import Op
from ..units import KiB, MiB
from ..workloads.mpi_io_test import MpiIoTest
from .common import (DEFAULT_SCALE, ExperimentResult, base_config, file_bytes,
                     measure)
from .runner import cell, sweep

#: Policy order is the table's row order.
POLICIES = ("ftl off", "unsync", "sync", "stagger")


def _config(policy: str, file_size: int):
    # The drive is sized so the warm passes wrap the FTL — a 120 GiB
    # drive would never collect under a CI-sized workload.  Roughly a
    # third of the file flows through the 8 SSD logs over 3 passes, so
    # capacity ~ file/10 per drive keeps collection pressure constant
    # across --scale; the log region is 2x the partition.
    partition = max(MiB, (file_size // 24 // MiB) * MiB)
    cfg = base_config(num_servers=8)
    # 48 KiB fragment threshold admits the 32 KiB tail piece every
    # 96 KiB request leaves on a 64 KiB stripe (the default 20 KiB
    # threshold would reject it and starve the log).
    cfg = cfg.with_ibridge(ssd_partition=partition,
                           fragment_threshold=48 * KiB)
    ssd = dataclasses.replace(cfg.ssd, capacity=2 * partition + 2 * MiB)
    if policy != "ftl off":
        ssd = dataclasses.replace(
            ssd,
            ftl_enabled=True,
            ftl_over_provision=0.25,
            gc_low_watermark=0.30,
            gc_high_watermark=0.55,
            gc_mode="pause",
            gc_policy=policy,
        )
    return cfg.replace(ssd=ssd)


def _workload_args(scale: float, nprocs: int) -> dict:
    # 96 KiB requests on a 64 KiB stripe: every request leaves a 32 KiB
    # fragment, so a third of the payload flows through the SSD log —
    # enough traffic to keep the small FTL under collection pressure.
    size = 96 * KiB
    return dict(nprocs=nprocs, request_size=size,
                file_size=file_bytes(scale, nprocs, size), op=Op.WRITE)


def _cell(scale: float, nprocs: int, policy: str) -> Dict[str, float]:
    """One policy's run; returns the row's raw figures."""
    args = _workload_args(scale, nprocs)
    cfg = _config(policy, args["file_size"])
    res, cluster = measure(cfg, MpiIoTest(**args), warm_runs=2)
    lat = res.latency_stats()
    drives = [s.ssd for s in cluster.servers]
    ftls = [d.ftl for d in drives if d.ftl is not None]
    wa = (sum(f.write_amplification for f in ftls) / len(ftls)
          if ftls else 1.0)
    return {
        "throughput": res.throughput_mib_s,
        "p50": lat.p50,
        "p99": lat.p99,
        "wa": wa,
        "gc_stall": sum(d.gc_stall_time for d in drives),
        "erases": float(sum(f.erases for f in ftls)),
        "gc_runs": float(sum(f.gc_runs for f in ftls)),
    }


def run(scale: float = DEFAULT_SCALE, nprocs: int = 16) -> ExperimentResult:
    result = ExperimentResult(
        name="gc",
        title="Extension — iBridge under SSD garbage collection "
              "(96KiB unaligned writes, fleet GC policies)",
        headers=["policy", "MiB/s", "p50 ms", "p99 ms", "WA",
                 "gc stall s", "erases"],
    )
    cells = [cell("repro.experiments.gc:_cell",
                  scale=scale, nprocs=nprocs, policy=policy)
             for policy in POLICIES]
    rows = sweep(cells)
    for policy, row in zip(POLICIES, rows):
        result.add_row(
            [policy, round(row["throughput"], 1),
             round(row["p50"] * 1e3, 2), round(row["p99"] * 1e3, 2),
             round(row["wa"], 2), round(row["gc_stall"], 3),
             int(row["erases"])],
            throughput=row["throughput"], p50=row["p50"], p99=row["p99"],
            wa=row["wa"], gc_stall=row["gc_stall"], erases=row["erases"],
            gc_runs=row["gc_runs"])
    result.notes.append(
        "unsynchronized per-drive GC scatters collection pauses across "
        "the fleet, so stripe tails inflate; coordinating the windows "
        "(sync aligns them, stagger serializes them) recovers most of "
        "the p99 gap at a small write-amplification cost")
    return result
