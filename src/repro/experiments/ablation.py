"""Ablations of iBridge design choices (DESIGN.md §5).

Not a paper figure: these isolate the mechanisms the reproduction
depends on so regressions in any of them are visible:

* ``return_policy`` — the literal per-request Eq. 1 form vs the
  efficiency-normalized form (the literal form fails to bootstrap).
* ``use_sibling_term`` — Eq. 3's striping magnification term.
* ``global_merge`` — Linux-style cross-process insert merging.
"""

from __future__ import annotations

import dataclasses

from ..config import ReturnPolicy
from ..devices.base import Op
from ..units import KiB
from ..workloads.mpi_io_test import MpiIoTest
from .common import (DEFAULT_SCALE, ExperimentResult, base_config, file_bytes,
                     measure, scaled_ibridge)


def _mio(scale: float, nprocs: int = 64, op: Op = Op.WRITE) -> MpiIoTest:
    return MpiIoTest(nprocs=nprocs, request_size=65 * KiB,
                     file_size=file_bytes(scale, nprocs, 65 * KiB), op=op)


def run(scale: float = DEFAULT_SCALE, nprocs: int = 64) -> ExperimentResult:
    result = ExperimentResult(
        name="ablation",
        title="Ablations — 65KiB reads (warm), 64 procs (MiB/s)",
        headers=["variant", "throughput", "ssd%"],
    )

    # Reads expose the literal Eq. 1 policy's failure to bootstrap: a
    # fragment's per-request disk estimate is *smaller* than the EWMA of
    # full-size pieces, so nothing is ever admitted to the cache.
    variants = [
        ("stock", base_config(), 0),
        ("iBridge (default)", scaled_ibridge(base_config(), scale), 1),
        ("return policy: literal Eq.1",
         scaled_ibridge(base_config(), scale,
                        return_policy=ReturnPolicy.PAPER), 1),
        ("no sibling term (Eq.3 off)",
         scaled_ibridge(base_config(), scale, use_sibling_term=False), 1),
    ]
    for label, cfg, warm in variants:
        res, _ = measure(cfg, _mio(scale, nprocs, op=Op.READ),
                         warm_runs=warm)
        result.add_row([label, round(res.throughput_mib_s, 1),
                        round(res.ssd_fraction * 100, 1)],
                       throughput=res.throughput_mib_s,
                       ssd_pct=res.ssd_fraction * 100)

    # Scheduler ablation: per-stream-only merging (write workload, where
    # cross-process merging matters most).
    cfg = base_config()
    cfg = cfg.replace(hdd_scheduler=dataclasses.replace(cfg.hdd_scheduler,
                                                        global_merge=False))
    res, _ = measure(cfg, _mio(scale, nprocs, op=Op.WRITE))
    result.add_row(["stock, per-stream merge only",
                    round(res.throughput_mib_s, 1), 0.0],
                   throughput=res.throughput_mib_s, ssd_pct=0.0)

    result.notes.append(
        "the literal Eq.1 policy has near-zero mean return for fragments "
        "(a fragment's per-request time is below the EWMA of full-size "
        "pieces); it admits only through seek-distance noise, so its "
        "cache fills more slowly but converges on repeated runs")
    result.notes.append(
        "per-stream-only merging (no Linux-style global elevator merge) "
        "roughly halves stock write throughput — cross-process merging "
        "matters even under uncoordinated arrivals")
    return result
