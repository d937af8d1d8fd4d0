"""The benchmark's workloads: one simulator cell each.

A cell is a cluster configuration plus a workload, built from the
benchmark seed (which becomes ``ClusterConfig.seed``; the workload
shapes themselves do not depend on it).  Every cell runs on the serial
engine.  Sizes are fixed here, not taken from the experiment modules,
so that later changes to an experiment's defaults cannot silently
change what the benchmark measures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.config import ClusterConfig
from repro.devices.base import Op
from repro.experiments.common import base_config, file_bytes, scaled_ibridge
from repro.units import KiB, MiB
from repro.workloads.base import Workload
from repro.workloads.btio import BTIO
from repro.workloads.composite import CompositeWorkload
from repro.workloads.mpi_io_test import MpiIoTest

#: Working-set scales (fraction of the paper's 10 GB file), sized so one
#: repetition takes about 1-3 s of host time.  READ_SCALE is the
#: 64-rank midsize run of ``benchmarks/perf/e2e.py``.
READ_SCALE = 0.00625
MIX_MIO_SCALE = 0.002
MIX_BTIO_SCALE = 0.0003
MIX_STEPS = 4
GC_SCALE = 0.0025
#: SSD partition of the GC cell.  The GC study sizes it at file/24,
#: which at this scale leaves the manager's log so short that its
#: segment cleaner runs, and the cleaner can raise "relocate of unknown
#: log extent" when a write invalidates an extent it is moving (seen on
#: some seeds).  At 2 MiB the cleaner never starts on seeds 0-31 while
#: the small drive still stalls on garbage collection on every seed.
GC_PARTITION = 2 * MiB


@dataclass(frozen=True)
class Cell:
    name: str
    why: str
    #: Untimed passes before the measured one (``run_workload``).
    warm_runs: int
    make: Callable[[int], Tuple[ClusterConfig, Workload]]


def _fig2_reader() -> MpiIoTest:
    size = 65 * KiB
    return MpiIoTest(nprocs=64, request_size=size,
                     file_size=file_bytes(READ_SCALE, 64, size), op=Op.READ)


def stock_read(seed: int):
    """Fig. 2(a) Pattern II: 64 ranks of 65 KiB reads, stock system."""
    return base_config().replace(seed=seed), _fig2_reader()


def ibridge_read(seed: int):
    """The same reads with iBridge on, after one warm pass."""
    cfg = scaled_ibridge(base_config(), READ_SCALE)
    return cfg.replace(seed=seed), _fig2_reader()


def ibridge_mix(seed: int):
    """Fig. 12 dynamic partitioning: 65 KiB mpi-io-test writes
    concurrent with BTIO's tiny writes."""
    mio = MpiIoTest(nprocs=64, request_size=65 * KiB,
                    file_size=file_bytes(MIX_MIO_SCALE, 64, 65 * KiB),
                    op=Op.WRITE)
    btio = BTIO(nprocs=64, steps=MIX_STEPS, scale=MIX_BTIO_SCALE,
                compute_per_step=0.5)
    wl = CompositeWorkload([mio, btio], name="fig12")
    # SSD partition sized like the paper's 8 GB for ~17 GB of data.
    partition = max(8 * MiB, int(wl.total_bytes * 0.45))
    cfg = base_config().with_ibridge(ssd_partition=partition)
    return cfg.replace(seed=seed), wl


def ibridge_gc_observed(seed: int):
    """The GC study's stagger cell (96 KiB unaligned writes on a small
    FTL drive) under strict audit and full observability."""
    size = 96 * KiB
    wl = MpiIoTest(nprocs=16, request_size=size,
                   file_size=file_bytes(GC_SCALE, 16, size), op=Op.WRITE)
    cfg = base_config().with_ibridge(ssd_partition=GC_PARTITION,
                                     fragment_threshold=48 * KiB)
    ssd = dataclasses.replace(
        cfg.ssd, capacity=2 * GC_PARTITION + 2 * MiB, ftl_enabled=True,
        ftl_over_provision=0.25, gc_low_watermark=0.30,
        gc_high_watermark=0.55, gc_mode="pause", gc_policy="stagger")
    cfg = cfg.replace(ssd=ssd).with_audit(strict=True).with_obs(
        trace=True, metrics=True, timeline_dt=0.05)
    return cfg.replace(seed=seed), wl


CELLS: Dict[str, Cell] = {c.name: c for c in (
    Cell("stock_read",
         "fig2 Pattern II cell on the stock system: engine, client, net, "
         "server, CFQ and HDD only; the bypass case for every iBridge path",
         0, stock_read),
    Cell("ibridge_read",
         "same reads with iBridge on and one warm pass: the manager's read "
         "path (mapping pieces/gaps, readahead, fill daemon) and SSD reads",
         1, ibridge_read),
    Cell("ibridge_mix",
         "fig12 dynamic-partition cell: Eq. 1-3 admission, partitioning, "
         "log appends, writeback and a deep SSD noop queue",
         0, ibridge_mix),
    Cell("ibridge_gc_observed",
         "GC stagger cell with FTL on, strict audit and full obs: the only "
         "workload where ftl, obs and audit do work",
         2, ibridge_gc_observed),
)}
