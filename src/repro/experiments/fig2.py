"""Figure 2: the effects of unaligned access on the stock system.

(a) Pattern II — request sizes 64/65/74/84/94 KB across process counts;
(b) Pattern III — 64 KB requests at offsets 0/1/10 KB across process
    counts;
(c,d,e) block-level dispatch-size distributions for aligned 64 KB,
    65 KB, and 64 KB + 10 KB-offset requests.

All on the stock system (no iBridge): this is the motivation study.

Each measured point is an independent cell of the experiment matrix
(fresh cluster, fixed seed) executed through
:mod:`repro.experiments.runner` — serial and ``--jobs N`` runs produce
bit-identical results, merged in loop order.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..devices.base import Op
from ..units import KiB
from ..workloads.mpi_io_test import MpiIoTest
from .common import (DEFAULT_SCALE, ExperimentResult, base_config, file_bytes,
                     measure, read_dispatch_fractions)
from .runner import cell, sweep

#: Paper reference points (MB/s) quoted in Section I-A.
PAPER_POINTS = {
    ("fig2a", 16, 64): 159.6,
    ("fig2a", 16, 65): 77.4,
    ("fig2a", 16, 74): 88.1,
    ("fig2a", 512, 64): 116.2,
    ("fig2b", 512, 1): 102.1,
    ("fig2b", 512, 10): 81.8,
}


def _cell_throughput(scale: float, nprocs: int, size: int,
                     offset_shift: int = 0) -> float:
    """One (nprocs, request size, offset) point on the stock system."""
    cfg = base_config()
    wl = MpiIoTest(nprocs=nprocs, request_size=size,
                   file_size=file_bytes(scale, nprocs, size), op=Op.READ,
                   offset_shift=offset_shift)
    res, _ = measure(cfg, wl)
    return res.throughput_mib_s


def run_fig2a(scale: float = DEFAULT_SCALE,
              sizes_kib: Sequence[int] = (64, 65, 74, 84, 94),
              procs: Sequence[int] = (16, 64, 128, 512)) -> ExperimentResult:
    """Pattern II: unaligned request sizes vs process count (reads)."""
    result = ExperimentResult(
        name="fig2a",
        title="Fig 2(a) — throughput (MiB/s), Pattern II request sizes",
        headers=["nprocs"] + [f"{s}KiB" for s in sizes_kib],
    )
    cells = [cell("repro.experiments.fig2:_cell_throughput",
                  scale=scale, nprocs=np_, size=s * KiB)
             for np_ in procs for s in sizes_kib]
    values = iter(sweep(cells))
    for np_ in procs:
        row: list = [np_]
        keyed: Dict[str, float] = {}
        for s in sizes_kib:
            tp = next(values)
            row.append(round(tp, 1))
            keyed[f"s{s}"] = tp
        result.add_row(row, **keyed)
    result.notes.append("paper: 16 procs — 64K:159.6, 65K:77.4, 74K:88.1; "
                        "throughput declines with process count")
    return result


def run_fig2b(scale: float = DEFAULT_SCALE,
              offsets_kib: Sequence[int] = (0, 1, 10),
              procs: Sequence[int] = (16, 64, 128, 512)) -> ExperimentResult:
    """Pattern III: 64 KB requests at stripe-shifted offsets (reads)."""
    result = ExperimentResult(
        name="fig2b",
        title="Fig 2(b) — throughput (MiB/s), Pattern III offsets (64KiB reqs)",
        headers=["nprocs"] + [f"+{o}KiB" for o in offsets_kib],
    )
    size = 64 * KiB
    cells = [cell("repro.experiments.fig2:_cell_throughput",
                  scale=scale, nprocs=np_, size=size, offset_shift=off * KiB)
             for np_ in procs for off in offsets_kib]
    values = iter(sweep(cells))
    for np_ in procs:
        row: list = [np_]
        keyed: Dict[str, float] = {}
        for off in offsets_kib:
            tp = next(values)
            row.append(round(tp, 1))
            keyed[f"off{off}"] = tp
        result.add_row(row, **keyed)
    result.notes.append("paper (512 procs): +0:116.2, +1:102.1, +10:81.8; "
                        "offsets degrade throughput at every process count")
    return result


def _cell_dispatch_histogram(scale: float, request_size: int, offset: int,
                             nprocs: int = 64) -> Dict[int, float]:
    """Merged dispatch-size distribution for one unaligned pattern."""
    cfg = base_config()
    wl = MpiIoTest(nprocs=nprocs, request_size=request_size,
                   file_size=file_bytes(scale, nprocs, request_size),
                   op=Op.READ, offset_shift=offset)
    _res, cluster = measure(cfg, wl)
    return read_dispatch_fractions(cluster)


def run_fig2cde(scale: float = DEFAULT_SCALE, nprocs: int = 64) -> ExperimentResult:
    """Block-level dispatch-size distributions (sectors of 0.5 KB)."""
    result = ExperimentResult(
        name="fig2cde",
        title="Fig 2(c,d,e) — block-level dispatch sizes (top-3 fractions)",
        headers=["case", "top sizes (sectors:frac%)", "frac >=128 sectors",
                 "mean sectors"],
    )
    cases = [
        ("c: 64KiB aligned", 64 * KiB, 0),
        ("d: 65KiB", 65 * KiB, 0),
        ("e: 64KiB +10KiB", 64 * KiB, 10 * KiB),
    ]
    cells = [cell("repro.experiments.fig2:_cell_dispatch_histogram",
                  scale=scale, request_size=size, offset=off, nprocs=nprocs)
             for _label, size, off in cases]
    for (label, _size, _off), raw in zip(cases, sweep(cells)):
        # Pickled dict keys stay ints; JSON-free transport keeps
        # the histogram exact.
        dist = {int(k): v for k, v in raw.items()}
        top = sorted(dist.items(), key=lambda kv: -kv[1])[:3]
        top_s = " ".join(f"{s}:{f * 100:.0f}%" for s, f in top)
        big = sum(f for s, f in dist.items() if s >= 128)
        mean = sum(s * f for s, f in dist.items())
        result.add_row([label, top_s, round(big, 3), round(mean, 1)],
                       frac_big=big, mean_sectors=mean)
    result.notes.append(
        "paper: (c) 72% at 128 sectors, 18% at 256; (d) many small sizes; "
        "(e) dominant sizes 80 and 176 sectors (40KB/88KB)")
    return result


def run(scale: float = DEFAULT_SCALE) -> ExperimentResult:
    """Aggregate Fig 2 driver (sub-figures also callable individually)."""
    a = run_fig2a(scale, procs=(16, 64))
    b = run_fig2b(scale, procs=(16, 64))
    c = run_fig2cde(scale)
    combined = ExperimentResult(
        name="fig2",
        title="Fig 2 — unaligned access effects (see sub-results)",
        headers=["sub-figure", "rows"],
    )
    for sub in (a, b, c):
        combined.add_row([sub.name, len(sub.rows)])
        combined.notes.append(str(sub))
    return combined
