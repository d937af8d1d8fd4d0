"""Figure 5: block-level dispatch sizes with iBridge, 64 KB + 10 KB offset.

The counterpart of Fig. 2(e): with the 10 KB fragments served by the
SSDs (cached in a prior run), the disks' dispatched read sizes return
to large (≥128-sector) requests.
"""

from __future__ import annotations

from ..devices.base import Op
from ..units import KiB
from ..workloads.mpi_io_test import MpiIoTest
from .common import (DEFAULT_SCALE, ExperimentResult, base_config, file_bytes,
                     measure, read_dispatch_fractions, scaled_ibridge)


def run(scale: float = DEFAULT_SCALE, nprocs: int = 64) -> ExperimentResult:
    cfg = scaled_ibridge(base_config(), scale)
    size = 64 * KiB
    wl = MpiIoTest(nprocs=nprocs, request_size=size,
                   file_size=file_bytes(scale, nprocs, size),
                   op=Op.READ, offset_shift=10 * KiB)
    _res, cluster = measure(cfg, wl, warm_runs=1)
    dist = read_dispatch_fractions(cluster)

    result = ExperimentResult(
        name="fig5",
        title="Fig 5 — disk dispatch sizes with iBridge (64KiB +10KiB reads)",
        headers=["metric", "value"],
    )
    top = sorted(dist.items(), key=lambda kv: -kv[1])[:5]
    big = sum(f for s, f in dist.items() if s >= 128)
    small = sum(f for s, f in dist.items() if s < 64)
    mean = sum(s * f for s, f in dist.items())
    result.add_row(["top sizes (sectors:frac%)",
                    " ".join(f"{s}:{f * 100:.0f}%" for s, f in top)])
    result.add_row(["fraction >= 128 sectors", round(big, 3)], frac_big=big)
    result.add_row(["fraction < 64 sectors", round(small, 3)], frac_small=small)
    result.add_row(["mean sectors", round(mean, 1)], mean_sectors=mean)
    result.notes.append(
        "paper: 128- and 256-sector requests predominate, in contrast to "
        "Fig 2(e)'s 80/176-sector mix on the stock system")
    return result
