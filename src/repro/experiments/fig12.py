"""Figure 12: heterogeneous workloads and dynamic SSD partitioning.

mpi-io-test (65 KB writes — fragments) runs concurrently with BTIO
(tiny writes — regular random requests).  Compared: the stock system,
iBridge with static 1:1 and 1:2 (random:fragment) SSD splits, and
iBridge's dynamic return-proportional partitioning.  The paper reports
+53% aggregate over stock for dynamic, and +13%/+5% over the static
1:1/1:2 splits.
"""

from __future__ import annotations


from ..devices.base import Op
from ..units import KiB, MiB
from ..workloads.btio import BTIO
from ..workloads.composite import CompositeWorkload
from ..workloads.mpi_io_test import MpiIoTest
from .common import (DEFAULT_SCALE, ExperimentResult, base_config, file_bytes,
                     measure, scaled_ibridge)


def _part_throughput(requests, ranks: range) -> float:
    mine = [r for r in requests if r.rank in ranks and r.latency is not None]
    if not mine:
        return 0.0
    start = min(r.submit_time for r in mine)
    end = max(r.complete_time for r in mine)
    return sum(r.nbytes for r in mine) / MiB / max(1e-9, end - start)


def _make_workload(scale: float, nprocs: int, steps: int):
    mio = MpiIoTest(nprocs=nprocs, request_size=65 * KiB,
                    file_size=file_bytes(scale, nprocs, 65 * KiB),
                    op=Op.WRITE)
    btio = BTIO(nprocs=nprocs, steps=steps, scale=scale,
                compute_per_step=0.5)
    return CompositeWorkload([mio, btio], name="fig12")


def run(scale: float = DEFAULT_SCALE, nprocs: int = 64,
        steps: int = 8) -> ExperimentResult:
    result = ExperimentResult(
        name="fig12",
        title="Fig 12 — heterogeneous mix (MiB/s)",
        headers=["system", "mpi-io-test", "BTIO", "aggregate"],
    )
    # SSD partition sized like the paper's 8 GB for ~17 GB of data.
    probe = _make_workload(scale, nprocs, steps)
    partition = max(8 * MiB, int(probe.total_bytes * 0.45))
    systems = [
        ("stock", base_config()),
        ("static 1:1", scaled_ibridge(base_config(), scale,
                                      ssd_partition=partition,
                                      dynamic_partition=False,
                                      static_split=(0.5, 0.5))),
        ("static 1:2", scaled_ibridge(base_config(), scale,
                                      ssd_partition=partition,
                                      dynamic_partition=False,
                                      static_split=(1 / 3, 2 / 3))),
        ("dynamic", scaled_ibridge(base_config(), scale,
                                   ssd_partition=partition)),
    ]
    for label, cfg in systems:
        wl = _make_workload(scale, nprocs, steps)
        res, cluster = measure(cfg, wl)
        tp_mio = _part_throughput(cluster.requests, wl.rank_range(0))
        tp_btio = _part_throughput(cluster.requests, wl.rank_range(1))
        agg = res.throughput_mib_s
        result.add_row([label, round(tp_mio, 1), round(tp_btio, 1),
                        round(agg, 1)],
                       mpiiotest=tp_mio, btio=tp_btio, aggregate=agg)
    result.notes.append("paper: dynamic = 84 MB/s aggregate, +53% over "
                        "stock, +13%/+5% over static 1:1 / 1:2")
    return result
