#!/usr/bin/env python3
"""Tune iBridge's request-size threshold (paper Section III-G, Fig. 13).

The threshold decides which sub-requests count as fragments / regular
random requests.  Higher thresholds redirect more data to the SSD:
throughput rises, but so does SSD wear.  The paper picks 20 KB as the
sweet spot.  This example sweeps the threshold and prints the same
normalized throughput / SSD usage trade-off, plus the dynamic partition
shares the servers converged to.

Run:  python examples/threshold_tuning.py
"""

from repro import Cluster, ClusterConfig, MpiIoTest, Op, run_workload
from repro.results import format_table
from repro.units import KiB, MiB


def main():
    nprocs, file_size = 32, 64 * MiB
    aligned = run_workload(
        Cluster(ClusterConfig(num_servers=8)),
        MpiIoTest(nprocs=nprocs, request_size=64 * KiB,
                  file_size=file_size, op=Op.WRITE))
    base_tp = aligned.throughput_mib_s

    rows = []
    for threshold_kib in (10, 20, 30, 40):
        config = ClusterConfig(num_servers=8).with_ibridge(
            ssd_partition=64 * MiB,
            fragment_threshold=threshold_kib * KiB,
            random_threshold=threshold_kib * KiB)
        cluster = Cluster(config)
        workload = MpiIoTest(nprocs=nprocs, request_size=65 * KiB,
                             file_size=file_size, op=Op.WRITE)
        result = run_workload(cluster, workload)
        shares = cluster.servers[0].ibridge.partition.shares()
        rows.append([
            f"{threshold_kib}KiB",
            f"{result.throughput_mib_s:.1f}",
            f"{result.throughput_mib_s / base_tp:.2f}",
            f"{result.ssd_fraction * 100:.1f}%",
            f"{shares[0]:.2f}/{shares[1]:.2f}",
        ])

    print(format_table(
        ["threshold", "MiB/s", "vs aligned", "SSD usage",
         "random/fragment shares"],
        rows,
        title="65KiB writes: threshold vs throughput and SSD usage"))
    print()
    print("Bigger thresholds buy throughput with SSD lifetime; the paper")
    print("chooses 20KB, trading ~21% of the 40KB throughput for ~76%")
    print("less SSD traffic.")


if __name__ == "__main__":
    main()
