#!/usr/bin/env python3
"""Run-over-run warming of the iBridge read cache.

For writes iBridge helps immediately; for reads it can only serve what
is already cached.  The paper's rationale (Section II-B): production
MPI programs run many times with consistent access patterns, so the
fragments identified in one run are pre-loaded for the next.

This example executes the same unaligned read workload five times on
one cluster and prints throughput per run: run 1 populates the cache
(misses admit data during idle periods), later runs hit it.

Run:  python examples/rerun_warming.py
"""

from repro import Cluster, ClusterConfig, MpiIoTest, Op
from repro.results import format_table
from repro.mpi import MPIRun
from repro.units import KiB, MiB


def main():
    config = ClusterConfig(num_servers=8).with_ibridge(
        ssd_partition=64 * MiB)
    cluster = Cluster(config)
    workload = MpiIoTest(nprocs=32, request_size=65 * KiB,
                         file_size=64 * MiB, op=Op.READ)
    workload.prepare(cluster)

    rows = []
    for run_no in range(1, 6):
        start = cluster.env.now
        cluster.requests.clear()
        MPIRun(cluster, workload.nprocs).run_to_completion(workload.body)
        cluster.drain()
        elapsed = cluster.env.now - start
        throughput = workload.total_bytes / (1024 * 1024) / elapsed
        cached = sum(len(s.ibridge.mapping) for s in cluster.servers)
        rows.append([run_no, f"{throughput:.1f}", cached])

    print(format_table(
        ["run", "MiB/s", "cached fragments (entries)"],
        rows,
        title="Same unaligned read workload, re-executed on one cluster"))
    print()
    print("Run 1 serves everything from the disks while the background")
    print("fill daemon copies hot fragments into the SSD log; later runs")
    print("serve those fragments from the SSDs and approach the aligned")
    print("throughput (paper Section II-B's pre-loading rationale).")


if __name__ == "__main__":
    main()
