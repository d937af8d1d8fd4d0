"""The per-sub-request path must leave nothing for the cycle collector.

A client -> network -> server -> block-queue round trip allocates
processes, events, conditions and block requests.  Every one of them
must be freed by reference counting as soon as it is done: a reference
cycle on that path hands every sub-request to CPython's cycle
collector, whose gen0/gen1 passes then cost host time on every cell.

Each test runs a small cell with automatic collection off and
``gc.DEBUG_SAVEALL`` on, then collects once while the cluster is still
alive, so ``gc.garbage`` holds exactly the unreachable cycles the run
created.  Long-lived objects (daemons, queue runners) are still
reachable at that point and are not counted.
"""

import gc
from collections import Counter

from repro.block.request import BlockRequest
from repro.config import ClusterConfig
from repro.devices.base import Op
from repro.pfs.cluster import Cluster
from repro.sim import AnyOf, Process, Timeout
from repro.units import KiB, MiB
from repro.workloads.base import run_workload
from repro.workloads.mpi_io_test import MpiIoTest

#: Object types that must never be left in a cycle by a finished run.
FORBIDDEN = (Process, BlockRequest, AnyOf, Timeout)


def _cyclic_garbage(cluster, workload, warm_runs=0) -> Counter:
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_workload(cluster, workload, warm_runs=warm_runs)
        gc.collect()
        kinds = Counter(
            type(obj).__name__ for obj in gc.garbage
            if isinstance(obj, FORBIDDEN) or type(obj).__name__ == "generator")
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
    return kinds


def test_stock_read_round_trips_leave_no_cycles():
    wl = MpiIoTest(nprocs=8, request_size=65 * KiB, file_size=4 * MiB,
                   op=Op.READ)
    cluster = Cluster(ClusterConfig(num_servers=4, seed=3))
    assert _cyclic_garbage(cluster, wl) == Counter()
    assert cluster.network.stats.messages > 0


def test_ibridge_write_round_trips_leave_no_cycles():
    wl = MpiIoTest(nprocs=8, request_size=65 * KiB, file_size=4 * MiB,
                   op=Op.WRITE)
    cfg = ClusterConfig(num_servers=4, seed=3).with_ibridge(
        ssd_partition=8 * MiB)
    cluster = Cluster(cfg)
    assert _cyclic_garbage(cluster, wl, warm_runs=1) == Counter()
    assert cluster.ibridge_stats().ssd_redirected_writes > 0
