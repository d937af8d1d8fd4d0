"""The per-sub-request path must leave nothing for the cycle collector.

A client -> network -> server -> block-queue round trip allocates
chains, events and block requests.  Every one of them
must be freed by reference counting as soon as it is done: a reference
cycle on that path hands every sub-request to CPython's cycle
collector, whose gen0/gen1 passes then cost host time on every cell.

Each test runs a small cell with automatic collection off, then
collects once while the cluster is still alive: the first tests read
``gc.garbage`` under ``gc.DEBUG_SAVEALL`` for the types that must never
be left in a cycle, and the fault-plan tests require that nothing at
all is collected, even when messages are lost or a crashed server drops
the jobs it accepted (a round trip left waiting forever is freed with
the event it waits on).  Long-lived objects (daemons, queue runners)
are still reachable at that point and are not counted.
"""

import gc
from collections import Counter

import pytest

from repro.block.request import BlockRequest
from repro.config import ClusterConfig
from repro.devices.base import Op
from repro.faults import FaultEvent, FaultKind, FaultPlan, server_outage
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


def _collected(cluster, workload) -> int:
    """Objects the cycle collector frees after a run (all of them)."""
    gc.collect()
    gc.disable()
    try:
        run_workload(cluster, workload)
        return gc.collect()
    finally:
        gc.enable()


def _recovering_cluster(plan):
    cfg = ClusterConfig(num_servers=4, seed=3).with_retry(
        timeout=0.02, max_retries=10, backoff_base=0.005, backoff_cap=0.05)
    return Cluster(cfg, fault_plan=plan)


@pytest.mark.parametrize("event", [
    # Late replies: attempts time out, are retried, and an earlier
    # attempt's reply completes the sub-request.
    FaultEvent(kind=FaultKind.NET_DELAY, delay=0.012, duration=0.3),
    # Lost messages: the attempt that sent one waits forever.
    FaultEvent(kind=FaultKind.NET_DROP, drop_prob=0.3, duration=0.5),
    # Lost jobs: a crashed server never answers what it accepted.
    server_outage(1, start=0.02, duration=0.05),
], ids=["net_delay", "net_drop", "server_crash"])
def test_timed_out_and_retried_round_trips_leave_nothing_to_collect(event):
    wl = MpiIoTest(nprocs=8, request_size=65 * KiB, file_size=4 * MiB,
                   op=Op.WRITE)
    cluster = _recovering_cluster(FaultPlan.single(event, name="gc"))
    assert _collected(cluster, wl) == 0
    clients = cluster._clients.values()
    assert sum(c.timeouts for c in clients) > 0
    assert sum(c.retries for c in clients) > 0
    assert sum(c.exhausted for c in clients) == 0
