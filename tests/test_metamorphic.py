"""Metamorphic oracles: relations between runs that must hold exactly.

iBridge only acts on fragments, the parts of a request that do not
cover a whole striping unit.  So a manager that has no SSD space to
admit them into, or requests that make no fragments, must leave the
run exactly as the stock system runs it: the same ``run_digest``
(request times, makespan, every numeric result extra).  Each relation
is checked for two seeds, for reads and writes, with and without one
warm pass, under the suite's strict audit.  A guard checks the relation
is not vacuous: unaligned writes with SSD space do change the run.
"""

import pytest

from repro.devices.base import Op
from repro.experiments.common import base_config
from repro.pfs.cluster import Cluster
from repro.results import run_digest
from repro.units import KiB
from repro.workloads.base import run_workload
from repro.workloads.mpi_io_test import MpiIoTest

NPROCS = 8
ITERATIONS = 4
#: Matrix of the relations: seed x op x warm passes.
CASES = [(seed, op, warm) for seed in (0, 1) for op in (Op.READ, Op.WRITE)
         for warm in (0, 1)]
IDS = [f"seed{seed}-{op.name.lower()}-warm{warm}" for seed, op, warm in CASES]


def _run(cfg, size, op, warm):
    wl = MpiIoTest(nprocs=NPROCS, request_size=size,
                   file_size=NPROCS * size * ITERATIONS, op=op)
    return run_workload(Cluster(cfg), wl, warm_runs=warm)


def _stock(seed):
    return base_config().replace(seed=seed)


@pytest.mark.parametrize("size", [64 * KiB, 65 * KiB],
                         ids=["aligned", "unaligned"])
@pytest.mark.parametrize("seed,op,warm", CASES, ids=IDS)
def test_ibridge_without_ssd_space_equals_stock(seed, op, warm, size):
    stock = _stock(seed)
    ibridge = stock.with_ibridge(ssd_partition=0)
    assert run_digest(_run(ibridge, size, op, warm)) \
        == run_digest(_run(stock, size, op, warm))


@pytest.mark.parametrize("seed,op,warm", CASES, ids=IDS)
def test_stripe_aligned_requests_make_ibridge_equal_stock(seed, op, warm):
    stock = _stock(seed)
    assert stock.stripe_unit == 64 * KiB
    ibridge = stock.with_ibridge()
    assert run_digest(_run(ibridge, 64 * KiB, op, warm)) \
        == run_digest(_run(stock, 64 * KiB, op, warm))


@pytest.mark.parametrize("seed", [0, 1])
def test_unaligned_writes_with_ssd_space_differ_from_stock(seed):
    stock = _stock(seed)
    with_ssd = _run(stock.with_ibridge(), 65 * KiB, Op.WRITE, 0)
    assert with_ssd.ssd_fraction > 0
    assert run_digest(with_ssd) \
        != run_digest(_run(stock, 65 * KiB, Op.WRITE, 0))
