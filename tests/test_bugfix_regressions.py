"""Regression tests for the bugs the invariant auditor exposed.

Each test pins one fixed behaviour:

* ``flush_all`` terminates when a dirty entry is larger than the
  writeback batch budget (the old ``break`` starved the batch and the
  drain loop spun forever without yielding),
* read-miss fills charge the persisted mapping-table entry to the log
  exactly like redirected writes (occupancy parity),
* readahead extension bytes are not counted as request payload in
  ``bytes_from_disk`` (they are ``readahead_bytes``),
* concurrent admissions never over-commit a static class share,
* the log cleaner skips an extent an overwrite dropped while it was
  being read, and repoints the entry before writing the relocated copy,
* an overwrite that waited on a busy overlapping entry (or flushed it)
  skips the entry when a concurrent path dropped it meanwhile.
"""

import dataclasses
import signal

import pytest

from repro.config import ClusterConfig
from repro.core.manager import TABLE_ENTRY_BYTES
from repro.devices import HardDisk, Op, profile_device
from repro.pfs.messages import SubRequest
from repro.pfs.server import DataServer
from repro.sim import Environment
from repro.units import KiB, MiB


def make_server(env=None, **ib_overrides):
    env = env or Environment()
    ib_overrides.setdefault("ssd_partition", 4 * MiB)
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0).with_ibridge(
        **ib_overrides)
    profile = profile_device(HardDisk(cfg.hdd))
    return env, DataServer(env, 0, cfg, profile)


def sub(op=Op.WRITE, offset=0, size=4 * KiB, fragment=False, random=False,
        siblings=(), rank=0, handle=1):
    return SubRequest(parent_id=1, op=op, handle=handle, server=0,
                      local_offset=offset, nbytes=size, rank=rank,
                      is_fragment=fragment, is_random=random,
                      sibling_servers=tuple(siblings))


def serve(env, server, s):
    done = server.submit(s)
    env.run(until=done)
    return done.value


# ------------------------------------------------------ flush_all livelock
@pytest.fixture
def deadline():
    """Hard wall-clock limit: the old flush_all bug spun without
    yielding, so only an interpreter-level alarm can fail it cleanly."""
    def on_alarm(signum, frame):
        raise TimeoutError("test exceeded the wall-clock deadline "
                           "(flush_all livelock regression?)")
    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def test_flush_some_oversized_entry_makes_progress():
    """An entry above the batch budget is flushed alone, not skipped
    forever (the guaranteed-progress fallback)."""
    env, server = make_server(writeback_batch=1 * KiB)
    mgr = server.ibridge
    serve(env, server, sub(size=2 * KiB, fragment=True, siblings=(1,)))
    assert mgr.mapping.dirty_bytes == 2 * KiB
    proc = env.process(mgr._flush_some(mgr.mapping.dirty_entries()),
                       name="flush-some")
    env.run(until=proc)
    assert mgr.mapping.dirty_bytes == 0


def test_flush_some_oversized_entry_does_not_block_later_entries():
    """Budget-exceeding entries are skipped, not a stop condition: the
    entries after them in LBN order still flush in the same pass."""
    env, server = make_server(writeback_batch=3 * KiB)
    mgr = server.ibridge
    serve(env, server, sub(offset=0, size=4 * KiB, fragment=True,
                           siblings=(1,)))          # oversized, lowest LBN
    serve(env, server, sub(offset=64 * KiB, size=2 * KiB, fragment=True,
                           siblings=(1,)))
    assert mgr.mapping.dirty_bytes == 6 * KiB
    proc = env.process(mgr._flush_some(mgr.mapping.dirty_entries()),
                       name="flush-some")
    env.run(until=proc)
    # The 2 KiB entry fit the budget and must have been written back.
    assert mgr.mapping.dirty_bytes <= 4 * KiB


def test_flush_all_terminates_with_oversized_dirty_entries(deadline):
    env, server = make_server(writeback_batch=1 * KiB)
    for i in range(3):
        serve(env, server, sub(offset=i * 64 * KiB, size=2 * KiB,
                               fragment=True, siblings=(1,)))
    assert server.ibridge.mapping.dirty_bytes == 6 * KiB
    proc = env.process(server.drain(), name="drain")
    env.run(until=proc)
    assert server.ibridge.mapping.dirty_bytes == 0


# ------------------------------------------------- fill log-occupancy parity
def test_fill_admission_charges_table_entry_like_writes():
    """Both admission paths must account payload + TABLE_ENTRY_BYTES in
    the log, or occupancy drifts from reality on every read-miss fill."""
    env, server = make_server()
    mgr = server.ibridge
    # Allocate backing store, then miss on a small random read so the
    # fill daemon admits the range during the idle period that follows.
    serve(env, server, sub(op=Op.WRITE, offset=0, size=256 * KiB))
    serve(env, server, sub(op=Op.READ, offset=16 * KiB, size=4 * KiB,
                           random=True))
    env.run(until=env.timeout(env.now + 1.0))
    fills = [e for e in mgr.mapping.entries if not e.dirty]
    assert fills, "expected the read miss to be filled into the SSD"
    for e in fills:
        _seg, size = mgr._log._extents[e.ssd_lbn]
        assert size == e.nbytes + TABLE_ENTRY_BYTES
    assert mgr._log.live_bytes == sum(e.nbytes + TABLE_ENTRY_BYTES
                                      for e in mgr.mapping.entries)


# ------------------------------------------------------- readahead stats
def test_readahead_extension_not_counted_as_payload():
    """A rounded-up disk read moves extension bytes physically, but the
    request-payload stat must not inflate; the extension shows up in
    ``readahead_bytes`` instead."""
    env, server = make_server()
    mgr = server.ibridge
    # Allocate [0, 192 KiB) and cache [60 KiB, 64 KiB) as a fragment so
    # a later [0, 60 KiB) read can round its gap up to the stripe edge.
    serve(env, server, sub(op=Op.WRITE, offset=0, size=192 * KiB))
    serve(env, server, sub(op=Op.WRITE, offset=60 * KiB, size=4 * KiB,
                           fragment=True, siblings=(1,)))
    assert mgr.mapping.coverage(1, 60 * KiB, 64 * KiB) == 4 * KiB
    # Readahead only engages under load: keep two streaming reads in
    # flight while the unaligned read arrives.
    fillers = [server.submit(sub(op=Op.READ, offset=64 * KiB, size=64 * KiB,
                                 rank=1)),
               server.submit(sub(op=Op.READ, offset=128 * KiB, size=64 * KiB,
                                 rank=2))]
    target = server.submit(sub(op=Op.READ, offset=0, size=60 * KiB))
    env.run(until=env.all_of(fillers + [target]))
    assert mgr.stats.readahead_bytes == 4 * KiB
    # Payload accounting: the 192 KiB setup write plus the 60 KiB
    # target and 128 KiB filler reads — no extension bytes.
    assert mgr.stats.bytes_from_disk == (192 + 60 + 128) * KiB
    # The disk really moved the rounded-up transfer.
    assert server.hdd.stats.bytes_read == (64 + 128) * KiB


# ------------------------------------------------- admission over-commit
def test_concurrent_admissions_respect_static_share():
    env, server = make_server(ssd_partition=32 * KiB,
                              dynamic_partition=False,
                              static_split=(0.5, 0.5))
    mgr = server.ibridge
    share = mgr.partition.class_capacity(
        next(iter(mgr.partition._bytes)))
    done = [server.submit(sub(offset=i * 64 * KiB, size=6 * KiB,
                              fragment=True, siblings=(1,), rank=i))
            for i in range(8)]
    env.run(until=env.all_of(done))
    from repro.core.mapping import CacheKind
    assert mgr.partition.used(CacheKind.FRAGMENT) <= \
        mgr.partition.class_capacity(CacheKind.FRAGMENT)
    assert mgr.partition.used() <= mgr.partition.capacity
    assert share >= 0  # static shares stay fixed through the run


# ------------------------------------------------------- log-cleaner race
def gc_stagger_cell(seed):
    """The GC study's stagger cell (96 KiB unaligned writes, small FTL
    drive) with a 1 MiB partition, so short a log that the segment
    cleaner runs while overwrites invalidate the extents it moves."""
    from repro.experiments.common import base_config, file_bytes
    from repro.workloads.mpi_io_test import MpiIoTest

    partition, size = 1 * MiB, 96 * KiB
    wl = MpiIoTest(nprocs=16, request_size=size,
                   file_size=file_bytes(0.0025, 16, size), op=Op.WRITE)
    cfg = base_config().with_ibridge(ssd_partition=partition,
                                     fragment_threshold=48 * KiB)
    ssd = dataclasses.replace(
        cfg.ssd, capacity=2 * partition + 2 * MiB, ftl_enabled=True,
        ftl_over_provision=0.25, gc_low_watermark=0.30,
        gc_high_watermark=0.55, gc_mode="pause", gc_policy="stagger")
    return cfg.replace(ssd=ssd, seed=seed).with_audit(strict=True), wl


@pytest.mark.parametrize("seed", [5, 11, 15])
def test_log_cleaner_survives_concurrent_overwrites(seed):
    """An overwrite that drops an extent while the cleaner reads it, or
    drops the entry while its relocated copy is written, used to raise
    "relocate/invalidate of unknown log extent"."""
    from repro.pfs.cluster import Cluster
    from repro.workloads.base import run_workload

    cfg, wl = gc_stagger_cell(seed)
    cluster = Cluster(cfg)
    result = run_workload(cluster, wl, warm_runs=2)
    assert sum(s.ibridge._log.cleanings for s in cluster.servers) > 0
    assert cluster.audit.ok
    assert result.requests


@pytest.mark.parametrize("seed", [5, 11, 15])
def test_overwrite_skips_entry_dropped_while_it_waited(seed):
    """Undrained passes leave writebacks in flight when the next pass
    overwrites: ``_invalidate_overlaps`` waited on the busy entry, a
    concurrent write dropped it first, and the waiter's own drop raised
    "remove of unknown entry"."""
    from repro.pfs.cluster import Cluster
    from repro.workloads.base import run_workload

    cfg, wl = gc_stagger_cell(seed)
    cluster = Cluster(cfg)
    result = run_workload(cluster, wl, warm_runs=2, drain=False)
    assert cluster.audit.ok
    assert len(result.requests) == wl.nprocs * wl.iterations
