"""Unit tests for the invariant auditor, watchdog and event trace.

Each detection test plants one deliberate inconsistency in a live
manager (the kind of slip a refactor could introduce) and asserts the
auditor reports it — strict mode raising :class:`AuditError` at the
check site, non-strict mode accumulating the violation record.
"""

import json

import pytest

from repro.audit import AuditRuntime, EventTrace
from repro.config import AuditConfig, ClusterConfig
from repro.core.mapping import CacheKind
from repro.devices import HardDisk, Op, profile_device
from repro.errors import AuditError
from repro.pfs.messages import SubRequest
from repro.pfs.server import DataServer
from repro.sim import Environment
from repro.units import KiB, MiB


def make_server(env=None, strict=True, **ib_overrides):
    env = env or Environment()
    ib_overrides.setdefault("ssd_partition", 4 * MiB)
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0,
                        audit=AuditConfig(enabled=True, strict=strict))
    cfg = cfg.with_ibridge(**ib_overrides)
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


def cached_server(strict=True):
    """A server with one dirty cached fragment, plus its auditor."""
    env, server = make_server(strict=strict)
    serve(env, server, sub(size=2 * KiB, fragment=True, siblings=(1,)))
    mgr = server.ibridge
    assert mgr.mapping.entries, "setup: expected a cached entry"
    return env, server, mgr, mgr.audit


# ------------------------------------------------------- seeded violations
def test_clean_run_has_no_violations():
    env, server, mgr, auditor = cached_server()
    proc = env.process(server.drain(), name="drain")
    env.run(until=proc)
    auditor.final_check()
    assert server.audit.ok
    assert auditor.checks > 0


def test_partition_byte_corruption_detected():
    env, server, mgr, auditor = cached_server()
    mgr.partition._bytes[CacheKind.FRAGMENT] += 1
    with pytest.raises(AuditError, match="partition-bytes"):
        auditor.check("test")


def test_lbn_index_corruption_detected():
    env, server, mgr, auditor = cached_server()
    [entry] = mgr.mapping.entries
    del mgr._by_lbn[entry.ssd_lbn]
    with pytest.raises(AuditError, match="lbn-index"):
        auditor.check("test")


def test_log_accounting_corruption_detected():
    env, server, mgr, auditor = cached_server()
    [entry] = mgr.mapping.entries
    mgr._log.invalidate(entry.ssd_lbn)  # entry now points at dead space
    with pytest.raises(AuditError, match="log-extent"):
        auditor.check("test")


def test_dirty_ledger_drift_detected():
    env, server, mgr, auditor = cached_server()
    [entry] = mgr.mapping.entries
    entry.dirty = False  # cleaned without a writeback: bytes vanish
    with pytest.raises(AuditError, match="dirty-ledger"):
        auditor.check("test")


def test_dirty_counter_drift_detected():
    env, server, mgr, auditor = cached_server()
    mgr.mapping._dirty_bytes += 1  # running count drifts from the table
    with pytest.raises(AuditError, match="dirty-counter"):
        auditor.check("test")


def test_read_conservation_violation_detected():
    env, server, mgr, auditor = cached_server()
    with pytest.raises(AuditError, match="read-conservation"):
        auditor.note_read(4 * KiB, 0, 0, 0)


def test_final_check_rejects_undrained_manager():
    env, server, mgr, auditor = cached_server()
    assert mgr.mapping.dirty_bytes > 0
    with pytest.raises(AuditError, match="final-dirty"):
        auditor.final_check()


def test_ftl_ledger_drift_detected():
    """The auditor folds the FTL's write-amplification ledger into its
    coherence sweep: a counter that drifts from the page-program
    identity is a model bug, not a timing artifact."""
    env = Environment()
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0,
                        audit=AuditConfig(enabled=True, strict=True))
    cfg = cfg.with_ibridge(ssd_partition=4 * MiB).with_ftl(capacity=16 * MiB)
    profile = profile_device(HardDisk(cfg.hdd))
    server = DataServer(env, 0, cfg, profile)
    serve(env, server, sub(size=2 * KiB, fragment=True, siblings=(1,)))
    mgr = server.ibridge
    assert server.ssd.ftl.host_pages_written > 0
    mgr.audit.check("test")                 # healthy ledger passes
    server.ssd.ftl.gc_pages_copied += 1     # break the identity
    with pytest.raises(AuditError, match="ftl-ledger"):
        mgr.audit.check("test")


def test_non_strict_mode_accumulates_violations():
    env, server, mgr, auditor = cached_server(strict=False)
    mgr.partition._bytes[CacheKind.FRAGMENT] += 1
    auditor.check("test")  # must not raise
    assert not server.audit.ok
    [record] = server.audit.violations
    assert record["check"] == "partition-bytes"
    assert record["kind"] == "violation"


def test_runtime_checkpoint_sweeps_all_managers():
    env, server, mgr, auditor = cached_server()
    mgr.partition._bytes[CacheKind.FRAGMENT] += 1
    with pytest.raises(AuditError):
        server.audit.checkpoint("sweep")


# --------------------------------------------------------------- watchdog
class _StallQueue:
    """A queue with pending work that never completes anything."""

    name = "stalled"
    busy = False
    dispatches = 0
    completed = 0
    pending = 1


def test_watchdog_fires_on_stalled_queue():
    env = Environment()
    runtime = AuditRuntime(env, AuditConfig(enabled=True,
                                            watchdog_window=0.01))
    runtime.watch_queue(_StallQueue())
    with pytest.raises(AuditError, match="livelock"):
        env.run(until=env.timeout(1.0))
    assert runtime.watchdog.fired == 1
    [dump] = runtime.trace.records("watchdog_stall")
    assert dump["queues"][0]["name"] == "stalled"
    assert dump["pending"] == 1


def test_watchdog_quiet_while_requests_complete():
    env = Environment()
    runtime = AuditRuntime(env, AuditConfig(enabled=True,
                                            watchdog_window=0.01))
    queue = _StallQueue()
    runtime.watch_queue(queue)

    def churn():
        while True:
            yield env.timeout(0.004)
            queue.completed += 1

    env.process(churn(), name="churn")
    env.run(until=env.timeout(0.5))  # must not raise
    assert runtime.watchdog.fired == 0
    assert runtime.ok


def test_watchdog_quiet_when_idle():
    env = Environment()
    runtime = AuditRuntime(env, AuditConfig(enabled=True,
                                            watchdog_window=0.01))
    queue = _StallQueue()
    queue.pending = 0
    runtime.watch_queue(queue)
    env.run(until=env.timeout(0.5))
    assert runtime.watchdog.fired == 0


def test_watchdog_stop_ends_the_process():
    env = Environment()
    runtime = AuditRuntime(env, AuditConfig(enabled=True,
                                            watchdog_window=0.01))
    runtime.watch_queue(_StallQueue())
    runtime.stop()
    # With the watchdog stopped the stalled queue never trips it.
    env.run(until=env.timeout(0.1))
    assert runtime.watchdog.fired == 0


# ------------------------------------------------------------ event trace
def test_trace_ring_is_bounded_but_counts_lifetime():
    trace = EventTrace(limit=4)
    for i in range(10):
        trace.emit(float(i), "tick", n=i)
    assert len(trace.records()) == 4
    assert trace.count("tick") == 10
    assert trace.records("tick")[-1]["n"] == 9


def test_trace_jsonl_mirror(tmp_path):
    path = tmp_path / "trace.jsonl"
    trace = EventTrace(str(path), limit=16)
    trace.emit(0.0, "hello", nbytes=1)
    trace.emit(1.0, "world", nbytes=2)
    trace.close()
    lines = path.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["kind"] for r in records] == ["hello", "world"]
    assert records[1]["t"] == 1.0


def test_trace_jsonl_mirror_appends_across_instances(tmp_path):
    """Sequential clusters sharing one trace path must not truncate each
    other's events; the path owner truncates once per invocation."""
    path = tmp_path / "trace.jsonl"
    first = EventTrace(str(path), limit=16)
    first.emit(0.0, "first_run")
    first.close()
    second = EventTrace(str(path), limit=16)
    second.emit(1.0, "second_run")
    second.close()
    kinds = [json.loads(line)["kind"]
             for line in path.read_text().strip().splitlines()]
    assert kinds == ["first_run", "second_run"]


def test_cluster_run_with_trace_path(tmp_path):
    from repro.pfs.cluster import Cluster
    path = tmp_path / "cluster.jsonl"
    cfg = ClusterConfig(num_servers=2,
                        audit=AuditConfig(enabled=True,
                                          trace_path=str(path)))
    cfg = cfg.with_ibridge(ssd_partition=8 * MiB)
    cluster = Cluster(cfg)
    handle = cluster.create_file(2 * MiB)
    client = cluster.client(0)
    done = client.submit(Op.WRITE, handle, 0, 65 * KiB, rank=0)
    cluster.env.run(until=done)
    cluster.drain()
    cluster.shutdown()
    assert cluster.audit.ok
    records = [json.loads(line)
               for line in path.read_text().strip().splitlines()]
    kinds = {r["kind"] for r in records}
    assert "client_write" in kinds
    assert "final_check" in kinds
