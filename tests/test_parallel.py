"""Tests for the partitioned-horizon parallel engine (repro.sim.parallel).

The contract under test, in order of importance:

* ``shards=1`` is **bit-identical** to the serial engine — same digest
  over every behavior-visible field of the result.
* Sharded runs are **deterministic**: a fixed ``(seed, shards)`` pair
  reproduces the same digest run over run, and the same digest as the
  pinned literals recorded for the reference cell.
* Sharding never loses work: every shard count completes the serial
  run's requests and moves the same bytes, and the cross-shard
  conservation ledger agrees (``xshard_conserved``).
* Fault plans compose with sharding: partitioned injectors replay the
  serial transition log (modulo shard tags), recovery telemetry merges
  at the coordinator, and client retry works across the mailbox.
* Features the protocol cannot support (barriers, collectives) fail
  loudly, not wrongly.
* The experiment-matrix cache treats the shard count as context: a
  result computed at one shard count is never replayed at another.
"""

import warnings

import pytest

from repro.config import ClusterConfig
from repro.devices.base import Op
from repro.errors import ConfigError, WorkloadError
from repro.experiments import common as exp_common
from repro.experiments.common import measure, warn_if_oversubscribed
from repro.faults import FaultPlan, fail_slow
from repro.pfs.cluster import Cluster
from repro.sim.parallel import (analyze_shard_profile, format_shard_profile,
                                run_digest, run_sharded_workload)
from repro.units import KiB, MiB
from repro.workloads.base import run_workload
from repro.workloads.mpi_io_test import MpiIoTest


def _cfg(**overrides) -> ClusterConfig:
    return ClusterConfig(num_servers=4, client_jitter=0.0, **overrides)


def _workload(op: Op = Op.READ) -> MpiIoTest:
    # 4 ranks on 4 client nodes: a 2-shard split owns 2 nodes each.
    return MpiIoTest(nprocs=4, request_size=65 * KiB, file_size=2 * MiB,
                     op=op)


# ------------------------------------------------------- bit-identity
def test_shards1_is_bit_identical_to_serial():
    serial = run_workload(Cluster(_cfg()), _workload())
    sharded = run_sharded_workload(_cfg(shards=1), _workload())
    assert run_digest(sharded) == run_digest(serial)


def test_sharded_runs_are_deterministic():
    cfg = _cfg(shards=2)
    first = run_sharded_workload(cfg, _workload())
    second = run_sharded_workload(cfg, _workload())
    assert run_digest(first) == run_digest(second)
    assert first.extra["shards"] == 2.0
    assert first.extra["shard_windows"] > 0


def test_inline_sharded_run_leaves_serial_engine_bit_identical():
    # The coordinator swaps the module-global request-id counter per
    # shard call; a serial run after a sharded one must not notice.
    before = run_workload(Cluster(_cfg()), _workload())
    run_sharded_workload(_cfg(shards=2), _workload())
    after = run_workload(Cluster(_cfg()), _workload())
    assert run_digest(after) == run_digest(before)


# Literal digests of the reference cell.  A changed window schedule,
# partition or merge shows up here, which run-twice determinism cannot
# catch; update them only for an intended change to sharded behavior.
_PINNED_DIGESTS = {
    (2, False, 0):
        "3d65053debd836155480da9e85b7eadd3522927bb5f1ef7cb55e3551b56414a8",
    (2, False, 1):
        "101ec523b3954fc79a7b58692d215603b8b7cbffbcdb8cda7921576d3e7e3cb4",
    (2, True, 0):
        "a89cf026567c34dabd1925c7632096786bf56f5e5f5bea6f617c04b22add3d38",
    (2, True, 1):
        "455e46f575ccba003cfd25fc530adbe2d751ff16c9aeeef3f38e423024131847",
    (4, False, 0):
        "8b9f9fb1786ba49704581235183378e518080ad7e0d0f32f2f78cd415dcc88dd",
    (4, False, 1):
        "212e4717b49dfd6f8237c63d42630cecf3568caf4bc44280db75acc62d36ffbb",
    (4, True, 0):
        "33518083f32cc42eec3ac65047a2bc31035b0e6d97729874dd08a2645507e194",
    (4, True, 1):
        "a3725eb36e066a22a858184d8187a414a9f6052a9390bf543cf6ff05b0db437a",
}


@pytest.mark.parametrize("shards,faulted,warm_runs", sorted(_PINNED_DIGESTS))
def test_sharded_digests_are_pinned(shards, faulted, warm_runs):
    result = run_sharded_workload(
        _cfg(shards=shards), _workload(), warm_runs=warm_runs,
        fault_plan=_fault_plan() if faulted else None)
    assert run_digest(result) == _PINNED_DIGESTS[shards, faulted, warm_runs]


# ------------------------------------------------------- conservation
@pytest.mark.parametrize("op", [Op.READ, Op.WRITE])
def test_sharded_run_completes_the_serial_requests(op):
    serial = run_workload(Cluster(_cfg()), _workload(op))
    sharded = run_sharded_workload(_cfg(shards=2), _workload(op))
    assert len(sharded.requests) == len(serial.requests)
    assert (sum(r.nbytes for r in sharded.requests)
            == sum(r.nbytes for r in serial.requests))
    # Same request population, keyed by identity (ids are per-shard).
    def key(r):
        return (r.rank, r.offset, r.nbytes, r.op)
    assert sorted(map(key, sharded.requests)) == \
        sorted(map(key, serial.requests))
    assert all(r.complete_time is not None for r in sharded.requests)
    assert sharded.extra["xshard_conserved"] == 1.0


def test_sharded_strict_audit_passes():
    cfg = _cfg(shards=2).with_audit()
    result = run_sharded_workload(cfg, _workload(Op.WRITE))
    assert result.audit_verdict["ok"]
    # ``checks`` lists only checks that *violated* (serial semantics);
    # a clean run records conservation in extra instead.
    assert "xshard-conservation" not in result.audit_verdict["checks"]
    assert result.extra["xshard_conserved"] == 1.0


def test_sharded_ibridge_with_warm_pass_runs_clean():
    cfg = _cfg(shards=2).with_ibridge(ssd_partition=8 * MiB).with_audit()
    first = run_sharded_workload(cfg, _workload(), warm_runs=1)
    second = run_sharded_workload(cfg, _workload(), warm_runs=1)
    assert first.audit_verdict["ok"]
    assert run_digest(first) == run_digest(second)
    assert 0.0 <= first.ssd_fraction <= 1.0


# ---------------------------------------------------- barrier profiler
def test_barrier_profile_accounts_window_wall_time_exactly():
    result = run_sharded_workload(_cfg(shards=2), _workload())
    profile = result.extra["shard_profile"]
    assert profile["nshards"] == 2
    assert profile["lookahead"] > 0
    windows = profile["windows"]
    assert len(windows) == int(result.extra["shard_windows"])
    for w in windows:
        assert w["width"] > 0
        for field in ("busy_ns", "idle_ns", "wait_ns", "events",
                      "sent", "recv"):
            assert len(w[field]) == 2
        # The accounting identity: every shard's busy + idle + wait
        # equals the window's wall time *exactly* (integer ns, no
        # float rounding), and the gating shard is the one that
        # waited zero.
        for k in range(2):
            assert (w["busy_ns"][k] + w["idle_ns"][k] + w["wait_ns"][k]
                    == w["wall_ns"])
        assert w["wait_ns"][w["gating"]] == 0


def test_barrier_profile_analysis_names_bottleneck():
    result = run_sharded_workload(_cfg(shards=2), _workload())
    profile = result.extra["shard_profile"]
    a = analyze_shard_profile(profile)
    assert a["nshards"] == 2 and a["windows"] == len(profile["windows"])
    # Totals are the column sums of the window records.
    for field in ("busy_ns", "idle_ns", "wait_ns", "events"):
        for k in range(2):
            assert a[field][k] == sum(w[field][k]
                                      for w in profile["windows"])
    assert sum(a["gated_windows"]) == a["windows"]
    assert a["bottleneck"] in (0, 1)
    assert 0.0 < a["efficiency"] <= 1.0
    table = format_shard_profile(profile)
    assert "parallel efficiency" in table
    assert f"bottleneck: shard {a['bottleneck']}" in table


def test_projected_speedup_of_a_hand_built_profile():
    def window(busy, idle, width):
        work = [b + i for b, i in zip(busy, idle)]
        wall = max(work)
        return {"t_end": 0.0, "width": width, "wall_ns": wall,
                "gating": work.index(wall), "busy_ns": busy,
                "idle_ns": idle, "wait_ns": [wall - w for w in work],
                "events": [1, 1], "sent": [0, 0], "recv": [0, 0]}

    profile = {"nshards": 2, "lookahead": 1e-4, "windows": [
        window([300, 100], [10, 20], 1e-4),
        window([50, 250], [5, 5], 2e-4),
    ]}
    a = analyze_shard_profile(profile)
    # (300 + 100 + 50 + 250) busy over (300 + 250) critical busy.
    assert a["projected_speedup"] == 700 / 550
    assert "projected speedup 1.27x" in format_shard_profile(profile)


def test_barrier_profile_is_excluded_from_run_digest():
    # The profile is host wall-clock telemetry: two identical simulated
    # runs profile differently, so the digest must not see it.
    result = run_sharded_workload(_cfg(shards=2), _workload())
    with_profile = run_digest(result)
    del result.extra["shard_profile"]
    assert run_digest(result) == with_profile


# ---------------------------------------------------- faults under shards
def _fault_plan() -> FaultPlan:
    # Targeted-only events (no broadcast kinds) with fixed windows, so
    # the merged transition log is comparable across shard counts.
    return FaultPlan(name="t", events=(
        fail_slow(0, 2.0, start=0.001, duration=0.01),
        fail_slow(3, 3.0, start=0.002, duration=0.01),
    ))


def test_faulted_shards1_is_bit_identical_to_serial():
    serial = run_workload(Cluster(_cfg(), fault_plan=_fault_plan()),
                          _workload())
    sharded = run_sharded_workload(_cfg(shards=1), _workload(),
                                   fault_plan=_fault_plan())
    assert run_digest(sharded) == run_digest(serial)


def test_faulted_sharded_run_is_deterministic_and_audited():
    cfg = _cfg(shards=2).with_audit()
    first = run_sharded_workload(cfg, _workload(),
                                 fault_plan=_fault_plan())
    second = run_sharded_workload(cfg, _workload(),
                                  fault_plan=_fault_plan())
    assert run_digest(first) == run_digest(second)
    assert first.audit_verdict["ok"]
    assert first.recovery["timeouts"] == 0.0
    assert all(r.complete_time is not None for r in first.requests)


def test_injector_records_match_across_shard_counts():
    serial = run_workload(Cluster(_cfg(), fault_plan=_fault_plan()),
                          _workload())
    sharded = run_sharded_workload(_cfg(shards=2), _workload(),
                                   fault_plan=_fault_plan())

    def strip(events):
        return [{k: v for k, v in e.items() if k != "shard"}
                for e in events]

    assert strip(sharded.fault_events) == serial.fault_events
    # Every targeted event was driven by the shard owning its server.
    for e in sharded.fault_events:
        assert e["shard"] == e["event"]["server"] % 2


def test_crash_recovery_and_retry_across_the_mailbox():
    from repro.faults import server_outage
    plan = FaultPlan(name="crash", events=(
        server_outage(1, start=0.002, duration=0.01),))
    cfg = _cfg(shards=2).with_retry(timeout=0.005, max_retries=20)
    first = run_sharded_workload(cfg, _workload(), fault_plan=plan)
    second = run_sharded_workload(cfg, _workload(), fault_plan=plan)
    assert run_digest(first) == run_digest(second)
    assert first.recovery["server_crashes"] == 1.0
    assert first.recovery["timeouts"] > 0
    assert first.recovery["retries"] > 0
    assert all(r.complete_time is not None for r in first.requests)


def test_net_fault_window_is_broadcast_and_deterministic():
    from repro.faults.plan import FaultEvent, FaultKind
    plan = FaultPlan(name="net", events=(
        FaultEvent(kind=FaultKind.NET_DROP, server=1, start=0.0,
                   duration=0.01, drop_prob=0.3),))
    cfg = _cfg(shards=2).with_retry(timeout=0.005, max_retries=20)
    first = run_sharded_workload(cfg, _workload(), fault_plan=plan)
    second = run_sharded_workload(cfg, _workload(), fault_plan=plan)
    assert run_digest(first) == run_digest(second)
    # Broadcast kind: both shards installed the window on their fabric
    # view, so the merged log carries one begin/end pair per shard.
    begins = [e for e in first.fault_events if e["phase"] == "begin"]
    assert sorted(e["shard"] for e in begins) == [0, 1]
    assert all(r.complete_time is not None for r in first.requests)


def test_measure_threads_fault_plans_to_the_sharded_engine():
    result, cluster = measure(_cfg(shards=2), _workload(),
                              fault_plan=_fault_plan())
    assert cluster is None
    assert result.extra["shards"] == 2.0
    assert len(result.fault_events) == 4
    assert result.recovery["timeouts"] == 0.0


# ------------------------------------------------ unsupported features
def test_barrier_workloads_are_rejected_with_shards():
    workload = MpiIoTest(nprocs=4, request_size=65 * KiB,
                         file_size=1 * MiB, use_barrier=True)
    with pytest.raises(WorkloadError):
        run_sharded_workload(_cfg(shards=2), workload)


def test_collective_workloads_are_rejected_with_shards():
    workload = MpiIoTest(nprocs=4, request_size=65 * KiB,
                         file_size=1 * MiB, collective=True)
    with pytest.raises(WorkloadError):
        run_sharded_workload(_cfg(shards=2), workload)


# ------------------------------------------------------- configuration
def test_shard_config_validation():
    with pytest.raises(ConfigError):
        _cfg(shards=0).validate()
    with pytest.raises(ConfigError):
        _cfg(shards=2, shard_lookahead=0.0).validate()
    cfg = _cfg().with_shards(4)
    assert cfg.shards == 4


def test_measure_serial_fallback_when_cluster_needed():
    # Callers that inspect the finished cluster get the serial engine
    # (plus a one-time warning), never a silently missing cluster.
    exp_common._serial_fallback_warned = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result, cluster = measure(_cfg(shards=2), _workload(),
                                  need_cluster=True)
    assert cluster is not None
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    serial = run_workload(Cluster(_cfg()), _workload())
    assert run_digest(result) == run_digest(serial)


def test_oversubscription_warns_once(monkeypatch):
    monkeypatch.setattr(exp_common, "_oversubscribed_warned", False)
    import os
    cpus = os.cpu_count() or 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert warn_if_oversubscribed(jobs=cpus + 1) is True
        assert warn_if_oversubscribed(jobs=cpus + 1) is False
    assert len(caught) == 1
    monkeypatch.setattr(exp_common, "_oversubscribed_warned", False)
    # Shards run in the calling process: only pool workers count.
    assert warn_if_oversubscribed(jobs=cpus) is False


def test_cache_key_includes_shard_context(tmp_path):
    from repro.experiments.runner import cell, run_cells
    cells = [cell("tests.test_runner:_probe_cell", a=11)]
    run_cells(cells, jobs=1, cache=True, cache_dir=str(tmp_path))
    exp_common.set_default_shards(2)
    try:
        second = run_cells(cells, jobs=1, cache=True,
                           cache_dir=str(tmp_path))
        assert second.executed == 1 and second.cached == 0
        third = run_cells(cells, jobs=1, cache=True,
                          cache_dir=str(tmp_path))
        assert third.executed == 0 and third.cached == 1
    finally:
        exp_common.set_default_shards(1)
    fourth = run_cells(cells, jobs=1, cache=True, cache_dir=str(tmp_path))
    assert fourth.executed == 0 and fourth.cached == 1
