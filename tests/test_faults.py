"""Tests for the repro.faults subsystem: plans, injection, recovery.

The three ISSUE-mandated scenarios — SSD fail-stop mid-writeback under
the strict auditor, retry exhaustion raising a typed error, and replay
determinism — plus unit coverage of the wrapper/queue/network/crash
mechanics the injector composes.
"""

import json

import pytest

from repro.config import ClusterConfig, NetworkConfig
from repro.devices import HardDisk, Op
from repro.errors import (DeviceFailedError, FaultError, ReproError,
                          RequestTimeoutError)
from repro.faults import (FaultEvent, FaultKind, FaultPlan, fail_slow,
                          faultable, gc_storm, server_outage, ssd_outage)
from repro.net import Network, NetFault
from repro.pfs import Cluster
from repro.sim import Environment
from repro.units import KiB, MiB, US
from repro.util.rng import rng_stream
from repro.workloads import MpiIoTest, run_workload


def write_workload(nprocs=8, request_size=65 * KiB, file_size=4 * MiB):
    return MpiIoTest(nprocs=nprocs, request_size=request_size,
                     file_size=file_size, op=Op.WRITE)


def ibridge_config(**overrides):
    cfg = ClusterConfig(num_servers=4, **overrides)
    return cfg.with_ibridge(ssd_partition=64 * MiB)


# ---------------------------------------------------------------- plans

def test_plan_round_trips_through_dict_and_json():
    plan = FaultPlan(events=(
        fail_slow(1, 3.0, start=0.5, duration=2.0),
        ssd_outage(0, start=1.0, duration=1.0, policy="drain"),
        FaultEvent(kind=FaultKind.NET_DROP, duration=0.5, drop_prob=0.25),
    ), name="round-trip")
    clone = FaultPlan.from_dict(json.loads(plan.to_json()))
    assert clone == plan
    assert clone.name == "round-trip"
    # Defaults are elided from the serialized form.
    assert "disk" not in plan.events[0].to_dict()


def test_plan_from_file(tmp_path):
    path = tmp_path / "plan.json"
    plan = FaultPlan.single(server_outage(2, start=0.1, duration=0.2),
                            name="file-plan")
    path.write_text(plan.to_json(), encoding="utf-8")
    assert FaultPlan.from_file(str(path)) == plan
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FaultError):
        FaultPlan.from_file(str(bad))


@pytest.mark.parametrize("event", [
    dict(kind="no_such_kind"),
    dict(kind="device_slow", server=0, latency_mult=2.0, mystery_field=1),
    dict(kind="device_slow", server=0),           # both multipliers 1 → no-op
    dict(kind="device_slow", latency_mult=2.0),   # no target server
    dict(kind="device_fail", server=0),           # fail-stop needs an end
    dict(kind="server_crash", server=0, start=-1.0, duration=1.0),
    dict(kind="net_drop", drop_prob=1.5, duration=1.0),
    dict(kind="ssd_fail", server=0, duration=1.0, policy="shrug"),
])
def test_plan_validation_rejects(event):
    with pytest.raises(FaultError):
        FaultEvent.from_dict(event)


def test_injector_rejects_out_of_range_targets():
    cfg = ClusterConfig(num_servers=2)
    plan = FaultPlan.single(fail_slow(5, 2.0))
    with pytest.raises(FaultError):
        Cluster(cfg, fault_plan=plan)


def test_typed_errors_are_repro_errors():
    assert issubclass(RequestTimeoutError, FaultError)
    assert issubclass(FaultError, ReproError)


# ---------------------------------------------------- faultable device

def test_faultable_scales_timing_but_forwards_state():
    hdd = HardDisk()
    wrapper = faultable(hdd)
    assert faultable(wrapper) is wrapper  # idempotent
    base = hdd.estimate_service_time(Op.READ, 10 * MiB, 64 * KiB)
    wrapper.set_slowdown(latency_mult=3.0, bw_mult=2.0)
    pos = hdd.positioning_time(Op.READ, 10 * MiB, 64 * KiB)
    xfer = hdd.transfer_time(Op.READ, 64 * KiB)
    scaled = wrapper.estimate_service_time(Op.READ, 10 * MiB, 64 * KiB)
    assert scaled == pytest.approx(3.0 * pos + 2.0 * xfer)
    assert scaled > base
    # State reads/writes pass through to the wrapped device.
    wrapper.serve(Op.READ, 10 * MiB, 64 * KiB)
    assert hdd._head == 10 * MiB + 64 * KiB
    assert wrapper.stats.reads == hdd.stats.reads == 1
    wrapper.clear_slowdown()
    assert not wrapper.degraded


def test_faultable_fail_stop_is_a_hard_backstop():
    wrapper = faultable(HardDisk())
    wrapper.fail_stop()
    with pytest.raises(DeviceFailedError):
        wrapper.serve(Op.WRITE, 0, 4 * KiB)
    wrapper.recover()
    wrapper.serve(Op.WRITE, 0, 4 * KiB)


def test_paused_queue_holds_requests_until_resume():
    from repro.block import BlockQueue, make_scheduler
    from repro.config import SchedulerConfig
    env = Environment()
    queue = BlockQueue(env, HardDisk(), make_scheduler(SchedulerConfig()))
    queue.pause()
    req = queue.submit(Op.READ, 10 * MiB, 64 * KiB)
    env.run(until=env.timeout(10.0))
    assert not req.done.triggered
    assert queue.idle_duration() == 0.0  # paused is not idle
    queue.resume()
    env.run(until=req.done)
    assert req.complete_time > 10.0


# ------------------------------------------------------------- network

def _flat_net(env):
    return Network(env, NetworkConfig(latency=10 * US, bandwidth=1000 * MiB,
                                      message_overhead=0.0))


def test_net_fault_adds_delay_inside_window_only():
    env = Environment()
    net = _flat_net(env)
    fault = net.add_fault(NetFault(delay=5 * US))
    done = net.send("a", "b", 0)
    env.run(until=done)
    assert env.now == pytest.approx(15 * US)
    net.remove_fault(fault)
    start = env.now
    env.run(until=net.send("a", "b", 0))
    assert env.now - start == pytest.approx(10 * US)
    assert net.stats.fault_delay_time == pytest.approx(5 * US)


def test_net_fault_drop_eats_the_message():
    env = Environment()
    net = _flat_net(env)
    net.add_fault(NetFault(drop_prob=1.0, rng=rng_stream(1, "drop")))
    done = net.send("a", "b", 0)
    env.run()
    assert not done.triggered
    assert net.stats.dropped == 1


@pytest.mark.parametrize("kind,fields", [
    (FaultKind.NET_DELAY, {"delay": 1e-3}),
    (FaultKind.SERVER_CRASH, {"server": 0, "duration": 0.1}),
    (FaultKind.GC_STORM, {"duration": 0.1}),
])
def test_drop_prob_outside_net_drop_is_rejected(kind, fields):
    # A net_delay window with a drop probability used to validate, log
    # its drop_prob, and never drop: only net_drop windows get a drop
    # RNG.
    with pytest.raises(FaultError, match="drop_prob"):
        FaultEvent(kind=kind, drop_prob=0.4, **fields).validate()
    with pytest.raises(FaultError, match="drop_prob"):
        FaultEvent.from_dict({"kind": kind.value, "drop_prob": 0.4,
                              **fields})
    FaultEvent(kind=kind, **fields).validate()


def test_net_fault_with_drop_prob_needs_an_rng():
    env = Environment()
    net = _flat_net(env)
    with pytest.raises(FaultError, match="rng"):
        net.add_fault(NetFault(delay=1e-3, drop_prob=0.4))
    assert net.faults_active == 0
    net.add_fault(NetFault(delay=1e-3))
    net.add_fault(NetFault(drop_prob=0.4, rng=rng_stream(1, "drop")))
    assert net.faults_active == 2


def test_net_fault_endpoints_scope_the_window():
    env = Environment()
    net = _flat_net(env)
    net.add_fault(NetFault(delay=5 * US, endpoints={"b"}))
    hit = net.send("a", "b", 0)
    env.run(until=hit)
    assert env.now == pytest.approx(15 * US)
    start = env.now
    env.run(until=net.send("a", "c", 0))
    assert env.now - start == pytest.approx(10 * US)


# -------------------------------------------- mandated scenario tests

def test_ssd_fail_stop_mid_writeback_survives_strict_audit():
    # Conftest runs every cluster strictly audited: the forfeited-bytes
    # ledger and coherence checks abort the run on any miscount.
    wl = write_workload()
    baseline = run_workload(Cluster(ibridge_config()), write_workload())
    assert baseline.ssd_fraction > 0
    window = ssd_outage(0, start=baseline.makespan * 0.25,
                        duration=baseline.makespan * 0.4)
    cluster = Cluster(ibridge_config(),
                      fault_plan=FaultPlan.single(window, name="mid-wb"))
    res = run_workload(cluster, wl)
    assert res.recovery["ssd_outages"] == 1.0
    assert res.recovery["forfeited_bytes"] >= 0.0
    stats = cluster.ibridge_stats()
    assert stats.ssd_outages == 1
    # The injector logged both transitions and the SSD is back.
    phases = [r.phase for r in cluster.faults.records]
    assert phases == ["begin", "end"]
    assert all(u.ibridge.ssd_available
               for s in cluster.servers for u in s.disks)
    cluster.audit.final_check()


def test_ssd_drain_policy_forfeits_nothing():
    wl = write_workload()
    baseline = run_workload(Cluster(ibridge_config()), write_workload())
    window = ssd_outage(0, start=baseline.makespan * 0.25,
                        duration=baseline.makespan * 0.4, policy="drain")
    cluster = Cluster(ibridge_config(),
                      fault_plan=FaultPlan.single(window, name="drain"))
    res = run_workload(cluster, wl)
    assert res.recovery["ssd_outages"] == 1.0
    assert res.recovery["forfeited_bytes"] == 0.0
    cluster.audit.final_check()


def test_retry_exhaustion_raises_typed_error():
    cfg = ClusterConfig(num_servers=2).with_retry(
        timeout=0.02, max_retries=2, backoff_base=0.001, backoff_cap=0.01)
    plan = FaultPlan.single(
        FaultEvent(kind=FaultKind.NET_DROP, drop_prob=1.0), name="blackout")
    cluster = Cluster(cfg, fault_plan=plan)
    with pytest.raises(RequestTimeoutError) as err:
        run_workload(cluster, write_workload(nprocs=2, file_size=1 * MiB))
    assert "attempts" in str(err.value)
    # 1 original + 2 retries for the failing sub-request, all timed out.
    # Exactly one parent request records the give-up: its failure stops
    # the run before any other in-flight request can exhaust.
    assert sum(c.timeouts for c in cluster._clients.values()) >= 3
    assert sum(c.failures for c in cluster._clients.values()) == 1


def test_retry_rides_out_server_crash():
    cfg = ClusterConfig(num_servers=4).with_retry(
        timeout=0.05, max_retries=8, backoff_base=0.01, backoff_cap=0.05)
    baseline = run_workload(Cluster(cfg), write_workload())
    plan = FaultPlan.single(
        server_outage(1, start=baseline.makespan * 0.2,
                      duration=baseline.makespan * 0.2),
        name="crash")
    cluster = Cluster(cfg, fault_plan=plan)
    res = run_workload(cluster, write_workload())
    assert res.recovery["server_crashes"] == 1.0
    assert res.recovery["retries"] >= 1.0
    assert not cluster.servers[1].crashed
    assert cluster.servers[1].epoch == 1


def test_fail_slow_window_slows_the_run():
    cfg = ClusterConfig(num_servers=4)
    healthy = run_workload(Cluster(cfg), write_workload())
    plan = FaultPlan.single(fail_slow(1, 4.0, bw_mult=3.0), name="aging")
    degraded = run_workload(Cluster(cfg, fault_plan=plan), write_workload())
    assert degraded.makespan > 1.2 * healthy.makespan


def test_gc_storm_fleet_window_slows_ssds_and_reverts():
    cfg = ibridge_config()
    healthy = run_workload(Cluster(cfg), write_workload())
    plan = FaultPlan.single(gc_storm(start=0.0, duration=30.0),
                            name="correlated-storm")
    cluster = Cluster(cfg, fault_plan=plan)
    stormy = run_workload(cluster, write_workload())
    # Every drive stalled (the window is fleet-wide) and the makespan
    # carries the per-command gc_slice charges.
    assert all(s.ssd.gc_stall_time > 0.0 for s in cluster.servers)
    assert stormy.makespan > healthy.makespan
    begin = [r for r in cluster.faults.records if r.phase == "begin"]
    assert begin and begin[0].detail.get("drives") == len(cluster.servers)


def test_gc_storm_single_server_scopes_and_restores():
    cfg = ibridge_config()
    plan = FaultPlan.single(gc_storm(start=0.0, duration=0.05, server=1),
                            name="one-drive-storm")
    cluster = Cluster(cfg, fault_plan=plan)
    run_workload(cluster, write_workload())
    assert all(s.ssd._storm_depth == 0 for s in cluster.servers)
    assert cluster.servers[1].ssd.gc_stall_time > 0.0
    others = [s.ssd.gc_stall_time for s in cluster.servers if s.id != 1]
    assert all(t == 0.0 for t in others)


def test_gc_storm_requires_finite_window():
    with pytest.raises(FaultError):
        FaultPlan.single(FaultEvent(kind=FaultKind.GC_STORM)).validate()


def test_replay_is_deterministic():
    # A stochastic plan (message loss) twice under the same seed: the
    # transition log, the recovery counters, and the clock must match
    # bit-for-bit.
    cfg = ClusterConfig(num_servers=4).with_retry(
        timeout=0.05, max_retries=10, backoff_base=0.01, backoff_cap=0.05)
    plan = FaultPlan.single(
        FaultEvent(kind=FaultKind.NET_DROP, drop_prob=0.3, duration=0.5),
        name="lossy")

    def one_run():
        cluster = Cluster(cfg, fault_plan=plan)
        res = run_workload(cluster, write_workload())
        faults = [r for r in cluster.audit.trace.records()
                  if r["kind"] in ("fault_begin", "fault_end")]
        return (cluster.faults.signature(), res.recovery, res.makespan,
                faults)

    first, second = one_run(), one_run()
    assert first == second
    assert first[1]["net_dropped"] > 0  # the faults actually fired


def test_faults_experiment_is_registered():
    from repro.experiments import EXPERIMENTS
    assert "faults" in EXPERIMENTS
