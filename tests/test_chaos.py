"""Tests for repro.chaos: generator, episode runner, shrinker, corpus.

Also the satellites that landed with the fuzzer: fault-plan overlap
validation and merging, the client retry wall-clock cap, and the
committed reproducer corpus replaying clean.
"""

import copy
import json
import os

import pytest

from repro.config import ClusterConfig
from repro.core.manager import IBridgeManager
from repro.devices import Op
from repro.errors import ChaosError, FaultError, RequestTimeoutError
from repro.faults import FaultEvent, FaultKind, FaultPlan, fail_slow
from repro.pfs import Cluster
from repro.units import KiB, MiB
from repro.workloads import MpiIoTest, run_workload

from repro.chaos import (episode_signature, fuzz, load_corpus,
                         replay_reproducer, run_episode, sample_spec,
                         save_reproducer, shrink_spec)
from repro.chaos.corpus import Reproducer
from repro.chaos.shrink import _ddmin, failure_kinds

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "chaos-corpus")


# ------------------------------------------------------------- generator

def test_sample_spec_is_deterministic_and_json_clean():
    a = sample_spec(3, 7)
    b = sample_spec(3, 7)
    assert a == b
    # Specs are plain JSON: a round trip changes nothing (no numpy
    # scalars, no tuples-vs-lists drift).
    assert json.loads(json.dumps(a)) == a
    assert a != sample_spec(3, 8)
    assert a != sample_spec(4, 7)


def test_sampled_plans_validate_and_retry_outlasts_horizon():
    for index in range(30):
        spec = sample_spec(0, index)
        plan = FaultPlan.from_dict(spec["faults"])
        plan.validate()  # disjoint same-target windows by construction
        retry = spec["retry"]
        # The derived budget must outlast the schedule so exhaustion is
        # a finding, not an under-provisioned tester.
        assert retry["max_retries"] * retry["timeout"] > plan.horizon()
        assert retry["total_timeout"] > plan.horizon()


# ------------------------------------------------ plan overlap / merge

def _window(kind, start, duration, **kw):
    return FaultEvent(kind=kind, start=start, duration=duration, **kw)


def test_plan_rejects_overlapping_same_target_windows():
    plan = FaultPlan(events=(
        _window(FaultKind.DEVICE_FAIL, 0.0, 0.5, server=1),
        _window(FaultKind.DEVICE_SLOW, 0.4, 0.5, server=1, latency_mult=3.0),
    ))
    with pytest.raises(FaultError, match="overlap"):
        plan.validate()


def test_plan_allows_adjacent_and_cross_target_windows():
    # end == start is not an overlap (half-open windows); different
    # servers, different disks, and hdd-vs-ssd are separate exclusion
    # groups; net faults compose freely.
    FaultPlan(events=(
        _window(FaultKind.DEVICE_FAIL, 0.0, 0.5, server=1),
        _window(FaultKind.DEVICE_SLOW, 0.5, 0.5, server=1, latency_mult=3.0),
        _window(FaultKind.DEVICE_FAIL, 0.2, 0.5, server=0),
        _window(FaultKind.DEVICE_SLOW, 0.2, 0.5, server=1, disk=1,
                latency_mult=2.0),
        _window(FaultKind.DEVICE_SLOW, 0.0, 2.0, server=1, device="ssd",
                latency_mult=2.0),
        _window(FaultKind.NET_DROP, 0.0, 2.0, drop_prob=0.5),
        _window(FaultKind.NET_DELAY, 0.0, 2.0, delay=0.001),
    )).validate()


def test_whole_run_window_excludes_everything_after_it():
    # duration=None never reverts, so any later same-target window
    # overlaps it (only fail-slow may run whole-run; fail-stops must
    # end so the run can drain).
    plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.DEVICE_SLOW, server=0, start=0.1,
                   latency_mult=2.0),
        _window(FaultKind.DEVICE_SLOW, 5.0, 0.1, server=0, latency_mult=3.0),
    ))
    with pytest.raises(FaultError, match="overlap"):
        plan.validate()


def test_ssd_fail_and_ssd_device_fault_share_an_exclusion_group():
    plan = FaultPlan(events=(
        _window(FaultKind.SSD_FAIL, 0.0, 0.5, server=0),
        _window(FaultKind.DEVICE_SLOW, 0.3, 0.5, server=0, device="ssd",
                latency_mult=2.0),
    ))
    with pytest.raises(FaultError, match="overlap"):
        plan.validate()


def test_crash_and_device_fail_may_overlap_on_one_server():
    # Distinct exclusion groups — exactly the legal overlap that exposed
    # the pause-clobber bug (chaos-57cfab94f0b9 in the corpus).
    FaultPlan(events=(
        _window(FaultKind.SERVER_CRASH, 0.0, 0.3, server=2),
        _window(FaultKind.DEVICE_FAIL, 0.2, 0.3, server=2),
    )).validate()


def test_plan_merge_combines_and_revalidates():
    a = FaultPlan.single(_window(FaultKind.DEVICE_FAIL, 0.0, 0.5, server=0),
                         name="a")
    b = FaultPlan.single(_window(FaultKind.DEVICE_FAIL, 1.0, 0.5, server=0),
                         name="b")
    merged = FaultPlan.merge(a, b)
    assert len(merged) == 2 and merged.name == "a+b"
    assert FaultPlan.merge(a, b, name="mine").name == "mine"
    assert FaultPlan.merge() == FaultPlan()
    # Cross-plan same-target overlap is rejected just like within one.
    c = FaultPlan.single(_window(FaultKind.DEVICE_SLOW, 0.2, 0.5, server=0,
                                 latency_mult=2.0), name="c")
    with pytest.raises(FaultError, match="overlap"):
        FaultPlan.merge(a, c)
    with pytest.raises(FaultError):
        FaultPlan.merge(a, "not a plan")


def test_plan_horizon():
    assert FaultPlan().horizon() == 0.0
    plan = FaultPlan(events=(
        _window(FaultKind.DEVICE_FAIL, 0.0, 0.5, server=0),
        FaultEvent(kind=FaultKind.NET_DROP, start=2.0, drop_prob=0.3),
    ))
    # The whole-run event contributes its start only (it never ends).
    assert plan.horizon() == 2.0


def test_whole_run_event_round_trips_through_json():
    plan = FaultPlan.single(
        FaultEvent(kind=FaultKind.DEVICE_SLOW, server=1, start=0.25,
                   latency_mult=4.0))
    clone = FaultPlan.from_dict(json.loads(plan.to_json()))
    assert clone == plan
    assert clone.events[0].end is None
    assert "duration" not in clone.events[0].to_dict()  # default elided


def test_injector_rejects_out_of_range_disk():
    cfg = ClusterConfig(num_servers=2)
    plan = FaultPlan.single(fail_slow(0, 2.0, disk=3))
    with pytest.raises(FaultError, match="disk"):
        Cluster(cfg, fault_plan=plan)


# ------------------------------------------------- retry wall-clock cap

def test_retry_total_timeout_caps_the_retry_loop():
    # A permanent blackout with a huge attempt budget: only the
    # wall-clock cap can end the loop.
    cfg = ClusterConfig(num_servers=2).with_retry(
        timeout=0.02, max_retries=500, backoff_base=0.001,
        backoff_cap=0.005, total_timeout=0.2)
    plan = FaultPlan.single(
        FaultEvent(kind=FaultKind.NET_DROP, drop_prob=1.0), name="blackout")
    cluster = Cluster(cfg, fault_plan=plan)
    wl = MpiIoTest(nprocs=2, request_size=64 * KiB, file_size=1 * MiB,
                   op=Op.WRITE)
    with pytest.raises(RequestTimeoutError, match="wall-clock"):
        run_workload(cluster, wl)
    clients = list(cluster._clients.values())
    assert sum(c.wallclock_exhausted for c in clients) >= 1
    assert cluster.env.now < 1.0  # gave up at ~0.2s, not after 500 tries


# --------------------------------------------------------------- episode

def test_episode_is_deterministic():
    spec = sample_spec(0, 2)  # has fault events (the log-extent finding)
    a = run_episode(spec)
    b = run_episode(spec)
    assert a["ok"] and b["ok"]
    assert a["signature"] == b["signature"]
    assert a["signature"] == episode_signature(a)
    assert a["fault_log"] == b["fault_log"]


#: ``python -m repro.chaos --seed 0 --episodes 25`` — the fixed CI
#: campaign.  Any change to sampling, episode bodies or the signature
#: moves it; change it only on purpose.
SEED0_CAMPAIGN_DIGEST = (
    "768006892f26d4f95293fde66051c0ac3ab56c9671cb52e67c95f21243b883fe")


def test_seed0_campaign_digest_is_pinned():
    report = fuzz(seed=0, episodes=25, shrink=False)
    assert len(report.results) == 25 and not report.failures
    assert report.digest == SEED0_CAMPAIGN_DIGEST


def test_episode_rejects_unknown_schema():
    spec = sample_spec(0, 0)
    spec = dict(spec, schema=99)
    with pytest.raises(ChaosError, match="schema"):
        run_episode(spec)


def test_episode_budget_guard_fires():
    spec = copy.deepcopy(sample_spec(0, 0))
    spec["budget"]["sim_time"] = 0.01  # guard trips on its first tick
    result = run_episode(spec)
    assert result["status"] == "budget-exceeded"
    assert "budget-exceeded" in result["failures"]
    assert not result["ok"]


# --------------------------------------------------------------- shrink

def test_ddmin_finds_a_planted_conjunction():
    # Failure requires A and B together among noise: ddmin must reduce
    # to exactly that pair.
    items = ["n0", "A", "n1", "n2", "B", "n3", "n4", "n5"]
    reduced = _ddmin(items, lambda s: "A" in s and "B" in s)
    assert sorted(reduced) == ["A", "B"]
    assert _ddmin(["x"], lambda s: True) == []  # empty probe
    assert _ddmin(["x"], lambda s: "x" in s) == ["x"]


def test_shrink_spec_minimizes_a_synthetic_failure():
    spec = sample_spec(0, 2)
    # Synthetic oracle: fails iff any ssd_fail event is present, plus a
    # decoy failure kind when nprocs is large (must not distract the
    # kind-matched search).
    def run_fn(s):
        kinds = [e["kind"] for e in s["faults"]["events"]]
        failures = []
        if "ssd_fail" in kinds:
            failures.append("restore:ssd-bypass")
        if s["workload"]["nprocs"] > 4:
            failures.append("watchdog")
        return {"ok": not failures, "failures": failures,
                "signature": "synthetic"}

    baseline = run_fn(spec)
    assert not baseline["ok"]
    res = shrink_spec(spec, run_fn, baseline=baseline)
    assert res.events_after == 1
    assert res.reduced["faults"]["events"][0]["kind"] == "ssd_fail"
    assert failure_kinds(res.reduced_failures) & {"restore"}
    assert res.runs <= 150 and res.trail


def test_shrink_spec_requires_a_failing_baseline():
    spec = sample_spec(0, 0)
    with pytest.raises(ChaosError):
        shrink_spec(spec, lambda s: {"ok": True, "failures": []},
                    baseline={"ok": True, "failures": []})


def test_planted_recovery_bug_shrinks_to_a_minimal_reproducer(monkeypatch):
    # Plant a real recovery bug — SSD restore silently dropped — and
    # check the full find->shrink pipeline reduces the scenario to the
    # one fault event that matters.
    monkeypatch.setattr(IBridgeManager, "ssd_restore", lambda self: None)
    spec = None
    for index in range(40):
        cand = sample_spec(1, index)
        kinds = [e["kind"] for e in cand["faults"]["events"]]
        if cand["cluster"]["ibridge"] and "ssd_fail" in kinds \
                and len(kinds) >= 2:
            spec = cand
            break
    assert spec is not None, "no sampled episode with ssd_fail + noise"
    result = run_episode(spec)
    assert not result["ok"]
    assert "restore" in failure_kinds(result["failures"])
    res = shrink_spec(spec, run_episode, baseline=result)
    assert res.events_after <= 2
    kinds = [e["kind"] for e in res.reduced["faults"]["events"]]
    assert "ssd_fail" in kinds
    assert "restore" in failure_kinds(res.reduced_failures)


# ---------------------------------------------------------------- corpus

def test_reproducer_round_trips_through_the_corpus_dir(tmp_path):
    spec = sample_spec(0, 1)
    repro = Reproducer(spec=spec, expect="pass", signature="sig",
                       note="unit test")
    path = save_reproducer(str(tmp_path), repro)
    entries = load_corpus(str(tmp_path))
    assert [p for p, _ in entries] == [path]
    loaded = entries[0][1]
    assert loaded == repro and loaded.name == repro.name
    assert load_corpus(str(tmp_path / "missing")) == []
    with pytest.raises(ChaosError):
        Reproducer.from_dict({"spec": spec, "schema": 0})
    with pytest.raises(ChaosError):
        Reproducer.from_dict({"spec": spec, "schema": 1, "expect": "maybe"})


def test_replay_checks_expectation_and_signature():
    spec = sample_spec(0, 1)

    def passing(s):
        return {"ok": True, "failures": [], "signature": "s1"}

    def failing(s):
        return {"ok": False, "failures": ["watchdog"], "signature": "s2"}

    assert replay_reproducer(
        Reproducer(spec=spec, expect="pass", signature="s1"),
        run_fn=passing)["ok"]
    # Fixed bug still marked expect=fail -> flagged for flipping.
    v = replay_reproducer(Reproducer(spec=spec, expect="fail"),
                          run_fn=passing)
    assert not v["ok"] and "expect=pass" in v["problems"][0]
    # Regression: expect=pass entry failing again.
    v = replay_reproducer(Reproducer(spec=spec, expect="pass"),
                          run_fn=failing)
    assert not v["ok"] and "watchdog" in v["problems"][0]
    # Signature drift is reported even when the expectation holds.
    v = replay_reproducer(Reproducer(spec=spec, expect="pass",
                                     signature="old"), run_fn=passing)
    assert not v["ok"] and "drift" in v["problems"][0]


def test_committed_corpus_replays_clean():
    # The shipped reproducers are regression guards for the three bugs
    # the fuzzer found (fill-during-SSD-outage, pause clobbering on
    # overlapping crash+device_fail, retry storm): all expect=pass,
    # all bit-identical to their recorded signatures.
    entries = load_corpus(CORPUS_DIR)
    assert len(entries) >= 3
    for path, repro in entries:
        assert repro.expect == "pass", path
        verdict = replay_reproducer(repro)
        assert verdict["ok"], (path, verdict["problems"])
