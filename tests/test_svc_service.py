"""HTTP service, submissions, scheduler: the non-store half of repro.svc."""

import json
import threading

import pytest

from repro.experiments.runner import (cell, cell_key, encode_result,
                                      null_context_token)
from repro.obs.metrics import parse_prometheus_text
from repro.svc import (HttpQueue, JobStore, Scheduler, ServiceClient,
                       ServiceError, Worker, make_server, nightly_chaos)
from repro.svc.scheduler import tasks_from_file
from repro.svc.submissions import (campaign_submission, cell_submission,
                                   parse_submission)


def _probe_cell(n, bump=0):
    return {"n": n, "value": n * 10 + bump}


PROBE = f"{__name__}:_probe_cell"


# ------------------------------------------------------------ submissions
def test_cell_submission_key_matches_runner_cache_key():
    kind, spec, key = cell_submission(PROBE, {"n": 3})
    assert kind == "cell"
    assert spec == {"fn": PROBE, "kwargs": {"n": 3}}
    # identical to the key a flag-less CLI run computes for this cell —
    # the contract that lets the fleet and run_cells share one cache
    assert key == cell_key(cell(PROBE, n=3), null_context_token())


def test_cell_submission_rejects_non_json_kwargs():
    with pytest.raises(ValueError, match="JSON-only"):
        cell_submission(PROBE, {"n": {1, 2}})
    with pytest.raises(ValueError, match="pkg.mod:func"):
        cell_submission("not-an-import-path", {})


def test_campaign_submission_requires_seed_and_episodes():
    with pytest.raises(ValueError, match="seed"):
        campaign_submission({"episodes": 5})
    with pytest.raises(ValueError, match="episodes"):
        campaign_submission({"seed": 0})


def test_campaign_key_changes_with_window_salt():
    _, _, key_a = campaign_submission({"seed": 0, "episodes": 5,
                                       "window": 1})
    _, _, key_b = campaign_submission({"seed": 0, "episodes": 5,
                                       "window": 2})
    _, _, key_a2 = campaign_submission({"seed": 0, "episodes": 5,
                                        "window": 1})
    assert key_a != key_b
    assert key_a == key_a2


def test_parse_submission_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown submission kind"):
        parse_submission({"kind": "mystery"})


# ------------------------------------------------------------ HTTP server
@pytest.fixture()
def service(tmp_path):
    store = JobStore(str(tmp_path / "svc.db"))
    httpd = make_server(store, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield store, ServiceClient(base), base
    httpd.shutdown()
    thread.join(timeout=10)


def test_healthz_and_submit_roundtrip(service):
    _store, client, _base = service
    assert client.healthz()["ok"]
    job = client.submit_cell(PROBE, n=1)
    assert job["state"] == "queued" and not job.get("dedup")
    dup = client.submit_cell(PROBE, n=1)
    assert dup["id"] == job["id"] and dup["dedup"]
    assert client.job(job["id"])["id"] == job["id"]
    assert [j["id"] for j in client.jobs(state="queued")] == [job["id"]]


def test_batch_submit_and_bad_requests(service):
    _store, client, _base = service
    jobs = client.submit_cells(
        [{"fn": PROBE, "kwargs": {"n": i}} for i in range(3)])
    assert len(jobs) == 3
    with pytest.raises(ServiceError) as err:
        client.submit_cell("garbage", n=1)
    assert err.value.code == 400
    with pytest.raises(ServiceError) as err:
        client.job(99999)
    assert err.value.code == 404
    with pytest.raises(ServiceError) as err:
        client.result("deadbeef")
    assert err.value.code == 404


def test_worker_api_over_http_and_metrics_scrape(service):
    store, client, base = service
    job = client.submit_cell(PROBE, n=2)
    queue = HttpQueue(base)
    claimed = queue.claim("w-http", lease=30.0)
    assert claimed["id"] == job["id"]
    assert queue.heartbeat("w-http", job["id"], lease=30.0)
    value = _probe_cell(**claimed["spec"]["kwargs"])
    assert queue.complete("w-http", job["id"],
                          encode_result(value), cached=False) == "done"
    assert client.result(job["key"]) == value
    assert queue.claim("w-http", lease=30.0) is None  # 204 -> None

    types, samples = parse_prometheus_text(client.metrics_text())
    assert types["svc_jobs"] == "gauge"
    assert types["svc_claim_latency_seconds"] == "histogram"
    assert samples[("svc_jobs", (("state", "done"),))] == 1
    assert samples[("svc_submissions_total", ())] == 1
    assert samples[("svc_workers_known", ())] == 1
    assert samples[("svc_claim_latency_seconds_count", ())] == 1
    # scrape again: the latency cursor must not double-observe
    _, samples2 = parse_prometheus_text(client.metrics_text())
    assert samples2[("svc_claim_latency_seconds_count", ())] == 1


def test_http_worker_executes_submission(service):
    _store, client, base = service
    jobs = client.submit_cells(
        [{"fn": PROBE, "kwargs": {"n": i, "bump": 1}} for i in range(4)])
    worker = Worker(HttpQueue(base), cache_dir=None, lease=10.0,
                    poll=0.05, max_jobs=4)
    assert worker.run() == 4
    final = client.wait([j["id"] for j in jobs], timeout=30.0)
    assert all(j["state"] == "done" for j in final)
    assert client.result(final[0]["key"]) == {"n": 0, "value": 1}


def test_worker_failures_requeue_then_fail(service):
    _store, client, base = service
    job = client.submit_cell(f"{__name__}:_no_such_fn", max_attempts=2,
                             n=0)
    worker = Worker(HttpQueue(base), lease=10.0, poll=0.05, max_jobs=2)
    assert worker.run() == 2  # two attempts, both raise
    final = client.job(job["id"])
    assert final["state"] == "failed"
    assert final["attempts"] == 2
    assert "AttributeError" in final["error"] \
        or "no attribute" in final["error"]


# -------------------------------------------------------------- scheduler
class Clock:
    def __init__(self, t):
        self.t = t

    def __call__(self):
        return self.t


def test_scheduler_fires_once_per_window(tmp_path):
    clock = Clock(t=0.0)
    store = JobStore(str(tmp_path / "svc.db"), clock=clock)
    sched = Scheduler(store, [nightly_chaos(episodes=5, interval=100.0)],
                      clock=clock)
    assert sched.tick() == 1  # window 0
    assert sched.tick() == 0  # same window: no double-fire
    clock.t = 150.0
    assert sched.tick() == 1  # window 1
    jobs = store.jobs()
    assert len(jobs) == 2
    # per-window seeds: night k fuzzes seed base+k
    seeds = sorted(j["spec"]["seed"] for j in jobs)
    assert seeds == [0, 1]


def test_scheduler_catches_up_once_after_downtime(tmp_path):
    clock = Clock(t=50.0)
    store = JobStore(str(tmp_path / "svc.db"), clock=clock)
    task = nightly_chaos(episodes=5, interval=100.0)
    Scheduler(store, [task], clock=clock).tick()
    assert store.counts()["queued"] == 1
    # service down across windows 1..4; a fresh scheduler (restart)
    # reads the persisted watermark and submits exactly one catch-up
    clock.t = 450.0
    fresh = Scheduler(store, [task], clock=clock)
    assert fresh.tick() == 1
    assert fresh.tick() == 0
    assert store.counts()["queued"] == 2  # not 5


def test_scheduler_resubmit_dedups_within_window(tmp_path):
    """Crash between submit and watermark write: dedup absorbs it."""
    clock = Clock(t=10.0)
    store = JobStore(str(tmp_path / "svc.db"), clock=clock)
    task = nightly_chaos(episodes=5, interval=100.0)
    sched = Scheduler(store, [task], clock=clock)
    sched.tick()
    # simulate the crash: wipe the watermark, keep the job
    store.schedule_mark_run(task.name, None)
    assert sched.tick() == 1  # re-fires...
    assert store.counts()["queued"] == 1  # ...into the same job


def test_scheduler_cell_task_and_schedule_file(tmp_path):
    clock = Clock(t=5.0)
    store = JobStore(str(tmp_path / "svc.db"), clock=clock)
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps([
        {"name": "probe", "interval": 10.0,
         "submission": {"kind": "cell", "fn": PROBE,
                        "kwargs": {"n": 1}}},
        {"name": "fuzz", "interval": 10.0,
         "submission": {"kind": "campaign",
                        "spec": {"seed": "$WINDOW", "episodes": 3}}},
    ]), encoding="utf-8")
    tasks = tasks_from_file(str(schedule))
    assert [t.name for t in tasks] == ["probe", "fuzz"]
    sched = Scheduler(store, tasks, clock=clock)
    assert sched.tick() == 2
    clock.t = 15.0
    assert sched.tick() == 2
    campaigns = [j for j in store.jobs() if j["kind"] == "campaign"]
    assert sorted(j["spec"]["seed"] for j in campaigns) == [0, 1]
    assert all(j["spec"]["window"] in (0, 1) for j in campaigns)
    # the cell task dedups across windows (same key both times)
    cells = [j for j in store.jobs() if j["kind"] == "cell"]
    assert len(cells) == 1
