"""Continuous telemetry: the sim-time series recorder and run reports.

Covers the `repro.obs.timeline` recorder (sampling, rate differencing,
ring-buffer retention, marks), the JSONL/CSV exports and their
validator (`repro.obs.validate --timeline`), the Perfetto counter-track
round trip, the summary/sparkline helpers, the run-report CLI
(`python -m repro.obs.report`), the end-to-end wiring through a real
cluster run, and the fact that sampling never changes a simulated
result.
"""

import json
import math

import pytest

from repro.config import ClusterConfig
from repro.devices.base import Op
from repro.experiments.common import base_config
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import (CUMULATIVE_SERIES, KNOWN_SERIES,
                                TimelineRecorder, load_timeline_jsonl,
                                series_key, sparkline, summarize_series)
from repro.obs.validate import validate_timeline_rows
from repro.pfs.cluster import Cluster
from repro.results import run_digest
from repro.units import KiB, MiB
from repro.workloads.base import run_workload
from repro.workloads.mpi_io_test import MpiIoTest


def _registry():
    reg = MetricsRegistry()
    box = {"depth": 0.0}
    reg.gauge("queue_depth", lambda: box["depth"], server=0, dev="hdd0")
    counter = reg.counter("ibridge_admissions", server=0)
    return reg, box, counter


# ------------------------------------------------------------- recorder
def test_sampling_records_gauges_and_defers_rates():
    reg, box, counter = _registry()
    rec = TimelineRecorder(reg, dt=0.5)
    box["depth"] = 3.0
    counter.inc(10)
    rec.sample(0.0)
    # First tick: the gauge row only — no previous sample to rate over.
    assert [r["series"] for r in rec.rows] == ["queue_depth"]
    assert rec.rows[0]["value"] == 3.0
    box["depth"] = 7.0
    counter.inc(5)
    rec.sample(0.5)
    series = [r["series"] for r in rec.rows]
    assert series == ["queue_depth", "queue_depth",
                      "ibridge_admissions_rate"]
    rate = rec.rows[-1]
    assert rate["value"] == pytest.approx(5 / 0.5)
    assert rate["labels"] == {"server": 0}


def test_cumulative_gauges_are_differenced():
    reg = MetricsRegistry()
    box = {"stall": 0.0}
    name = "ssd_gc_stall_seconds"
    assert name in CUMULATIVE_SERIES
    reg.gauge(name, lambda: box["stall"], dev="ssd0")
    rec = TimelineRecorder(reg, dt=1.0)
    rec.sample(0.0)
    assert not rec.rows  # cumulative: no raw row, no first-tick rate
    box["stall"] = 2.5
    rec.sample(1.0)
    (row,) = rec.rows
    assert row["series"] == f"{name}_rate"
    assert row["value"] == pytest.approx(2.5)


def test_ring_buffer_bounds_retention_and_counts_evictions():
    reg, box, _ = _registry()
    rec = TimelineRecorder(reg, dt=1.0, limit=4)
    for i in range(10):
        box["depth"] = float(i)
        rec.sample(float(i))
    assert len(rec.rows) == 4
    # 10 gauge rows + 9 counter-rate rows (no rate on the first tick),
    # 4 retained: 15 evicted.
    assert rec.evicted == 15
    # Oldest evicted: the survivors are the most recent samples.
    assert [r["t"] for r in rec.rows] == [8.0, 8.0, 9.0, 9.0]
    rec.clear()
    assert not rec.rows and rec.evicted == 0 and rec.ticks == 0


def test_evictions_counted_when_a_rate_row_fills_the_ring_regression():
    # A rate row that fills the ring used to leave the next plain row's
    # eviction uncounted: this order read 12 evictions instead of 13.
    reg = MetricsRegistry()
    reg.gauge("queue_depth", lambda: 1.0, dev="hdd0")
    reg.gauge("ibridge_redirected_writes", lambda: 0.0, disk=0)
    reg.gauge("queue_depth", lambda: 2.0, dev="ssd")
    rec = TimelineRecorder(reg, dt=1.0, limit=4)
    for i in range(6):
        rec.sample(float(i))
    # 6 ticks x 2 plain rows + 5 rate rows = 17 appended, 4 kept.
    assert len(rec.rows) == 4
    assert rec.evicted == 13


def test_evicted_marks_are_counted_regression(tmp_path):
    # Marks share the ring bound; they used to be evicted uncounted, so
    # three marks at limit 2 left ``evicted == 0`` and the header said so.
    rec = TimelineRecorder(MetricsRegistry(), dt=1.0, limit=2)
    for i in range(3):
        rec.mark("fault_begin", float(i), dev="hdd0")
    assert [m["t"] for m in rec.marks] == [1.0, 2.0]
    assert rec.evicted == 1
    path = tmp_path / "timeline.jsonl"
    rec.export_jsonl(str(path))
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    assert header["type"] == "timeline_begin" and header["evicted"] == 1


def test_marks_merge_time_ordered():
    reg, _, _ = _registry()
    rec = TimelineRecorder(reg, dt=1.0)
    rec.sample(0.0)
    rec.mark("gc_storm_begin", 0.25, dev="ssd0")
    rec.sample(1.0)
    rec.mark("gc_storm_end", 0.75, dev="ssd0")
    merged = rec.merged_rows()
    assert [r["t"] for r in merged] == sorted(r["t"] for r in merged)
    kinds = [(r.get("type"), r["t"]) for r in merged
             if r.get("type") == "mark"]
    assert kinds == [("mark", 0.25), ("mark", 0.75)]

def test_invalid_dt_rejected():
    with pytest.raises(ValueError):
        TimelineRecorder(MetricsRegistry(), dt=0.0)


# ------------------------------------------------------------- exports
def _recorded(tmp_path, ticks=4):
    reg, box, counter = _registry()
    rec = TimelineRecorder(reg, dt=0.5)
    for i in range(ticks):
        box["depth"] = float(i % 3)
        counter.inc(i)
        rec.sample(i * 0.5)
    rec.mark("fault_begin", 0.6, kind="fail_slow")
    rec.mark("fault_end", 1.1, kind="fail_slow")
    return rec


def test_jsonl_export_round_trips_and_validates(tmp_path):
    rec = _recorded(tmp_path)
    path = tmp_path / "timeline.jsonl"
    n = rec.export_jsonl(str(path))
    rows = load_timeline_jsonl(str(path))
    assert rows[0]["type"] == "timeline_begin"
    assert rows[0]["dt"] == 0.5 and rows[0]["rows"] == n
    assert len(rows) == n + 1
    assert validate_timeline_rows(rows) == []


def test_jsonl_export_ends_with_the_registry_histograms(tmp_path):
    rec = _recorded(tmp_path)
    hist = rec.registry.histogram("ibridge_benefit", (0.0, 0.01), server=0)
    for value in (-0.5, 0.005, 0.2):
        hist.observe(value)
    path = tmp_path / "timeline.jsonl"
    n = rec.export_jsonl(str(path))
    rows = load_timeline_jsonl(str(path))
    assert rows[0]["rows"] == n == len(rec.merged_rows()) + 1
    assert rows[1:-1] == rec.merged_rows()
    assert rows[-1] == hist.to_row()
    assert rows[-1]["count"] == 3
    assert validate_timeline_rows(rows) == []


def test_multi_segment_append_restarts_the_clock(tmp_path):
    # Two clusters appending to one file: the second segment's sim
    # clock restarts at zero, which is legal *across* a segment header
    # and illegal within one.
    path = tmp_path / "timeline.jsonl"
    _recorded(tmp_path).export_jsonl(str(path))
    _recorded(tmp_path).export_jsonl(str(path))
    rows = load_timeline_jsonl(str(path))
    assert sum(r.get("type") == "timeline_begin" for r in rows) == 2
    assert validate_timeline_rows(rows) == []
    # Strip the second header: the restart now happens mid-segment.
    broken = [r for i, r in enumerate(rows)
              if i == 0 or r.get("type") != "timeline_begin"]
    problems = validate_timeline_rows(broken)
    assert any("backwards" in p for p in problems)


def test_timeline_validator_flags_bad_rows():
    header = {"type": "timeline_begin", "dt": 0.5, "rows": 2}
    good = {"t": 0.0, "series": "queue_depth", "labels": {}, "value": 1.0}
    assert validate_timeline_rows([good]) \
        == ["row 0: missing timeline_begin segment header"]
    problems = validate_timeline_rows([
        header,
        {"t": 0.0, "series": "not_a_series", "labels": {}, "value": 1.0},
        {"t": 0.5, "series": "queue_depth", "labels": {},
         "value": float("nan")},
        {"t": 0.5, "type": "mark", "name": "not_a_mark", "attrs": {}},
        {"type": "timeline_begin", "dt": 0.0, "rows": 0},
    ])
    assert len(problems) == 4
    assert any("unknown series" in p for p in problems)
    assert any("bad value" in p for p in problems)
    assert any("unknown mark" in p for p in problems)
    assert any("bad dt" in p for p in problems)


def test_timeline_validator_checks_histograms_and_retired_names():
    header = {"type": "timeline_begin", "dt": 0.5, "rows": 3}
    good = [
        header,
        {"t": 0.0, "series": "queue_depth", "labels": {}, "value": 1.0},
        {"t": 0.5, "series": "queue_depth", "labels": {}, "value": 2.0},
        {"type": "histogram", "name": "ibridge_benefit",
         "count": 3, "sum": 0.5},
    ]
    assert validate_timeline_rows(good) == []
    problems = validate_timeline_rows([
        header,
        {"t": 0.0, "series": "queue_depth", "labels": {}, "value": 1.0},
        {"t": 2.0, "series": "mystery_metric", "labels": {}, "value": 1.0},
        # a family of the deleted experiment service: nothing emits it.
        {"t": 2.0, "series": "svc_jobs", "labels": {}, "value": 1.0},
        {"t": 2.5, "series": "queue_depth", "labels": {},
         "value": float("nan")},
        {"type": "histogram", "name": "ibridge_benefit",
         "count": 3, "sum": float("nan")},
        {"type": "histogram", "name": "svc_latency", "count": 1, "sum": 1.0},
    ])
    assert "row 2: unknown series 'mystery_metric'" in problems
    assert "row 3: unknown series 'svc_jobs'" in problems
    assert "row 4: bad value nan" in problems
    assert "row 5: histogram with bad count/sum" in problems
    assert "row 6: unknown histogram 'svc_latency'" in problems
    assert len(problems) == 5


def test_cli_timeline_out_with_csv_suffix_feeds_the_report_regression(
        tmp_path, capsys):
    # The timeline export is JSONL whatever the path's suffix, so the
    # report (which reads JSONL) renders it instead of failing to parse
    # a second format after the whole experiment ran.
    from repro.experiments.cli import main
    timeline, report = tmp_path / "t.csv", tmp_path / "r.md"
    assert main(["fig5", "--scale", "0.001", "--no-cache",
                 "--timeline-out", str(timeline),
                 "--report", str(report)]) == 0
    assert "## Timeline" in report.read_text(encoding="utf-8")
    rows = load_timeline_jsonl(str(timeline))
    assert rows and validate_timeline_rows(rows) == []


def test_chrome_counter_tracks_round_trip(tmp_path):
    rec = _recorded(tmp_path)
    path = tmp_path / "trace.chrome.json"
    write_chrome_trace(str(path), spans=[], counters=rec.merged_rows())
    assert validate_chrome_trace(str(path)) == []
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    tracks = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
    sample_rows = [r for r in rec.merged_rows() if "series" in r]
    assert len(tracks) == len(sample_rows)
    for ev, row in zip(tracks, sample_rows):
        assert ev["name"] == series_key(row["series"], row["labels"])
        assert ev["ts"] == pytest.approx(row["t"] * 1e6)
        assert ev["args"]["value"] == pytest.approx(row["value"])


# ------------------------------------------------------------- summaries
def test_summarize_series_stats():
    rows = [{"t": float(i), "series": "queue_depth",
             "labels": {"server": 1}, "value": float(v)}
            for i, v in enumerate([1, 5, 3, 2])]
    summary = summarize_series(rows)
    stats = summary["queue_depth{server=1}"]
    assert stats["min"] == 1.0 and stats["max"] == 5.0
    assert stats["mean"] == pytest.approx(11 / 4)
    assert stats["last"] == 2.0 and stats["n"] == 4.0


def test_series_key_is_label_sorted():
    assert series_key("queue_depth", {}) == "queue_depth"
    assert series_key("queue_depth", {"server": 1, "dev": "hdd0"}) \
        == "queue_depth{dev=hdd0,server=1}"


def test_sparkline_shape():
    assert sparkline([]) == ""
    assert set(sparkline([2.0] * 5)) == {"▁"}
    line = sparkline([0, 1, 2, 3], width=4)
    assert line[0] == "▁" and line[-1] == "█"
    assert len(sparkline(list(range(1000)), width=32)) == 32


# ----------------------------------------------------------- run report
def test_report_cli_renders_timeline_and_marks(tmp_path, capsys):
    from repro.obs import report

    rec = _recorded(tmp_path)
    hist = rec.registry.histogram("ibridge_benefit", (0.0,), server=0)
    hist.observe(0.25)
    hist.observe(0.5)
    path = tmp_path / "timeline.jsonl"
    rec.export_jsonl(str(path))
    assert report.main(["--timeline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "queue_depth" in out and "fault_begin" in out
    assert "histogram ibridge_benefit{server=0}: n=2, sum=0.75" in out

    md = tmp_path / "report.md"
    assert report.main(["--timeline", str(path), "--format", "markdown",
                        "--out", str(md)]) == 0
    text = md.read_text(encoding="utf-8")
    assert text.startswith("#") and "```" in text


def test_report_cli_requires_an_input():
    from repro.obs import report
    with pytest.raises(SystemExit) as exc:
        report.main([])
    assert exc.value.code == 2


# ------------------------------------------------------------ end to end
def _traced_run(tmp_path, **obs_kwargs):
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0) \
        .with_obs(timeline_dt=0.05, **obs_kwargs)
    cluster = Cluster(cfg)
    result = run_workload(cluster, MpiIoTest(
        nprocs=4, request_size=65 * KiB, file_size=1 * MiB))
    return cluster, result


def test_cluster_run_records_timeline_and_flat_extras(tmp_path):
    cluster, result = _traced_run(tmp_path)
    timeline = cluster.obs.timeline
    assert timeline is not None and timeline.ticks > 1
    assert result.extra["timeline_rows"] == float(len(timeline.rows))
    last = {k: v for k, v in result.extra.items()
            if k.startswith("timeline_last[")}
    assert last, "no flat timeline_last extras on the result"
    assert all(isinstance(v, float) and not math.isnan(v)
               for v in last.values())
    # Every sampled series is a known name (the validator's whitelist
    # and the wiring can never drift apart unnoticed).
    assert {r["series"] for r in timeline.rows} <= KNOWN_SERIES
    summary = summarize_series(timeline.rows)
    assert last == {f"timeline_last[{k}]": stats["last"]
                    for k, stats in summary.items()}


def test_finish_run_exports_validating_timeline(tmp_path):
    path = tmp_path / "timeline.jsonl"
    cluster, _ = _traced_run(tmp_path, timeline_path=str(path))
    cluster.obs.finish_run()
    rows = load_timeline_jsonl(str(path))
    assert validate_timeline_rows(rows) == []
    assert sum("series" in r for r in rows) > 0


def _digest_without_obs_extras(result):
    result.extra = {k: v for k, v in result.extra.items()
                    if not k.startswith(("obs_", "timeline_"))}
    return run_digest(result)


@pytest.mark.parametrize("ibridge", [False, True], ids=["stock", "ibridge"])
def test_sampling_changes_no_simulated_result(ibridge):
    # The timeline ticker adds heap entries (moving _seq and the event
    # count) but only reads instruments, so it never reorders other
    # events: with its extras dropped, a traced and sampled run digests
    # exactly like a run with obs off.
    size = 65 * KiB
    cfg = base_config(num_servers=4)
    op, warm = Op.READ, 0
    if ibridge:
        cfg = cfg.with_ibridge(ssd_partition=4 * MiB)
        op, warm = Op.WRITE, 1
    digests = []
    for obs in (False, True):
        run_cfg = cfg.with_obs(trace=True, timeline_dt=0.01) if obs else cfg
        cluster = Cluster(run_cfg)
        result = run_workload(cluster, MpiIoTest(
            nprocs=8, request_size=size, file_size=8 * size * 4, op=op),
            warm_runs=warm)
        if obs:
            assert cluster.obs.timeline.ticks > 1
        digests.append(_digest_without_obs_extras(result))
    assert digests[0] == digests[1]
