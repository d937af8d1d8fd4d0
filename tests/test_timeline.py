"""Continuous telemetry: the sim-time series recorder and run reports.

Covers the `repro.obs.timeline` recorder (sampling, rate differencing,
ring-buffer retention, marks), the JSONL/CSV exports and their
validators (`repro.obs.validate --timeline/--metrics`), the Perfetto
counter-track round trip, the summary/sparkline helpers, the run-report
CLI (`python -m repro.obs.report`), and the end-to-end wiring through a
real cluster run with `ObsConfig.timeline_dt` on.
"""

import json
import math

import pytest

from repro.config import ClusterConfig
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import (CUMULATIVE_SERIES, KNOWN_SERIES,
                                TimelineRecorder, load_timeline_jsonl,
                                series_key, sparkline, summarize_series)
from repro.obs.validate import (validate_metrics_rows,
                                validate_timeline_rows)
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


def test_metrics_validator_accepts_restart_flags_regression():
    good = [
        {"t": 0.0, "name": "queue_depth", "labels": {}, "value": 1.0},
        {"t": 0.5, "name": "queue_depth", "labels": {}, "value": 2.0},
        # next cluster's export appended: rewind to the file start.
        {"t": 0.0, "name": "queue_depth", "labels": {}, "value": 0.0},
        {"type": "histogram", "name": "ibridge_benefit",
         "count": 3, "sum": 0.5},
    ]
    assert validate_metrics_rows(good) == []
    problems = validate_metrics_rows([
        {"t": 0.0, "name": "queue_depth", "labels": {}, "value": 1.0},
        {"t": 2.0, "name": "mystery_metric", "labels": {}, "value": 1.0},
        # a family of the deleted experiment service: nothing emits it.
        {"t": 2.0, "name": "svc_jobs", "labels": {}, "value": 1.0},
        {"t": 1.0, "name": "queue_depth", "labels": {},
         "value": float("nan")},
    ])
    assert any("unknown metric" in p for p in problems)
    assert "row 2: unknown metric 'svc_jobs'" in problems
    assert any("bad value" in p for p in problems)
    assert any("backwards" in p for p in problems)


def test_csv_export_writes_samples_and_marks(tmp_path):
    rec = _recorded(tmp_path)
    path = tmp_path / "timeline.csv"
    n = rec.export_csv(str(path), mode="w")
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "t,series,labels,value"
    assert len(lines) == n + 1
    assert any("mark:fault_begin" in line for line in lines)


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
    path = tmp_path / "timeline.jsonl"
    rec.export_jsonl(str(path))
    assert report.main(["--timeline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "queue_depth" in out and "fault_begin" in out

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
    from repro.pfs.cluster import Cluster
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
    summary = cluster.obs.timeline_summary()
    assert set(last) == {f"timeline_last[{k}]" for k in summary}


def test_finish_run_exports_validating_timeline(tmp_path):
    path = tmp_path / "timeline.jsonl"
    cluster, _ = _traced_run(tmp_path, timeline_path=str(path))
    cluster.obs.finish_run()
    rows = load_timeline_jsonl(str(path))
    assert validate_timeline_rows(rows) == []
    assert sum("series" in r for r in rows) > 0


def test_timeline_requires_metrics():
    from repro.config import ObsConfig
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        ObsConfig(enabled=True, metrics=False, timeline_dt=0.05).validate()
