"""Telemetry equivalence: what the obs layer exports and reports is pinned.

Each telemetry fact has one home: spans in the span JSONL, audit
records in the audit ring and its ``--audit-trace`` JSONL, fault
windows and GC storms in the timeline's marks.  The critical-path
report walks span trees only when a caller reads per-trace results.
None of that may change a byte of output.  On one small traced,
strict-audited cell (the GC study's stagger cell, shrunk) these tests
pin:

* the exported span JSONL, the audit trace and the full
  :class:`RunReport` to constants recorded when the span export still
  carried a copy of every audit record and HDD dispatch;
* that the streamed export does not depend on its batch size;
* that a fault window reaches the Chrome export as instant events taken
  from the timeline's marks;
* with the metrics registry on, the timeline JSONL (samples, marks and
  histogram rows) and the ``obs_*``/``timeline_*`` result extras.
"""

import dataclasses
import hashlib
import itertools
import json

import pytest

import repro.block.request as block_request
import repro.core.mapping as mapping
import repro.net.network as network
import repro.pfs.messages as messages
from repro.devices.base import Op
from repro.experiments.common import base_config
from repro.pfs.cluster import Cluster
from repro.units import KiB, MiB
from repro.workloads.base import run_workload
from repro.workloads.mpi_io_test import MpiIoTest


def traced_cell(trace_path, audit_path=None):
    """Stagger cell with FTL, strict audit and full tracing, small
    enough to run in about a second: 8 ranks of unaligned 176 KiB
    writes (three or four pieces each, so the median sibling time is
    taken over both an even and an odd count), one warm pass.
    ``audit_path`` mirrors the audit records to a JSONL file."""
    partition, size = 2 * MiB, 176 * KiB
    wl = MpiIoTest(nprocs=8, request_size=size, file_size=8 * size * 4,
                   op=Op.WRITE)
    cfg = base_config().with_ibridge(ssd_partition=partition,
                                     fragment_threshold=48 * KiB)
    ssd = dataclasses.replace(
        cfg.ssd, capacity=2 * partition + 2 * MiB, ftl_enabled=True,
        ftl_over_provision=0.25, gc_low_watermark=0.30,
        gc_high_watermark=0.55, gc_mode="pause", gc_policy="stagger")
    cfg = cfg.replace(ssd=ssd, seed=3).with_audit(
        strict=True, trace_path=audit_path).with_obs(
        trace=True, metrics=False, trace_path=trace_path)
    return cfg, wl


#: Process-wide id counters whose values reach the export (trace ids are
#: request ids); restarted per run so the output does not depend on what
#: else ran in this process.
ID_COUNTERS = ((messages, "_request_ids"), (block_request, "_ids"),
               (mapping, "_entry_ids"), (network, "_fault_ids"))


def run_traced(monkeypatch, trace_path, audit_path=None):
    """Run the cell once -> (exported JSONL rows, RunReport, cluster)."""
    for module, name in ID_COUNTERS:
        monkeypatch.setattr(module, name, itertools.count(1))
    cfg, wl = traced_cell(str(trace_path), audit_path and str(audit_path))
    cluster = Cluster(cfg)
    run_workload(cluster, wl, warm_runs=1)
    with open(trace_path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    return rows, cluster.obs.analyze(), cluster


def report_fields(report):
    """Every public number of a RunReport, as one comparable dict."""
    return {
        "count": report.count,
        "magnifications": report.magnifications(),
        "mean_magnification": report.mean_magnification,
        "breakdown_totals": report.breakdown_totals(),
        "straggler_servers": report.straggler_servers(),
        "straggler_smallest_fraction": report.straggler_smallest_fraction,
    }


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# Recorded while spans were still exported at the end of the run, in
# opening (span id) order, followed by 528 audit and 189 blk.dispatch
# instant events: the digest is over the span rows alone, in id order.
PINNED_SPANS = 1856
PINNED_SPAN_ROWS_SHA256 = (
    "f9c79b8bd57d5db9be6b14acd9b04081dac1917a6f03fb61e2f4b19ced46ead7")
# The same rows in the order they stream (closing order), recorded with
# the parent's 256-span batches.
STREAMED_SPAN_ROWS_SHA256 = (
    "d90e07ae218bcc72c9631312ebccc18dfbbb6efc47c12dc2018d0d9890104ebd")
# The --audit-trace lines of the same run: equal, line for line, to its
# audit instant events rebuilt as {"t", "kind", **attrs} records.
PINNED_AUDIT = (
    528, "b53ccf7dc4faa5431fcdfea585665b11f64ab87f19bac01293ab372a951faea2")
PINNED_REPORT = {
    "count": 64,
    "mean_magnification": 6.255984136038842,
    "breakdown_totals": {"network": 0.008914109158646953,
                         "service": 0.16359393412983067,
                         "queue": 0.21917494696440837,
                         "server": 0.00640000000000008,
                         "client": 0.013354790333620388},
    "straggler_servers": {0: 4, 1: 10, 2: 14, 3: 7, 4: 5, 5: 10, 6: 10,
                          7: 4},
    "straggler_smallest_fraction": 0.140625,
}
PINNED_MAGNIFICATIONS = (
    64, "2d725d21286e6883453dd675439d1ae1d9dd75caa54e9f2f15e34aa8afd6679c")


def spans_by_id(rows):
    """Span rows keyed by span id (every row must be a span)."""
    spans = {}
    for row in rows:
        rec = json.loads(row)
        assert rec["type"] == "span"
        spans[rec["id"]] = row
    return spans


def check_report(report):
    fields = report_fields(report)
    mags = fields.pop("magnifications")
    assert (len(mags), digest(mags)) == PINNED_MAGNIFICATIONS
    assert fields == PINNED_REPORT


def test_export_and_report_match_pinned(tmp_path, monkeypatch):
    rows, report, cluster = run_traced(monkeypatch, tmp_path / "t.jsonl")
    spans = spans_by_id(rows)
    assert len(spans) == len(rows) == PINNED_SPANS
    # Spans stream in closing order; the pin is in opening order.
    assert digest([spans[i] for i in sorted(spans)]) == \
        PINNED_SPAN_ROWS_SHA256
    # report_fields reads count/magnifications (the one-pass summary)
    # before the walked per-trace fields ...
    check_report(report)
    # ... and a report whose traces are walked first must agree.
    walked = cluster.obs.analyze()
    assert len(walked.traces) == PINNED_REPORT["count"]
    check_report(walked)


@pytest.mark.parametrize("flush_spans", [1, 256])
def test_span_export_holds_spans_and_audit_trace_holds_records(
        tmp_path, monkeypatch, flush_spans):
    """Each fact has one home: the span JSONL holds span rows only, the
    audit records reach the --audit-trace file, and neither carries a
    copy of the other.  The streamed rows, in closing order, do not
    depend on how many spans each append batches."""
    import repro.obs.runtime as obs_runtime

    monkeypatch.setattr(obs_runtime, "FLUSH_SPANS", flush_spans)
    audit_path = tmp_path / "audit.jsonl"
    rows, _, cluster = run_traced(monkeypatch, tmp_path / "t.jsonl",
                                  audit_path)
    assert [json.loads(r)["type"] for r in rows] == ["span"] * PINNED_SPANS
    assert digest(rows) == STREAMED_SPAN_ROWS_SHA256
    cluster.audit.trace.close()
    lines = audit_path.read_text(encoding="utf-8").splitlines()
    assert (len(lines), digest(lines)) == PINNED_AUDIT
    assert [json.loads(line) for line in lines] == \
        cluster.audit.trace.records()


def test_validator_accepts_exported_spans(tmp_path, monkeypatch, capsys):
    from repro.obs.validate import main as validate_main

    path = tmp_path / "t.jsonl"
    run_traced(monkeypatch, path)
    assert validate_main([str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"OK: {PINNED_SPANS} spans, ")


def test_fault_window_reaches_chrome_export_as_timeline_marks(
        tmp_path, monkeypatch):
    """A fault plan's window is a timeline mark, and the CLI's Chrome
    export renders the marks as its instant events."""
    from repro.experiments.cli import _emit_trace_outputs
    from repro.faults import FaultPlan

    trace, timeline = tmp_path / "t.jsonl", tmp_path / "timeline.jsonl"
    cfg, wl = traced_cell(str(trace))
    cfg = cfg.with_obs(metrics=True, timeline_path=str(timeline))
    plan = FaultPlan.from_dict({"name": "slow-disk", "events": [
        {"kind": "device_slow", "server": 0, "device": "hdd", "disk": 0,
         "start": 0.001, "duration": 0.01, "latency_mult": 6.0}]})
    run_workload(Cluster(cfg, fault_plan=plan), wl, warm_runs=1)
    _emit_trace_outputs(str(trace), str(timeline))
    marks = [(r["name"], r["t"]) for r in
             map(json.loads, timeline.read_text().splitlines())
             if r.get("type") == "mark"]
    assert {name for name, _t in marks} >= {"fault_begin", "fault_end"}
    doc = json.loads((tmp_path / "t.chrome.json").read_text())
    instants = [(e["name"], e["ts"]) for e in doc["traceEvents"]
                if e["ph"] == "i"]
    assert instants == [(name, t * 1e6) for name, t in marks]
    assert all(json.loads(r)["type"] == "span"
               for r in trace.read_text().splitlines())


# Recorded on the metrics=True cell with a device_slow window before the
# registry handles were cached per manager, Histogram.observe bisected
# and the timeline_last[...] extras read each series' last sample
# directly: (rows, sha256) per row type, then the whole file.
PINNED_TIMELINE_ROWS = {
    "timeline_begin": (1, "4384cdbd4ad87e603138bb9b9a942b43"
                          "b0d6a7bd83dcbf5f64f73281292aa17d"),
    "sample": (408, "576494ead205ba31ecb119dfd93d15a0"
                    "d24ec40dc590ac13528d5085fee0e6c9"),
    "mark": (2, "f38babe881ff1c30864f694f3320329b"
                "bb66ef7afe4b8e3e5f13f024c18f9c84"),
    "histogram": (8, "a2c4dd24ccbdc11d2fa2d4593a7b1c9f"
                     "5199f9db5d4533b626b76aa3588fa458"),
}
PINNED_TIMELINE = (
    419, "53f29d486220fe2af0c2471d2fc188ded688a0bb98092b79c8f1b460aa89b24b")
# 3 obs_* extras, timeline_rows and 112 timeline_last[...] series.
PINNED_OBS_EXTRAS = (
    116, "d4c369639e6d4a25cf995d619cd2972de83bb10b98bb1ad181ed3abfb75eff77")


def run_metrics_cell(tmp_path, monkeypatch):
    """The traced cell with the registry and timeline on and one
    ``device_slow`` window -> (timeline JSONL rows, obs/timeline
    extras)."""
    from repro.faults import FaultPlan

    for module, name in ID_COUNTERS:
        monkeypatch.setattr(module, name, itertools.count(1))
    timeline = tmp_path / "timeline.jsonl"
    cfg, wl = traced_cell(str(tmp_path / "t.jsonl"))
    cfg = cfg.with_obs(metrics=True, timeline_path=str(timeline))
    plan = FaultPlan.from_dict({"name": "slow-disk", "events": [
        {"kind": "device_slow", "server": 0, "device": "hdd", "disk": 0,
         "start": 0.001, "duration": 0.01, "latency_mult": 6.0}]})
    result = run_workload(Cluster(cfg, fault_plan=plan), wl, warm_runs=1)
    rows = timeline.read_text(encoding="utf-8").splitlines()
    extras = sorted((k, v) for k, v in result.extra.items()
                    if k.startswith(("obs_", "timeline_")))
    return rows, extras


def test_metrics_timeline_and_extras_match_pinned(tmp_path, monkeypatch):
    rows, extras = run_metrics_cell(tmp_path, monkeypatch)
    by_type = {name: [] for name in PINNED_TIMELINE_ROWS}
    for row in rows:
        by_type[json.loads(row).get("type", "sample")].append(row)
    assert {name: (len(group), digest(group))
            for name, group in by_type.items()} == PINNED_TIMELINE_ROWS
    assert (len(rows), digest(rows)) == PINNED_TIMELINE
    assert (len(extras), digest(extras)) == PINNED_OBS_EXTRAS


def test_cli_report_reuses_the_loaded_trace(tmp_path, monkeypatch, capsys):
    """With ``--trace-out``, ``--timeline-out`` and ``--report`` the CLI
    parses each artifact and analyzes the spans once, and its markdown
    report equals the one ``python -m repro.obs.report`` renders from
    the files."""
    import collections

    import repro.obs.critical_path as critical_path
    import repro.obs.export as export
    import repro.obs.report as obs_report
    import repro.obs.timeline as timeline_mod
    from repro.experiments.cli import _emit_obs_outputs

    trace, timeline = tmp_path / "t.jsonl", tmp_path / "timeline.jsonl"
    cfg, wl = traced_cell(str(trace))
    run_workload(Cluster(cfg.with_obs(metrics=True,
                                      timeline_path=str(timeline))),
                 wl, warm_runs=1)
    calls = collections.Counter()

    def count(module, name):
        func = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module in (export, obs_report):
        count(module, "load_spans_jsonl")
    for module in (critical_path, obs_report):
        count(module, "analyze")
    for module in (timeline_mod, obs_report):
        count(module, "load_timeline_jsonl")
    report = tmp_path / "report.md"
    _emit_obs_outputs(str(trace), str(timeline), str(report))
    assert calls == {"load_spans_jsonl": 1, "analyze": 1,
                     "load_timeline_jsonl": 1}

    two_pass = tmp_path / "two_pass.md"
    assert obs_report.main(["--trace", str(trace), "--timeline",
                            str(timeline), "--format", "markdown",
                            "--out", str(two_pass)]) == 0
    assert report.read_bytes() == two_pass.read_bytes()
    assert b"## Critical path" in report.read_bytes()
    assert b"## Timeline" in report.read_bytes()
