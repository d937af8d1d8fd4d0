"""Telemetry equivalence: what the obs layer exports and reports is pinned.

The tracer keeps instant events in a compact form and builds their
``{"type": "event", ...}`` dicts only when read; audit events share the
audit ring's record instead of copying it; the critical-path report
walks span trees only when a caller reads per-trace results.  None of
that may change a byte of output.  On one small traced, strict-audited
cell (the GC study's stagger cell, shrunk) these tests pin:

* the exported span + event JSONL and the full :class:`RunReport` to
  constants recorded before those representations changed;
* a streamed export (``flush_spans=256``) to the export written at the
  end of the run (``flush_spans=0``), row for row;
* that a streamed run turns each instant event into a dict exactly once
  over all its flushes.
"""

import dataclasses
import hashlib
import itertools
import json

import pytest

import repro.block.request as block_request
import repro.core.mapping as mapping
import repro.net.network as network
import repro.obs.span as span_mod
import repro.pfs.messages as messages
from repro.devices.base import Op
from repro.experiments.common import base_config
from repro.pfs.cluster import Cluster
from repro.units import KiB, MiB
from repro.workloads.base import run_workload
from repro.workloads.mpi_io_test import MpiIoTest


def traced_cell(trace_path, flush_spans):
    """Stagger cell with FTL, strict audit and full tracing, small
    enough to run in about a second: 8 ranks of unaligned 176 KiB
    writes (three or four pieces each, so the median sibling time is
    taken over both an even and an odd count), one warm pass."""
    partition, size = 2 * MiB, 176 * KiB
    wl = MpiIoTest(nprocs=8, request_size=size, file_size=8 * size * 4,
                   op=Op.WRITE)
    cfg = base_config().with_ibridge(ssd_partition=partition,
                                     fragment_threshold=48 * KiB)
    ssd = dataclasses.replace(
        cfg.ssd, capacity=2 * partition + 2 * MiB, ftl_enabled=True,
        ftl_over_provision=0.25, gc_low_watermark=0.30,
        gc_high_watermark=0.55, gc_mode="pause", gc_policy="stagger")
    cfg = cfg.replace(ssd=ssd, seed=3).with_audit(strict=True).with_obs(
        trace=True, metrics=False, trace_path=trace_path,
        flush_spans=flush_spans)
    return cfg, wl


#: Process-wide id counters whose values reach the export (trace ids are
#: request ids); restarted per run so the output does not depend on what
#: else ran in this process.
ID_COUNTERS = ((messages, "_request_ids"), (block_request, "_ids"),
               (mapping, "_entry_ids"), (network, "_fault_ids"))


def run_traced(monkeypatch, trace_path, flush_spans):
    """Run the cell once -> (exported JSONL rows, RunReport, cluster)."""
    for module, name in ID_COUNTERS:
        monkeypatch.setattr(module, name, itertools.count(1))
    cfg, wl = traced_cell(str(trace_path), flush_spans)
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


# Recorded with flush_spans=0 before instant events went compact and
# the critical-path report went lazy.
PINNED_ROWS = 2573
PINNED_SPANS = 1856
PINNED_EVENTS = {"audit": 528, "blk": 189}
PINNED_EXPORT_SHA256 = (
    "a780c8aeb04d99a5aaf41ecf419d3413f7d221fd7d489d47306446f069940ac2")
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


def split_rows(rows):
    """(span rows keyed by span id, event rows in emission order)."""
    spans, events = {}, []
    for row in rows:
        rec = json.loads(row)
        if rec["type"] == "span":
            spans[rec["id"]] = row
        else:
            events.append(row)
    return spans, events


def check_report(report):
    fields = report_fields(report)
    mags = fields.pop("magnifications")
    assert (len(mags), digest(mags)) == PINNED_MAGNIFICATIONS
    assert fields == PINNED_REPORT


def test_export_and_report_match_pinned(tmp_path, monkeypatch):
    rows, report, cluster = run_traced(monkeypatch, tmp_path / "t.jsonl", 0)
    spans, events = split_rows(rows)
    assert len(rows) == PINNED_ROWS and len(spans) == PINNED_SPANS
    kinds = {}
    for row in events:
        prefix = json.loads(row)["name"].split(".")[0]
        kinds[prefix] = kinds.get(prefix, 0) + 1
    assert kinds == PINNED_EVENTS
    assert digest(rows) == PINNED_EXPORT_SHA256
    # report_fields reads count/magnifications (the one-pass summary)
    # before the walked per-trace fields ...
    check_report(report)
    # ... and a report whose traces are walked first must agree.
    walked = cluster.obs.analyze()
    assert len(walked.traces) == PINNED_REPORT["count"]
    check_report(walked)
    # The in-memory events read back as the exported rows.
    assert [json.dumps(e, default=str) for e in cluster.obs.tracer.events] \
        == events


def test_streamed_export_equals_end_export(tmp_path, monkeypatch):
    end_rows, _, _ = run_traced(monkeypatch, tmp_path / "end.jsonl", 0)
    streamed_rows, _, cluster = run_traced(
        monkeypatch, tmp_path / "streamed.jsonl", 256)
    assert cluster.obs._streaming
    assert len(streamed_rows) == len(end_rows)
    # Spans stream in closing order and export at the end in opening
    # order; events keep emission order either way.
    assert split_rows(streamed_rows) == split_rows(end_rows)


def test_streamed_run_builds_each_event_dict_once(tmp_path, monkeypatch):
    built = []
    real = span_mod.event_record

    def counting(name, t, attrs):
        built.append(id(attrs))
        return real(name, t, attrs)

    monkeypatch.setattr(span_mod, "event_record", counting)
    rows, _, cluster = run_traced(
        monkeypatch, tmp_path / "streamed.jsonl", 256)
    _, events = split_rows(rows)
    assert len(rows) > 4 * 256  # several flushes, each with events
    assert len(built) == len(events) == len(cluster.obs.tracer._events)
    assert len(set(built)) == len(built)


@pytest.mark.parametrize("flush_spans", [0, 256])
def test_audit_events_share_the_ring_record(tmp_path, monkeypatch,
                                            flush_spans):
    """The tracer holds the audit ring's records, not copies."""
    _, _, cluster = run_traced(monkeypatch, tmp_path / "t.jsonl", flush_spans)
    ring = {id(r) for r in cluster.audit.trace.records()}
    shared = [attrs for name, _t, attrs in cluster.obs.tracer._events
              if name is None]
    assert shared and {id(r) for r in shared} >= ring


def test_validator_accepts_exported_events_and_flags_leaked_fields(
        tmp_path, monkeypatch):
    from repro.obs.validate import validate_events

    rows, _, _ = run_traced(monkeypatch, tmp_path / "t.jsonl", 256)
    events = [json.loads(r) for r in split_rows(rows)[1]]
    assert validate_events(events) == []
    audit = next(e for e in events if e["name"].startswith("audit."))
    leaked = dict(audit, attrs=dict(audit["attrs"], kind="x"))
    untimed = {"type": "event", "name": "blk.dispatch", "t": float("nan")}
    problems = validate_events([leaked, untimed])
    assert len(problems) == 2
    assert "leaked" in problems[0] and "bad time" in problems[1]
