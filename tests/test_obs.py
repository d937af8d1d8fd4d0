"""Tests for the observability layer (repro.obs).

Covers the span model, the critical-path walk (on a hand-built tree
with a known answer and on real traced clusters), the exporters
(JSONL round-trip, Chrome/Perfetto schema), the metrics registry, the
audit EventTrace's mirror, and the end-of-run lifecycle.
"""

import json

import pytest

from repro.audit.trace import EventTrace
from repro.config import ClusterConfig, ObsConfig
from repro.devices.base import Op
from repro.errors import ConfigError
from repro.obs import (MetricsRegistry, TimelineRecorder, Tracer, analyze,
                       build_trees, load_timeline_jsonl)
from repro.obs.critical_path import EPS, analyze_trace
from repro.obs.export import (append_spans, chrome_path_for,
                              load_spans_jsonl, validate_chrome_trace,
                              write_chrome_trace)
from repro.obs.validate import validate_spans
from repro.pfs.cluster import Cluster
from repro.sim import Environment
from repro.units import KiB, MiB
from repro.workloads.base import run_workload
from repro.workloads.mpi_io_test import MpiIoTest


# ------------------------------------------------- hand-built span tree
def _known_tree():
    """Root [0,10] with two rpc subs; B is the straggler.

    Under B: net [0,1], server job [1,8] (queue [1,3] + service [3,8]),
    reply net [8,9]; the root then closes at 10.  Expected critical
    path: client 1.0, network 2.0, queue 2.0, service 5.0 (sum 10).
    """
    tracer = Tracer()
    root = tracer.start("request", "client", 1, 0.0, attrs={"nbytes": 110})
    a = tracer.start("subreq", "rpc", 1, 0.0, parent=root,
                     attrs={"server": 0, "nbytes": 100})
    b = tracer.start("subreq", "rpc", 1, 0.0, parent=root,
                     attrs={"server": 1, "nbytes": 10, "fragment": True})
    net1 = tracer.start("net.msg", "network", 1, 0.0, parent=b)
    tracer.finish(net1, 1.0)
    job = tracer.start("ds1.job", "server", 1, 1.0, parent=b)
    q = tracer.start("slot.wait", "queue", 1, 1.0, parent=job)
    tracer.finish(q, 3.0)
    svc = tracer.start("blk.service", "service", 1, 3.0, parent=job)
    tracer.finish(svc, 8.0)
    tracer.finish(job, 8.0)
    net2 = tracer.start("net.msg", "network", 1, 8.0, parent=b)
    tracer.finish(net2, 9.0)
    tracer.finish(b, 9.0)
    tracer.finish(a, 4.0)
    tracer.finish(root, 10.0)
    return tracer.spans


def test_hand_built_tree_known_critical_path():
    spans = _known_tree()
    trees = build_trees(spans)
    assert list(trees) == [1]
    report = analyze_trace(trees[1])
    assert report.latency == pytest.approx(10.0)
    assert report.breakdown == pytest.approx(
        {"client": 1.0, "network": 2.0, "queue": 2.0, "service": 5.0})
    assert sum(report.breakdown.values()) == pytest.approx(report.latency)
    # The straggler is sub B: later finish, smaller piece, flagged.
    assert report.straggler["server"] == 1
    assert report.straggler["fragment"] is True
    assert report.straggler_is_smallest is True
    # 9.0 (B) over the only sibling's 4.0.
    assert report.magnification == pytest.approx(9.0 / 4.0)
    # Path segments tile [0, 10] without gaps or overlaps.
    segs = sorted(report.path, key=lambda s: s.start)
    assert segs[0].start == pytest.approx(0.0)
    assert segs[-1].end == pytest.approx(10.0)
    for prev, nxt in zip(segs, segs[1:]):
        assert nxt.start == pytest.approx(prev.end)


def test_build_trees_skips_open_and_rootless_traces():
    tracer = Tracer()
    open_root = tracer.start("request", "client", 1, 0.0)
    orphan = tracer.start("subreq", "rpc", 2, 0.0, parent_id=999)
    tracer.finish(orphan, 1.0)
    assert build_trees(tracer.spans) == {}
    tracer.finish(open_root, 1.0)
    assert list(build_trees(tracer.spans)) == [1]


def test_validate_spans_flags_malformed_trees():
    tracer = Tracer()
    root = tracer.start("request", "client", 1, 0.0)
    child = tracer.start("subreq", "rpc", 1, 0.0, parent=root)
    tracer.finish(child, 5.0)
    tracer.finish(root, 3.0)  # child outlives parent
    problems = validate_spans(tracer.spans)
    assert any("outlives" in p or "ends" in p for p in problems)


# ------------------------------------------------------- traced cluster
def _traced_cluster(num_servers=4, **obs_overrides):
    cfg = ClusterConfig(num_servers=num_servers,
                        client_jitter=0.0).with_obs(**obs_overrides)
    return Cluster(cfg)


def _run_unaligned(cluster, n=16, reqsize=65 * KiB):
    client = cluster.client(0)
    handle = cluster.create_file(2 * n * reqsize)
    done = [client.write(handle, i * reqsize, reqsize, rank=i % 8)
            for i in range(n)]
    cluster.env.run(until=cluster.env.all_of(done))
    done = [client.read(handle, i * reqsize, reqsize, rank=i % 8)
            for i in range(n)]
    cluster.env.run(until=cluster.env.all_of(done))
    cluster.drain()
    cluster.shutdown()
    return [s for s in cluster.obs.tracer.spans if s.end is not None]


def test_traced_run_spans_sum_to_parent_latency():
    cluster = _traced_cluster()
    spans = _run_unaligned(cluster)
    assert validate_spans(spans) == []
    trees = build_trees(spans)
    latency = {p.id: p.latency for p in cluster.requests}
    assert len(trees) == len(cluster.requests) == 32
    for trace_id, tree in trees.items():
        # Root span duration IS the request latency (same event ticks).
        assert tree.root.duration == pytest.approx(latency[trace_id],
                                                   abs=EPS)
        report = analyze_trace(tree)
        assert sum(report.breakdown.values()) == pytest.approx(
            report.latency, abs=1e-7)
        assert report.straggler is not None
        assert "server" in report.straggler


def test_straggler_fragment_named_for_unaligned_requests():
    # iBridge flagging on but a zero SSD partition: fragments are
    # flagged in span attrs yet still served by the disks, so the
    # paper's Fig. 2 pathology (the smallest piece gates the request)
    # is visible and attributable.
    cfg = ClusterConfig(num_servers=4, client_jitter=0.0).with_ibridge(
        ssd_partition=0).with_obs()
    cluster = Cluster(cfg)
    spans = _run_unaligned(cluster, n=32)
    report = analyze(spans)
    assert report.count == 64
    fragment_stragglers = [t for t in report.traces
                           if t.straggler and t.straggler.get("fragment")]
    assert fragment_stragglers, \
        "no unaligned request was gated by its fragment"
    assert report.straggler_smallest_fraction > 0.3
    assert report.mean_magnification > 1.0
    assert report.straggler_servers()
    # The printable report carries the headline numbers.
    text = report.format()
    assert "magnification" in text and "smallest piece" in text


def test_gc_stall_emits_spans_critical_path_attributes_them():
    """A GC stall on the SSD shows up as an ``ssd.gc`` span under the
    stalled member, and the critical-path walk books its share of the
    request to the ``gc`` kind."""
    from repro.faults import FaultPlan, gc_storm
    cfg = ClusterConfig(num_servers=4, client_jitter=0.0).with_ibridge(
        ssd_partition=4 * 1024 * KiB).with_obs()
    plan = FaultPlan.single(gc_storm(start=0.0, duration=60.0),
                            name="storm-while-traced")
    cluster = Cluster(cfg, fault_plan=plan)
    spans = _run_unaligned(cluster, n=32)
    assert validate_spans(spans) == []
    gc_spans = [s for s in spans if s.name == "ssd.gc"]
    assert gc_spans, "no GC stall was traced"
    for s in gc_spans:
        assert s.kind == "gc"
        assert s.attrs["stall"] > 0.0
        assert s.duration == pytest.approx(s.attrs["stall"], abs=EPS)
    reports = [analyze_trace(t) for t in build_trees(spans).values()]
    booked = sum(r.breakdown.get("gc", 0.0) for r in reports)
    assert booked > 0.0


def test_ftl_gauges_registered_and_sampled():
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0).with_ibridge(
        ssd_partition=2 * 1024 * KiB).with_ftl(
        capacity=8 * 1024 * KiB).with_obs(timeline_dt=0.01)
    cluster = Cluster(cfg)
    client = cluster.client(0)
    done = [client.write(cluster.create_file(64 * 65 * KiB), i * 65 * KiB,
                         65 * KiB, rank=i % 4) for i in range(32)]
    cluster.env.run(until=cluster.env.all_of(done))
    cluster.drain()
    cluster.shutdown()
    rows = cluster.obs.timeline.rows
    names = {row["series"] for row in rows}
    # The cumulative stall gauge is sampled into its per-second rate.
    for series in ("ssd_gc_active", "ssd_write_amplification",
                   "ssd_gc_free_fraction", "ssd_gc_stall_seconds_rate"):
        assert series in names, f"{series} never sampled"
    wa = [row["value"] for row in rows
          if row["series"] == "ssd_write_amplification"]
    assert all(v >= 1.0 for v in wa)


def test_obs_disabled_components_stay_unwired():
    cluster = Cluster(ClusterConfig(num_servers=2, client_jitter=0.0))
    assert cluster.obs is None
    assert cluster.network.obs is None
    client = cluster.client(0)
    assert client.obs is None
    handle = cluster.create_file(256 * KiB)
    done = client.write(handle, 0, 65 * KiB, rank=0)
    cluster.env.run(until=done)
    for server in cluster.servers:
        assert server.obs is None
        assert server.ssd_queue.obs is None


# ----------------------------------------------------------- exporters
def test_jsonl_roundtrip_and_chrome_export(tmp_path):
    spans = _known_tree()
    marks = [{"type": "mark", "t": 2.5, "name": "fault_begin",
              "attrs": {"event": "device_slow", "server": 0}}]
    path = str(tmp_path / "trace.jsonl")
    rows = append_spans(path, spans)
    assert rows == len(spans)
    back_spans = load_spans_jsonl(path)
    assert [s.to_dict() for s in back_spans] == [s.to_dict() for s in spans]

    assert chrome_path_for(path) == str(tmp_path / "trace.chrome.json")
    chrome = chrome_path_for(path)
    count = write_chrome_trace(chrome, back_spans, marks)
    assert count == len(spans) + 1 + 1  # + process_name metadata
    assert validate_chrome_trace(chrome) == []
    doc = json.loads(open(chrome, encoding="utf-8").read())
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == len(spans)
    root_ev = next(e for e in complete if e["name"] == "request")
    assert root_ev["dur"] == pytest.approx(10.0 * 1e6)  # microseconds


def test_validate_chrome_trace_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": [{"ph": "Z"}, {"name": "x"}]}')
    problems = validate_chrome_trace(str(bad))
    assert len(problems) == 2


# ------------------------------------------------------------- metrics
def test_metrics_registry_counters_gauges_histograms():
    reg = MetricsRegistry()
    c = reg.counter("ibridge_admissions", server=0, kind="fragment")
    c.inc()
    c.inc(2)
    assert c.value == 3
    with pytest.raises(ValueError):
        c.inc(-1)
    # get-or-create: same labels -> same counter.
    assert reg.counter("ibridge_admissions", server=0,
                       kind="fragment") is c

    depth = 5
    reg.gauge("queue_depth", lambda: depth, server=0, dev="ssd")
    h = reg.histogram("benefit", (0.0, 0.5), server=0)
    for v in (-1.0, 0.2, 0.7, 99.0):
        h.observe(v)
    row = h.to_row()
    assert row["count"] == 4
    assert row["buckets"] == {"le_0": 1, "le_0.5": 1, "le_inf": 2}

    # The timeline samples the registry: gauges as-is, counters as
    # rates from the second tick on.
    timeline = TimelineRecorder(reg, dt=1.0)
    timeline.sample(0.0)
    timeline.sample(1.0)
    names = {(s["series"], s["t"]) for s in timeline.rows}
    assert ("queue_depth", 1.0) in names
    assert ("ibridge_admissions_rate", 1.0) in names


def test_traced_workload_exports_files(tmp_path):
    trace_path = str(tmp_path / "trace.jsonl")
    timeline_path = str(tmp_path / "timeline.jsonl")
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0).with_obs(
        trace_path=trace_path, timeline_path=timeline_path)
    cluster = Cluster(cfg)
    workload = MpiIoTest(nprocs=2, request_size=65 * KiB,
                         file_size=8 * 65 * KiB, op=Op.WRITE)
    result = run_workload(cluster, workload)
    assert result.extra["obs_traces"] == 8.0
    assert result.extra["obs_spans"] > 0
    spans = load_spans_jsonl(trace_path)
    assert validate_spans(spans) == []
    assert len(build_trees(spans)) == 8
    assert load_timeline_jsonl(timeline_path)
    # finish_run is idempotent: a second call must not duplicate rows.
    before = sum(1 for _ in open(trace_path, encoding="utf-8"))
    cluster.obs.finish_run()
    after = sum(1 for _ in open(trace_path, encoding="utf-8"))
    assert before == after


def test_tracer_bounds_retention():
    tracer = Tracer(max_spans=2)
    s1 = tracer.start("a", "client", 1, 0.0)
    tracer.start("b", "client", 2, 0.0)
    tracer.start("c", "client", 3, 0.0)
    assert len(tracer) == 2 and tracer.dropped == 1
    tracer.finish(s1, 1.0)
    tracer.clear()
    assert len(tracer) == 0 and tracer.dropped == 0


# ------------------------------------------------- audit trace mirror
def test_event_trace_context_manager_closes_mirror(tmp_path):
    path = tmp_path / "audit.jsonl"
    with pytest.raises(RuntimeError):
        with EventTrace(path=str(path)) as trace:
            trace.emit(0.5, "ssd_write", server=1)
            raise RuntimeError("aborted mid-run")
    # The mirror is complete on disk despite the abort.
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines == [{"t": 0.5, "kind": "ssd_write", "server": 1}]
    trace.close()  # idempotent
    assert trace.records() != []  # ring survives close


def test_event_trace_flushes_violations_immediately(tmp_path):
    path = tmp_path / "audit.jsonl"
    trace = EventTrace(path=str(path))
    trace.emit(1.0, "violation", message="bytes lost")
    # No close/flush: the violation record must already be on disk.
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines and lines[-1]["kind"] == "violation"
    trace.close()


# ------------------------------------------------------------- config
def test_obs_config_validation():
    with pytest.raises(ConfigError):
        ObsConfig(timeline_dt=0.0).validate()
    with pytest.raises(ConfigError):
        ObsConfig(enabled=True, trace=False, metrics=False).validate()
    cfg = ClusterConfig(num_servers=2).with_obs(timeline_dt=0.1)
    assert cfg.obs.enabled and cfg.obs.timeline_dt == 0.1
    cfg.validate()


# ----------------------------------------------------- span streaming
def test_span_streaming_flushes_batches_mid_run(tmp_path, monkeypatch):
    from repro.obs import runtime
    from repro.obs.runtime import ObsRuntime

    monkeypatch.setattr(runtime, "FLUSH_SPANS", 2)
    path = str(tmp_path / "stream.jsonl")
    cfg = ObsConfig(enabled=True, metrics=False, trace_path=path)
    rt = ObsRuntime(Environment(), cfg)
    t = rt.tracer
    t.finish(t.start("a", "client", 1, 0.0), 1.0)
    import os
    assert not os.path.exists(path)  # first closure only buffers
    t.finish(t.start("b", "client", 2, 0.0), 1.5)
    spans = load_spans_jsonl(path)  # batch of 2 hit the disk
    assert [s.name for s in spans] == ["a", "b"]
    # The tail (one buffered span) drains at finish.
    t.finish(t.start("c", "client", 3, 2.0), 2.5)
    rt.finish_run()
    spans = load_spans_jsonl(path)
    assert [s.name for s in spans] == ["a", "b", "c"]
    rt.finish_run()  # idempotent: no duplicate rows
    assert len(open(path, encoding="utf-8").readlines()) == 3


def test_span_streaming_reset_drops_warm_run_buffer(tmp_path, monkeypatch):
    from repro.obs import runtime
    from repro.obs.runtime import ObsRuntime

    monkeypatch.setattr(runtime, "FLUSH_SPANS", 10)
    path = str(tmp_path / "stream.jsonl")
    cfg = ObsConfig(enabled=True, metrics=False, trace_path=path)
    rt = ObsRuntime(Environment(), cfg)
    t = rt.tracer
    t.finish(t.start("warm", "client", 1, 0.0), 1.0)
    rt.reset()  # warm pass discarded before it ever flushed
    t.finish(t.start("measured", "client", 2, 2.0), 3.0)
    rt.finish_run()
    spans = load_spans_jsonl(path)
    assert [s.name for s in spans] == ["measured"]


# ------------------------------------ empty-attrs sentinel + 1-in-N sampling
def test_empty_attrs_sentinel_is_shared_and_copied_on_write():
    from repro.obs.span import EMPTY_ATTRS

    tracer = Tracer()
    a = tracer.start("a", "client", 1, 0.0)
    b = tracer.start("b", "client", 1, 0.0)
    # No-attr spans share the one immutable (and falsy) sentinel.
    assert a.attrs is EMPTY_ATTRS and b.attrs is EMPTY_ATTRS
    assert not a.attrs and dict(a.attrs) == {}
    with pytest.raises(TypeError):
        a.attrs["k"] = 1  # the sentinel itself is immutable
    # annotate() copies on first write; the sibling keeps the sentinel.
    a.annotate(server=3)
    assert a.attrs == {"server": 3} and a.attrs is not EMPTY_ATTRS
    assert b.attrs is EMPTY_ATTRS and len(EMPTY_ATTRS) == 0
    a.annotate(route="ssd")
    assert a.attrs == {"server": 3, "route": "ssd"}


def test_trace_sampling_keeps_retained_traces_exact():
    """sample_n=4 must retain every 4th trace *completely*: same spans,
    same critical-path attribution as the unsampled run."""
    def _spans(sample_n):
        cfg = ClusterConfig(num_servers=4, client_jitter=0.0).with_obs(
            metrics=False, trace_sample_n=sample_n)
        cluster = Cluster(cfg)
        result = run_workload(cluster, MpiIoTest(nprocs=4,
                                                 request_size=65 * KiB,
                                                 file_size=2 * MiB))
        return cluster.obs.tracer, result.requests, \
            [s for s in cluster.obs.tracer.spans if s.end is not None]

    full_tracer, _, full = _spans(1)
    sampled_tracer, parents, sampled = _spans(4)
    assert full_tracer.unsampled == 0
    # Only roots are pruned: one per parent request outside the sample,
    # and no instrumented site opened a span of an unsampled trace.
    assert sampled_tracer.unsampled == sum(1 for p in parents if p.id % 4)
    assert sampled_tracer.unsampled > 0
    assert 0 < len(sampled) < len(full)
    assert all(s.trace_id % 4 == 0 for s in sampled)
    assert all(s.trace_id % 4 == 0 for s in sampled_tracer.spans)

    # Trace ids come from the process-global request-id counter, which
    # keeps counting across the two runs, so run 2's ids are run 1's
    # shifted by one constant (the schedules are identical; sampling
    # only changes retention).  Solve for that shift: it is the unique
    # offset that maps every retained id onto a full-run id.
    full_ids = sorted({s.trace_id for s in full})
    retained = sorted({s.trace_id for s in sampled})
    # ~1-in-4 retention of the root traces.
    assert len(retained) * 3 <= len(full_ids) <= (len(retained) + 1) * 4
    full_set = set(full_ids)
    shifts = [retained[0] - f for f in full_ids
              if all(t - (retained[0] - f) in full_set for t in retained)]
    assert len(shifts) == 1, f"ambiguous id shift: {shifts}"
    shift = shifts[0]

    full_by_id = {}
    for s in full:
        full_by_id.setdefault(s.trace_id, []).append(
            (s.name, s.kind, s.start, s.end))
    full_trees = build_trees(full)
    for trace_id, tree in build_trees(sampled).items():
        # Exactness: the retained trace carries every span the full run
        # recorded for the corresponding trace.
        got = sorted((s.name, s.kind, s.start, s.end)
                     for s in sampled if s.trace_id == trace_id)
        assert got == sorted(full_by_id[trace_id - shift])
        # ... and therefore bit-exact critical-path attribution.
        report = analyze_trace(tree)
        reference = analyze_trace(full_trees[trace_id - shift])
        assert report.latency == reference.latency
        assert report.breakdown == reference.breakdown


def _linear_bucket(bounds, value):
    """Bucket index by the scan ``Histogram.observe`` used before it
    bisected (verbatim: the first bound ``value`` does not exceed,
    else the +inf bucket)."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


def test_histogram_bisect_matches_linear_scan():
    import math
    import random

    from repro.obs.metrics import BENEFIT_BUCKETS, Histogram

    rng = random.Random(7)
    for buckets in (BENEFIT_BUCKETS, (0.0, 0.5), (1.0,), (), (-1.0, -1.0, 2.0)):
        values = [rng.uniform(-0.2, 0.2) for _ in range(300)]
        values += [rng.choice(buckets) for _ in range(20)] if buckets else []
        values += list(buckets) + [-0.0, 0.0, math.inf, -math.inf, math.nan]
        hist = Histogram("benefit", {}, buckets)
        expect = [0] * (len(hist.bounds) + 1)
        for v in values:
            hist.observe(v)
            expect[_linear_bucket(hist.bounds, v)] += 1
        assert hist.counts == expect
        assert hist.count == len(values)


def test_cached_metric_handles_stay_the_registrys_instances():
    """The manager looks its histogram and counter up once; after
    ``MetricsRegistry.clear()`` and ``ObsRuntime.reset()`` an admission
    still moves the registry's own instances, the ones the timeline
    samples and exports."""
    from repro.core.mapping import CacheKind
    from repro.obs.metrics import BENEFIT_BUCKETS

    cluster = Cluster(ClusterConfig(num_servers=4, client_jitter=0.0)
                      .with_ibridge().with_obs(metrics=True, trace=True))
    managers = [u.ibridge for s in cluster.servers for u in s.disks]
    client = cluster.client(0)
    reqsize = 65 * KiB
    handle = cluster.create_file(64 * reqsize)

    def write_pass(first):
        done = [client.write(handle, (first + i) * reqsize, reqsize,
                             rank=i % 8) for i in range(16)]
        cluster.env.run(until=cluster.env.all_of(done))

    write_pass(0)
    reg = cluster.obs.registry
    assert any(m._benefit_hists for m in managers)
    cluster.obs.reset()
    reg.clear()
    assert all(c.value == 0 for c in reg._counters.values())
    assert all(h.count == 0 for h in reg._histograms.values())
    redirected = {m.server_id: m.stats.ssd_redirected_writes
                  for m in managers}

    write_pass(16)
    observed = {}
    for span in cluster.obs.tracer.spans:
        if span.name == "ibridge.write" and "ret" in span.attrs:
            key = (span.attrs["server"], span.attrs["kind"])
            observed[key] = observed.get(key, 0) + 1
    assert observed
    rows = {(r["labels"]["server"], r["labels"]["kind"]): r
            for r in reg.final_rows()}
    admitted = 0
    for m in managers:
        counter = reg.counter("ibridge_admissions", server=m.server_id,
                              kind="fragment", path="write")
        assert counter.value == (m.stats.ssd_redirected_writes
                                 - redirected[m.server_id])
        admitted += counter.value
        hist = reg.histogram("ibridge_benefit", BENEFIT_BUCKETS,
                             server=m.server_id, op="write",
                             kind="fragment")
        assert hist.count == observed.get((m.server_id, "fragment"), 0)
        # get-or-create hands back the very handles the manager cached,
        # which are what the timeline samples (counters) and exports
        # (histogram rows).
        assert m._admission_counters[CacheKind.FRAGMENT, "write"] is counter
        assert m._benefit_hists[CacheKind.FRAGMENT, Op.WRITE] is hist
        assert rows[m.server_id, "fragment"]["count"] == hist.count
    assert admitted > 0
    assert sum(observed.values()) == sum(
        h.count for h in reg._histograms.values())

