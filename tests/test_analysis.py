"""Tests for run results: metrics, fault windows and report formatting."""

import pytest

from repro.devices import Op
from repro.pfs.messages import ParentRequest
from repro.results import (FaultWindow, LatencyStats, RunResult, fault_report,
                           format_table)
from repro.units import MiB


def make_request(latency, op=Op.READ, nbytes=1024, submit=0.0):
    req = ParentRequest(op=op, handle=1, offset=0, nbytes=nbytes, rank=0)
    req.submit_time = submit
    req.complete_time = submit + latency
    return req


def fault_record(time, phase, kind="device_slow", server=0):
    event = {"kind": kind, "start": 1.0, "duration": 1.0}
    if server is not None:
        event["server"] = server
    return {"time": time, "phase": phase, "event": event, "detail": {},
            "index": 0}


def test_throughput_computation():
    res = RunResult(name="x", makespan=2.0, total_bytes=100 * MiB)
    assert res.throughput_mib_s == pytest.approx(50.0)


def test_zero_makespan_throughput_is_zero():
    res = RunResult(name="x", makespan=0.0, total_bytes=100)
    assert res.throughput_mib_s == 0.0


def test_latency_stats_by_op():
    reqs = [make_request(0.1, Op.READ), make_request(0.3, Op.WRITE),
            make_request(0.2, Op.READ)]
    res = RunResult(name="x", makespan=1.0, total_bytes=1, requests=reqs)
    assert res.latency_stats(Op.READ).count == 2
    assert res.latency_stats(Op.READ).mean == pytest.approx(0.15)
    assert res.latency_stats().max == pytest.approx(0.3)
    assert res.mean_service_time == pytest.approx(0.2)


def test_latency_stats_empty():
    stats = LatencyStats.from_latencies([])
    assert stats.count == 0
    assert stats.mean == 0.0


def test_latency_stats_single_sample():
    stats = LatencyStats.from_latencies([0.25])
    # Every summary statistic of a singleton collapses to the sample.
    assert stats.count == 1
    assert stats.mean == pytest.approx(0.25)
    assert stats.p50 == pytest.approx(0.25)
    assert stats.p95 == pytest.approx(0.25)
    assert stats.p99 == pytest.approx(0.25)
    assert stats.max == pytest.approx(0.25)


def test_latency_stats_all_equal():
    stats = LatencyStats.from_latencies([0.5] * 17)
    assert stats.count == 17
    assert stats.mean == pytest.approx(0.5)
    assert stats.p50 == stats.p95 == stats.p99 == stats.max
    assert stats.max == pytest.approx(0.5)


def test_latency_stats_p99_tiny_n():
    # With n=2, p99 interpolates inside [min, max]: it must stay
    # bounded by the extremes and ordered against p95/p50.
    stats = LatencyStats.from_latencies([0.1, 0.9])
    assert stats.p50 <= stats.p95 <= stats.p99 <= stats.max
    assert stats.p99 <= 0.9 + 1e-12
    assert stats.p99 >= 0.1
    assert stats.max == pytest.approx(0.9)
    # Order of the input must not matter.
    rev = LatencyStats.from_latencies([0.9, 0.1])
    assert rev.p99 == pytest.approx(stats.p99)


def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 2.5], ["xx", 0.001]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


# ---------------------------------------------------------------- faults
def test_fault_windows_pair_begin_with_end():
    res = RunResult(name="x", makespan=5.0, total_bytes=1, fault_events=[
        fault_record(1.0, "begin", server=0),
        fault_record(1.5, "begin", kind="net_drop", server=None),
        fault_record(2.0, "end", server=0),
    ])
    slow, drop = res.fault_windows()
    assert slow == FaultWindow(kind="device_slow", start=1.0, end=2.0,
                               server=0)
    # The drop window never reverted: it lasts to the end of the run.
    assert drop == FaultWindow(kind="net_drop", start=1.5, end=None,
                               server=None)
    assert drop.contains(1e9) and not drop.contains(1.0)


def test_fault_windows_pair_repeats_of_one_event_in_order():
    res = RunResult(name="x", makespan=5.0, total_bytes=1, fault_events=[
        fault_record(1.0, "begin"), fault_record(2.0, "begin"),
        fault_record(3.0, "end"), fault_record(4.0, "end"),
    ])
    assert [(w.start, w.end) for w in res.fault_windows()] == [
        (1.0, 3.0), (2.0, 4.0)]


def test_window_slowdown_and_baseline_latencies():
    reqs = [make_request(0.1, submit=0.0),     # completes at 0.1
            make_request(0.4, submit=1.0),     # completes at 1.4, inside
            make_request(0.2, submit=3.0)]     # completes at 3.2
    res = RunResult(name="x", makespan=4.0, total_bytes=1, requests=reqs,
                    fault_events=[fault_record(1.0, "begin"),
                                  fault_record(2.0, "end")])
    (window,) = res.fault_windows()
    assert res.window_latencies(window) == pytest.approx([0.4])
    assert res.baseline_latencies() == pytest.approx([0.1, 0.2])
    assert res.window_slowdown(window) == pytest.approx(0.4 / 0.15)


def test_window_slowdown_is_zero_when_either_side_is_empty():
    quiet = FaultWindow(kind="device_slow", start=10.0, end=11.0)
    res = RunResult(name="x", makespan=4.0, total_bytes=1,
                    requests=[make_request(0.1)],
                    fault_events=[fault_record(10.0, "begin"),
                                  fault_record(11.0, "end")])
    assert res.window_slowdown(quiet) == 0.0          # nothing inside
    whole = RunResult(name="x", makespan=4.0, total_bytes=1,
                      requests=[make_request(0.1)],
                      fault_events=[fault_record(0.0, "begin")])
    (window,) = whole.fault_windows()
    assert whole.window_slowdown(window) == 0.0       # no baseline


def test_fault_report_on_a_fault_free_run():
    res = RunResult(name="x", makespan=1.0, total_bytes=1,
                    requests=[make_request(0.1)])
    assert fault_report(res) == "no faults injected"


def test_fault_report_rows_and_recovery_line():
    reqs = [make_request(0.1, submit=0.0), make_request(0.4, submit=1.0)]
    res = RunResult(
        name="x", makespan=4.0, total_bytes=1, requests=reqs,
        fault_events=[fault_record(1.0, "begin", server=3),
                      fault_record(2.0, "end", server=3),
                      fault_record(2.5, "begin", kind="net_drop",
                                   server=None)],
        recovery={"retries": 2.0, "timeouts": 0.0, "net_dropped": 5.0})
    lines = fault_report(res).splitlines()
    assert lines[0] == "Fault windows"
    slow_row, drop_row = lines[3].split(), lines[4].split()
    assert slow_row[:4] == ["device_slow", "3", "1.0", "2.0"]
    assert slow_row[4] == "1"                 # one request in the window
    assert drop_row[:2] == ["net_drop", "all"]
    assert "(end of run)" in lines[4]
    assert lines[5].startswith("fault-free baseline: 1 requests")
    # Zero counters are left out of the recovery line.
    assert lines[6] == "recovery: net_dropped=5.0  retries=2.0"


def test_fault_report_recovery_line_when_nothing_recovered():
    res = RunResult(name="x", makespan=4.0, total_bytes=1,
                    fault_events=[fault_record(1.0, "begin")],
                    recovery={"retries": 0.0})
    assert fault_report(res).splitlines()[-1] == (
        "recovery: no recovery action needed")
