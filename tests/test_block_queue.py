"""Integration tests for the BlockQueue device runner."""

import pytest

from repro.block import BlockQueue, BlockTracer, make_scheduler
from repro.config import SchedulerConfig
from repro.devices import HardDisk, Op, SolidStateDrive
from repro.sim import Environment
from repro.units import KiB, MiB


def make_queue(env, device=None, kind="noop", tracer=None, **sched_kw):
    device = device or SolidStateDrive()
    sched = make_scheduler(SchedulerConfig(kind=kind, **sched_kw))
    return BlockQueue(env, device, sched, tracer=tracer)


def test_single_request_completes_with_service_time():
    env = Environment()
    ssd = SolidStateDrive()
    q = make_queue(env, ssd)
    # Use a non-zero LBN: the head parks at 0, so a request at 0 would
    # be contiguous and skip the setup cost.
    req = q.submit(Op.READ, 10 * MiB, 64 * KiB)
    env.run(until=req.done)
    expected = ssd.config.read_setup + 64 * KiB / ssd.config.seq_read_bw
    assert env.now == pytest.approx(expected)
    assert req.latency == pytest.approx(expected)


def test_requests_serve_serially():
    env = Environment()
    q = make_queue(env)
    r1 = q.submit(Op.READ, 0, 64 * KiB)
    r2 = q.submit(Op.READ, 10 * MiB, 64 * KiB)
    env.run(until=r2.done)
    assert r1.complete_time < r2.complete_time


def test_merged_requests_complete_together():
    env = Environment()
    q = make_queue(env)
    r1 = q.submit(Op.READ, 0, 4 * KiB)
    r2 = q.submit(Op.READ, 4 * KiB, 4 * KiB)
    env.run()
    assert r1.complete_time == r2.complete_time
    assert q.dispatches == 1


def test_tracer_records_dispatches():
    env = Environment()
    tracer = BlockTracer()
    q = make_queue(env, tracer=tracer)
    q.submit(Op.READ, 0, 4 * KiB)
    q.submit(Op.READ, 4 * KiB, 4 * KiB)
    q.submit(Op.WRITE, 10 * MiB, 64 * KiB)
    env.run()
    assert len(tracer) == 2
    hist = tracer.size_histogram(Op.READ)
    assert hist == {16: 1}  # 8 KiB = 16 sectors, merged
    assert sorted(r.merged for r in tracer.records) == [1, 2]


def test_pending_and_idle_tracking():
    env = Environment()
    q = make_queue(env)
    assert q.pending == 0
    req = q.submit(Op.READ, 0, 64 * KiB)
    assert q.pending == 1
    env.run(until=req.done)
    assert q.pending == 0
    assert not q.busy
    assert q.idle_duration() == 0.0

    def later(env):
        yield env.timeout(1.0)

    p = env.process(later(env))
    env.run(until=p)
    assert q.idle_duration() == pytest.approx(1.0)


def test_quiesce_fires_when_drained():
    env = Environment()
    q = make_queue(env)
    q.submit(Op.READ, 0, 64 * KiB)
    q.submit(Op.READ, 10 * MiB, 64 * KiB)
    ev = q.quiesce()
    env.run(until=ev)
    assert q.pending == 0


def test_quiesce_immediate_when_already_idle():
    env = Environment()
    q = make_queue(env)
    ev = q.quiesce()
    assert ev.triggered


def test_cfq_queue_idles_then_switches_stream():
    env = Environment()
    disk = HardDisk()
    q = make_queue(env, disk, kind="cfq", idle_window=0.001)
    r1 = q.submit(Op.READ, 0, 64 * KiB, stream=1)
    r2 = q.submit(Op.READ, 100 * MiB, 64 * KiB, stream=2)
    env.run()
    assert r1.complete_time < r2.complete_time
    # Stream 2's dispatch happens only after the idle window expires.
    assert r2.dispatch_time >= r1.complete_time + 0.001 * 0.99


def test_out_of_range_submit_rejected():
    from repro.errors import StorageError
    env = Environment()
    q = make_queue(env)
    with pytest.raises(StorageError):
        q.submit(Op.READ, q.device.capacity, 4 * KiB)


def test_many_streams_all_complete():
    env = Environment()
    disk = HardDisk()
    q = make_queue(env, disk, kind="cfq")
    reqs = [q.submit(Op.READ, (i * 7919) % 1000 * MiB, 64 * KiB, stream=i % 8)
            for i in range(64)]
    env.run()
    assert all(r.complete_time is not None for r in reqs)
    assert q.dispatches <= 64
