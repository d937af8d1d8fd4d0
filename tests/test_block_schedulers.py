"""Unit tests for the Noop, Deadline and CFQ schedulers."""

import random
from collections import Counter, deque

import pytest

from repro.block import (CFQScheduler, DeadlineScheduler, NoopScheduler,
                         Scheduler)
from repro.block.request import BlockRequest, Dispatch
from repro.config import SchedulerConfig
from repro.devices import Op
from repro.sim import Environment
from repro.units import KiB


def mkreq(env, op=Op.READ, lbn=0, nbytes=4 * KiB, stream=0):
    return BlockRequest(env, op, lbn, nbytes, stream=stream)


# ---------------------------------------------------------------- noop
def test_noop_fifo_order():
    env = Environment()
    sched = NoopScheduler(SchedulerConfig(kind="noop"))
    a = mkreq(env, lbn=100 * KiB)
    b = mkreq(env, lbn=0)
    sched.add(a)
    sched.add(b)
    d1, _ = sched.select(0.0)
    d2, _ = sched.select(0.0)
    assert d1.members == [a]
    assert d2.members == [b]


def test_noop_merges_contiguous():
    env = Environment()
    sched = NoopScheduler(SchedulerConfig(kind="noop"))
    a = mkreq(env, lbn=0, nbytes=4 * KiB)
    b = mkreq(env, lbn=4 * KiB, nbytes=4 * KiB)
    c = mkreq(env, lbn=8 * KiB, nbytes=4 * KiB)
    for r in (a, b, c):
        sched.add(r)
    d, _ = sched.select(0.0)
    assert d.lbn == 0 and d.nbytes == 12 * KiB
    assert len(d.members) == 3
    assert sched.empty


def test_noop_front_merge():
    env = Environment()
    sched = NoopScheduler(SchedulerConfig(kind="noop"))
    a = mkreq(env, lbn=8 * KiB, nbytes=4 * KiB)
    b = mkreq(env, lbn=4 * KiB, nbytes=4 * KiB)
    sched.add(a)
    sched.add(b)
    d, _ = sched.select(0.0)
    assert d.lbn == 4 * KiB and d.nbytes == 8 * KiB


def test_noop_does_not_merge_across_ops():
    env = Environment()
    sched = NoopScheduler(SchedulerConfig(kind="noop"))
    sched.add(mkreq(env, op=Op.READ, lbn=0))
    sched.add(mkreq(env, op=Op.WRITE, lbn=4 * KiB))
    d, _ = sched.select(0.0)
    assert len(d.members) == 1


def test_noop_respects_merge_limit():
    env = Environment()
    sched = NoopScheduler(SchedulerConfig(kind="noop", max_merge_bytes=8 * KiB))
    for i in range(4):
        sched.add(mkreq(env, lbn=i * 4 * KiB))
    d, _ = sched.select(0.0)
    assert d.nbytes == 8 * KiB


def test_noop_empty_select():
    sched = NoopScheduler(SchedulerConfig(kind="noop"))
    assert sched.select(0.0) == (None, None)


# ---------------------------------------------------------------- deadline
def test_deadline_sweeps_by_lbn():
    env = Environment()
    sched = DeadlineScheduler(SchedulerConfig(kind="deadline"))
    far = mkreq(env, lbn=100 * KiB)
    near = mkreq(env, lbn=10 * KiB)
    sched.add(far)
    sched.add(near)
    d1, _ = sched.select(0.0)
    assert d1.members == [near]


def test_deadline_age_bound_forces_oldest():
    env = Environment()
    sched = DeadlineScheduler(SchedulerConfig(kind="deadline"), max_age=0.1)
    old = mkreq(env, lbn=500 * KiB)
    sched.add(old)
    sched.add(mkreq(env, lbn=10 * KiB))
    d, _ = sched.select(1.0)  # old request has aged out
    assert old in d.members


def test_deadline_merges_cross_stream():
    """A global elevator reassembles interleaved streams (ablation)."""
    env = Environment()
    sched = DeadlineScheduler(SchedulerConfig(kind="deadline"))
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=2))
    d, _ = sched.select(0.0)
    assert d.nbytes == 8 * KiB


# ------------------------------------------- merge index vs the old scan
class ScanNoopScheduler(Scheduler):
    """The scan-based noop elevator before the merge index, verbatim."""

    def __init__(self, config: SchedulerConfig) -> None:
        super().__init__(config)
        self._queue = deque()

    def add(self, req: BlockRequest) -> None:
        self._queue.append(req)
        self._pending += 1

    def select(self, now: float):
        if not self._queue:
            return None, None
        dispatch = Dispatch(self._queue.popleft())
        # Greedily absorb queued requests contiguous with the dispatch.
        merged = True
        limit = self.config.max_merge_bytes
        window = self.config.merge_window
        while merged and self._queue:
            merged = False
            for req in list(self._queue):
                if not dispatch.within_merge_window(req, window):
                    continue
                if dispatch.can_back_merge(req, limit):
                    self._queue.remove(req)
                    dispatch.back_merge(req)
                    merged = True
                elif dispatch.can_front_merge(req, limit):
                    self._queue.remove(req)
                    dispatch.front_merge(req)
                    merged = True
        self._pending -= len(dispatch.members)
        return dispatch, None


class ScanDeadlineScheduler(Scheduler):
    """The scan-based deadline elevator before the merge index, verbatim."""

    def __init__(self, config: SchedulerConfig, max_age: float = 0.5) -> None:
        super().__init__(config)
        self.max_age = max_age
        self._sorted = []
        self._fifo = deque()
        self._position = 0

    def add(self, req: BlockRequest) -> None:
        # Insertion sort keyed by LBN; queues are short in practice.
        idx = len(self._sorted)
        for i, other in enumerate(self._sorted):
            if req.lbn < other.lbn:
                idx = i
                break
        self._sorted.insert(idx, req)
        self._fifo.append(req)
        self._pending += 1

    def _take(self, req: BlockRequest) -> None:
        self._sorted.remove(req)
        self._fifo.remove(req)

    def select(self, now: float):
        if not self._sorted:
            return None, None
        if self._fifo and now - self._fifo[0].submit_time > self.max_age:
            first = self._fifo[0]
        else:
            first = None
            for req in self._sorted:
                if req.lbn >= self._position:
                    first = req
                    break
            if first is None:  # wrap (C-LOOK)
                first = self._sorted[0]
        self._take(first)
        dispatch = Dispatch(first)
        limit = self.config.max_merge_bytes
        window = self.config.merge_window
        merged = True
        while merged:
            merged = False
            for req in list(self._sorted):
                if not dispatch.within_merge_window(req, window):
                    continue
                if dispatch.can_back_merge(req, limit):
                    self._take(req)
                    dispatch.back_merge(req)
                    merged = True
                elif dispatch.can_front_merge(req, limit):
                    self._take(req)
                    dispatch.front_merge(req)
                    merged = True
        self._position = dispatch.end
        self._pending -= len(dispatch.members)
        return dispatch, None


UNIT = 4 * KiB
MERGE_LIMIT = 16 * KiB
WINDOW = 0.002


def random_requests(rng, env, now):
    """A burst of requests: lone ones, contiguous chains in either
    direction, duplicate LBNs and sizes up to the merge limit."""
    op = rng.choice((Op.READ, Op.WRITE))
    shape = rng.randrange(4)
    base = rng.randrange(32) * UNIT
    if shape == 0:  # one request, sometimes exactly the merge limit
        sizes = [rng.choice((UNIT, 2 * UNIT, MERGE_LIMIT))]
        lbns = [base]
    else:
        sizes = [rng.choice((UNIT, UNIT, 2 * UNIT, MERGE_LIMIT))
                 for _ in range(rng.randint(2, 6))]
        lbns, at = [], base
        for size in sizes:
            lbns.append(at)
            at += size
        if shape == 2:  # descending chain: front merges
            lbns.reverse()
            sizes.reverse()
        elif shape == 3:  # shuffled chain, mixed ops
            order = list(zip(lbns, sizes))
            rng.shuffle(order)
            lbns, sizes = [o[0] for o in order], [o[1] for o in order]
    reqs = []
    for lbn, size in zip(lbns, sizes):
        req_op = op if shape != 3 else rng.choice((Op.READ, Op.WRITE))
        req = BlockRequest(env, req_op, lbn, size)
        # Spread submit times so some pairs straddle the merge window.
        req.submit_time = now - rng.choice((0.0, 0.0005, WINDOW * 0.9,
                                            WINDOW, WINDOW * 1.1, 0.004))
        reqs.append(req)
    return reqs


def assert_index_mirrors_queue(sched):
    queued = sched._queue if isinstance(sched, NoopScheduler) else sched._sorted
    assert sched._index.starts == Counter((r.op, r.lbn) for r in queued)
    assert sched._index.ends == Counter((r.op, r.end) for r in queued)


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("kind", ["noop", "deadline"])
def test_merge_index_matches_scan(kind, seed):
    rng = random.Random(seed)
    env = Environment()
    cfg = SchedulerConfig(kind=kind, max_merge_bytes=MERGE_LIMIT,
                          merge_window=WINDOW)
    if kind == "noop":
        new, old = NoopScheduler(cfg), ScanNoopScheduler(cfg)
    else:
        new = DeadlineScheduler(cfg, max_age=0.003)
        old = ScanDeadlineScheduler(cfg, max_age=0.003)
    now = 0.0
    for _ in range(120):
        now += rng.choice((0.0, 0.0002, 0.001, 0.0025))
        if rng.random() < 0.55:
            for req in random_requests(rng, env, now):
                new.add(req)
                old.add(req)
        else:
            got, _ = new.select(now)
            want, _ = old.select(now)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.lbn, got.nbytes, [m.id for m in got.members]) == \
                    (want.lbn, want.nbytes, [m.id for m in want.members])
        assert len(new) == len(old)
        assert_index_mirrors_queue(new)
    while len(old):
        got, _ = new.select(now)
        want, _ = old.select(now)
        assert (got.lbn, got.nbytes, [m.id for m in got.members]) == \
            (want.lbn, want.nbytes, [m.id for m in want.members])
    assert len(new) == 0 and new.select(now) == (None, None)


# ---------------------------------------------------------------- CFQ
def cfq(quantum=4, idle=0.0005):
    return CFQScheduler(SchedulerConfig(kind="cfq", quantum=quantum,
                                        idle_window=idle))


def test_cfq_serves_single_stream_in_lbn_order():
    env = Environment()
    sched = cfq()
    reqs = [mkreq(env, lbn=lbn, stream=1)
            for lbn in (100 * KiB, 8 * KiB, 300 * KiB)]
    for r in reqs:
        sched.add(r)
    order = []
    while not sched.empty:
        d, _ = sched.select(0.0)
        order.append(d.lbn)
    assert order == sorted(order)


def test_cfq_merges_within_stream():
    env = Environment()
    sched = cfq()
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=1))
    d, _ = sched.select(0.0)
    assert d.nbytes == 8 * KiB


def test_cfq_global_merge_across_streams_by_default():
    """Linux elevator semantics: insert-time merging is process-blind."""
    env = Environment()
    sched = cfq()
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=2))
    d, _ = sched.select(0.0)
    assert d.nbytes == 8 * KiB
    assert sched.insert_merges == 1


def test_cfq_per_stream_merge_only_when_global_disabled():
    """Ablation: restricting merges to a stream isolates the paper's
    cross-process merge-failure effect."""
    env = Environment()
    sched = CFQScheduler(SchedulerConfig(kind="cfq", global_merge=False))
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=2))
    d, _ = sched.select(0.0)
    assert d.nbytes == 4 * KiB


def test_cfq_no_merge_once_partner_dispatched():
    """The timing race: a late-arriving contiguous request cannot merge
    with a partner that has already been dispatched."""
    env = Environment()
    sched = cfq(idle=0.0)
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    d1, _ = sched.select(0.0)
    assert d1.nbytes == 4 * KiB
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=2))
    d2, _ = sched.select(0.0)
    assert d2.nbytes == 4 * KiB


def test_cfq_round_robin_with_quantum():
    env = Environment()
    sched = cfq(quantum=2, idle=0.0)
    for i in range(4):
        sched.add(mkreq(env, lbn=i * 100 * KiB, stream=1))
    for i in range(4):
        sched.add(mkreq(env, lbn=(10 + i) * 100 * KiB, stream=2))
    streams = []
    while not sched.empty:
        d, _ = sched.select(0.0)
        streams.append(d.members[0].stream)
    assert streams == [1, 1, 2, 2, 1, 1, 2, 2]


def test_cfq_idles_for_active_stream():
    env = Environment()
    sched = cfq(idle=0.001)
    sched.add(mkreq(env, lbn=0, stream=1))
    d, _ = sched.select(0.0)
    assert d is not None
    # Stream 1 drained; another stream waits, but CFQ idles first.
    sched.add(mkreq(env, lbn=100 * KiB, stream=2))
    d, hint = sched.select(0.0)
    assert d is None
    assert hint == pytest.approx(0.001)
    # After the window expires, stream 2 is served.
    d, _ = sched.select(0.002)
    assert d.members[0].stream == 2


def test_cfq_idle_cancelled_by_anticipated_arrival():
    env = Environment()
    sched = cfq(idle=0.001)
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    sched.select(0.0)
    sched.add(mkreq(env, lbn=100 * KiB, stream=2))
    d, hint = sched.select(0.0)
    assert d is None  # idling for stream 1
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=1))
    d, _ = sched.select(0.0005)
    assert d is not None and d.members[0].stream == 1


def test_cfq_zero_idle_window_never_waits():
    env = Environment()
    sched = cfq(idle=0.0)
    sched.add(mkreq(env, lbn=0, stream=1))
    sched.select(0.0)
    sched.add(mkreq(env, lbn=100 * KiB, stream=2))
    d, hint = sched.select(0.0)
    assert d is not None


def test_cfq_pending_count_tracks_merges():
    env = Environment()
    sched = cfq()
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=1))
    assert len(sched) == 2
    sched.select(0.0)
    assert len(sched) == 0
