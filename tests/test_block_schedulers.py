"""Unit tests for the Noop, Deadline and CFQ schedulers."""

import random
from collections import Counter, OrderedDict, deque
from typing import Optional

import pytest

from repro.block import (CFQScheduler, DeadlineScheduler, NoopScheduler,
                         Scheduler)
from repro.block.cfq import _StreamQueue
from repro.block.request import BlockRequest, Dispatch
from repro.block.scheduler import SelectResult
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


class ScanCFQScheduler(Scheduler):
    """The scan-based CFQ elevator before the merge index, verbatim."""

    def __init__(self, config: SchedulerConfig) -> None:
        super().__init__(config)
        self._queues: "OrderedDict[int, _StreamQueue]" = OrderedDict()
        self._active: Optional[int] = None
        self._idle_until: Optional[float] = None
        self._position = 0
        self.insert_merges = 0

    # ------------------------------------------------------------- insert
    def add(self, req: BlockRequest) -> None:
        self._pending += 1
        if self._try_insert_merge(req):
            self.insert_merges += 1
            if req.stream == self._active:
                self._idle_until = None
            return
        q = self._queues.get(req.stream)
        if q is None:
            q = _StreamQueue(req.stream)
            self._queues[req.stream] = q
        q.add(Dispatch(req))
        if req.stream == self._active:
            # The anticipated request arrived; cancel the idle window.
            self._idle_until = None

    def _try_insert_merge(self, req: BlockRequest) -> bool:
        """Linux elv_merge: absorb ``req`` into a contiguous queued
        dispatch (any stream when global_merge, else same stream)."""
        limit = self.config.max_merge_bytes
        window = self.config.merge_window
        queues = (self._queues.values() if self.config.global_merge
                  else [q for s, q in self._queues.items() if s == req.stream])
        for q in queues:
            for dispatch in q.dispatches:
                if not dispatch.within_merge_window(req, window):
                    continue
                if dispatch.can_back_merge(req, limit):
                    dispatch.back_merge(req)
                    return True
                if dispatch.can_front_merge(req, limit):
                    dispatch.front_merge(req)
                    # Front merge moves the dispatch's start; re-sort.
                    q.dispatches.remove(dispatch)
                    q.add(dispatch)
                    return True
        return False

    # ------------------------------------------------------------- dispatch
    def _rotate_to_next(self) -> Optional[_StreamQueue]:
        """Advance round-robin to the next non-empty stream queue."""
        if not self._queues:
            return None
        keys = list(self._queues.keys())
        if self._active in self._queues:
            start = keys.index(self._active) + 1
        else:
            start = 0
        order = keys[start:] + keys[:start]
        for key in order:
            q = self._queues[key]
            if q.dispatches:
                q.served_in_slice = 0
                self._active = key
                return q
            del self._queues[key]  # garbage-collect drained streams
        return None

    def select(self, now: float) -> SelectResult:
        if self._pending == 0:
            self._idle_until = None
            return None, None

        active_q = self._queues.get(self._active) if self._active is not None else None

        if active_q is not None and not active_q.dispatches:
            # Active stream is empty: idle briefly for its next request
            # (CFQ anticipation), unless the window already expired.
            if self.config.idle_window > 0:
                if self._idle_until is None:
                    self._idle_until = now + self.config.idle_window
                if now < self._idle_until:
                    return None, self._idle_until
            self._idle_until = None
            active_q = None

        if active_q is not None and active_q.served_in_slice >= self.config.quantum:
            active_q = None  # quantum exhausted, rotate

        if active_q is None:
            active_q = self._rotate_to_next()
            if active_q is None:
                return None, None

        dispatch = active_q.pop_next(self._position)
        active_q.served_in_slice += 1
        limit = self.config.max_merge_bytes
        window = self.config.merge_window

        # Late merge within the active stream: absorb queued dispatches
        # contiguous with the one being issued.
        merged = True
        while merged:
            merged = False
            for other in list(active_q.dispatches):
                if abs(other.born - dispatch.born) > window:
                    continue
                if (dispatch.op is other.op
                        and other.lbn == dispatch.end
                        and dispatch.nbytes + other.nbytes <= limit):
                    active_q.dispatches.remove(other)
                    dispatch.absorb(other)
                    merged = True
                elif (dispatch.op is other.op
                        and other.end == dispatch.lbn
                        and dispatch.nbytes + other.nbytes <= limit):
                    active_q.dispatches.remove(other)
                    dispatch.absorb_front(other)
                    merged = True

        self._pending -= len(dispatch.members)
        self._position = dispatch.end
        self._idle_until = None
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
    if isinstance(sched, CFQScheduler):
        queued = [d for q in sched._queues.values() for d in q.dispatches]
    elif isinstance(sched, NoopScheduler):
        queued = sched._queue
    else:
        queued = sched._sorted
    assert sched._index.starts == Counter((r.op, r.lbn) for r in queued)
    assert sched._index.ends == Counter((r.op, r.end) for r in queued)


def same_result(got, want):
    """Two ``select`` results are the same dispatch (or the same hint)."""
    (d, hint), (w, whint) = got, want
    assert hint == whint and (d is None) == (w is None)
    if d is not None:
        assert (d.op, d.lbn, d.nbytes, [m.id for m in d.members]) == \
            (w.op, w.lbn, w.nbytes, [m.id for m in w.members])


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("kind", ["noop", "deadline", "cfq", "cfq_stream"])
def test_merge_index_matches_scan(kind, seed):
    rng = random.Random(seed)
    env = Environment()
    cfq_kind = kind.startswith("cfq")
    cfg = SchedulerConfig(kind="cfq" if cfq_kind else kind,
                          max_merge_bytes=MERGE_LIMIT, merge_window=WINDOW,
                          global_merge=kind != "cfq_stream", quantum=3)
    if kind == "noop":
        new, old = NoopScheduler(cfg), ScanNoopScheduler(cfg)
    elif kind == "deadline":
        new = DeadlineScheduler(cfg, max_age=0.003)
        old = ScanDeadlineScheduler(cfg, max_age=0.003)
    else:
        new, old = CFQScheduler(cfg), ScanCFQScheduler(cfg)
    now = 0.0
    for _ in range(120):
        now += rng.choice((0.0, 0.0002, 0.001, 0.0025))
        if rng.random() < 0.55:
            for req in random_requests(rng, env, now):
                if cfq_kind:
                    req.stream = rng.randrange(3)
                new.add(req)
                old.add(req)
        else:
            same_result(new.select(now), old.select(now))
        assert len(new) == len(old)
        assert_index_mirrors_queue(new)
    while len(old):
        got, want = new.select(now), old.select(now)
        same_result(got, want)
        assert_index_mirrors_queue(new)
        if got[0] is None:
            # CFQ idling on an empty active stream: wait it out.
            assert got[1] is not None
            now = got[1]
    assert len(new) == 0 and new.select(now) == (None, None)
    if cfq_kind:
        assert new.insert_merges == old.insert_merges


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
