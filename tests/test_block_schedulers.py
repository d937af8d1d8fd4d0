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
    # Each key lists exactly the queued objects there, by identity and
    # with multiplicity, and no key is left with an empty list.
    for lists, key_of in ((sched._index.starts, lambda r: (r.op, r.lbn)),
                          (sched._index.ends, lambda r: (r.op, r.end))):
        want = {}
        for r in queued:
            want.setdefault(key_of(r), Counter())[id(r)] += 1
        assert {key: Counter(map(id, found))
                for key, found in lists.items()} == want


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


# --------------------------------------- CFQ merge lookup vs the scan
def cfq_pair(**overrides):
    """A lookup CFQ and the verbatim scan CFQ on one config."""
    cfg = SchedulerConfig(kind="cfq", **overrides)
    return CFQScheduler(cfg), ScanCFQScheduler(cfg)


def feed(new, old, steps):
    """Feed ``("add", req)`` and ``("select", now)`` steps to both
    schedulers, comparing them after every step."""
    for step, arg in steps:
        if step == "add":
            new.add(arg)
            old.add(arg)
        else:
            same_result(new.select(arg), old.select(arg))
        assert len(new) == len(old)
        assert new.insert_merges == old.insert_merges
        assert_index_mirrors_queue(new)


def drain(new, old, now=0.0):
    """Select from both until empty, comparing every dispatch."""
    while len(old):
        got, want = new.select(now), old.select(now)
        same_result(got, want)
        assert_index_mirrors_queue(new)
        if got[0] is None:
            assert got[1] is not None
            now = got[1]
    assert len(new) == 0


def at(env, t, lbn, nbytes=UNIT, stream=0, op=Op.WRITE):
    req = BlockRequest(env, op, lbn, nbytes, stream=stream)
    req.submit_time = t
    return req


def queued_members(sched):
    return [d.members for q in sched._queues.values() for d in q.dispatches]


def test_cfq_lookup_takes_first_queue_among_two_streams():
    # Streams 2 and 1 both queue a dispatch ending at 8K; stream 2's
    # queue was created first, so the new request merges there.
    env = Environment()
    first, second = at(env, 0.0, UNIT, stream=2), at(env, 0.0, UNIT, stream=1)
    req = at(env, 0.0, 2 * UNIT, stream=0)
    new, old = cfq_pair(idle_window=0.0)
    feed(new, old, [("add", first), ("add", second), ("add", req)])
    assert queued_members(new) == [[first, req], [second]]
    drain(new, old)


def test_cfq_lookup_orders_recreated_queues_by_creation():
    # Stream 0's queue drains and is deleted, then re-created behind
    # stream 1's: the back candidate in stream 1 now comes first.
    env = Environment()
    new, old = cfq_pair(idle_window=0.0, quantum=1)
    in1, in0 = at(env, 0.0, UNIT, stream=1), at(env, 0.0, UNIT, stream=0)
    req = at(env, 0.0, 2 * UNIT, stream=3)
    feed(new, old, [("add", at(env, 0.0, 0, stream=0)),
                    ("add", at(env, 0.0, 64 * KiB, stream=1)),
                    ("add", at(env, 0.0, 128 * KiB, stream=1)),
                    ("select", 0.0),    # stream 0 drains
                    ("select", 0.0),    # stream 1 served
                    ("select", 0.0),    # rotation deletes stream 0's queue
                    ("add", in1), ("add", in0), ("add", req)])
    assert list(new._queues) == [1, 0]
    assert queued_members(new) == [[in1, req], [in0]]
    drain(new, old)


@pytest.mark.parametrize("front_first", [False, True])
def test_cfq_lookup_with_back_and_front_candidates(front_first):
    # The request [8K, 12K) can back-merge into [4K, 8K) and front-merge
    # into [12K, 16K); the earlier queue wins, whichever kind it is.
    env = Environment()
    back, front = at(env, 0.0, UNIT, stream=1), at(env, 0.0, 3 * UNIT, stream=2)
    first, second = (front, back) if front_first else (back, front)
    req = at(env, 0.0, 2 * UNIT, stream=0)
    new, old = cfq_pair(idle_window=0.0)
    feed(new, old, [("add", first), ("add", second), ("add", req)])
    assert queued_members(new) == [[first, req], [second]]
    drain(new, old)


@pytest.mark.parametrize("blocker", ["window", "limit"])
def test_cfq_lookup_falls_through_to_the_next_candidate(blocker):
    # The first back candidate is too old or too big to merge: the
    # request must go to the next one, in a later queue.
    env = Environment()
    if blocker == "window":
        near, far = at(env, 0.0, 0, stream=1), at(env, WINDOW, 0, stream=2)
        req = at(env, 1.5 * WINDOW, UNIT, stream=0)
    else:
        near = at(env, 0.0, 0, MERGE_LIMIT, stream=1)
        far = at(env, 0.0, MERGE_LIMIT - UNIT, stream=2)
        req = at(env, 0.0, MERGE_LIMIT, stream=0)
    new, old = cfq_pair(idle_window=0.0, max_merge_bytes=MERGE_LIMIT,
                        merge_window=WINDOW)
    feed(new, old, [("add", near), ("add", far), ("add", req)])
    assert queued_members(new) == [[near], [far, req]]
    drain(new, old, 1.5 * WINDOW)


def test_cfq_late_merge_takes_candidates_in_pass_order():
    # Fillers grow R, P and D into the chain R-P-D-Q of queued
    # dispatches.  Issuing D absorbs P (front), then Q (back, after P in
    # the queue) in the first pass; R, contiguous only once P is
    # absorbed but before P in the queue, waits for the second pass.
    env = Environment()
    r, p, d, q = (at(env, 0.0, i * UNIT) for i in (0, 2, 4, 6))
    fill = [at(env, 0.0, i * UNIT) for i in (3, 5, 1)]
    new, old = cfq_pair(idle_window=0.0)
    feed(new, old, [("add", at(env, 0.0, 3 * UNIT, op=Op.READ)),
                    ("select", 0.0),   # sweep position now at D
                    ("add", r), ("add", p), ("add", d), ("add", q)]
         + [("add", f) for f in fill])
    assert queued_members(new) == [[r, fill[2]], [p, fill[0]],
                                   [d, fill[1]], [q]]
    issued, _ = new.select(0.0)
    assert issued.members == [d, fill[1], p, fill[0], q, r, fill[2]]
    same_result((issued, None), old.select(0.0))
    drain(new, old)


def test_cfq_writeback_burst_matches_scan_and_visits_only_candidates(monkeypatch):
    # The writeback shape: a long LBN-sorted burst of 64 KiB writes into
    # one stream at the default 512 KiB limit, with dispatches taken
    # while it arrives.  The lookup checks the merge window of at most
    # one candidate per request; the scan checks every queued dispatch.
    env = Environment()
    size = 64 * KiB
    new, old = cfq_pair()
    checks = {new: 0, old: 0}
    counting = []
    window_check = Dispatch.within_merge_window

    def counted(self, req, window):
        if counting:
            checks[counting[0]] += 1
        return window_check(self, req, window)

    monkeypatch.setattr(Dispatch, "within_merge_window", counted)
    for i in range(400):
        req = at(env, 0.0, (1 << 30) + i * size, size, stream=-1)
        for sched in (new, old):
            counting.append(sched)
            sched.add(req)
            counting.clear()
        if i % 37 == 36:
            same_result(new.select(0.0), old.select(0.0))
        assert new.insert_merges == old.insert_merges
        assert_index_mirrors_queue(new)
    drain(new, old)
    assert checks[new] <= 400 < checks[old]
    assert new.insert_merges == old.insert_merges == 400 - 50


def dense_requests(rng, env, now):
    """Requests on an 8-slot LBN grid from four streams: duplicate
    ranges, chains either way, and several contiguous candidates for
    one request, some outside the window or over the limit."""
    reqs = []
    for _ in range(rng.randint(1, 4)):
        req = at(env, now - rng.choice((0.0, 0.0005, WINDOW * 0.9,
                                        WINDOW * 1.1)),
                 rng.randrange(8) * UNIT,
                 rng.choice((UNIT, UNIT, 2 * UNIT, 3 * UNIT)),
                 stream=rng.randrange(4),
                 op=rng.choice((Op.READ, Op.WRITE, Op.WRITE)))
        reqs.append(req)
    return reqs


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("global_merge", [True, False])
def test_cfq_lookup_matches_scan_on_dense_candidates(seed, global_merge):
    rng = random.Random(1000 + seed)
    env = Environment()
    new, old = cfq_pair(max_merge_bytes=MERGE_LIMIT, merge_window=WINDOW,
                        global_merge=global_merge, quantum=2,
                        idle_window=rng.choice((0.0, 0.0005)))
    steps, now = [], 0.0
    for _ in range(150):
        now += rng.choice((0.0, 0.0002, 0.001))
        if rng.random() < 0.6:
            steps.extend(("add", r) for r in dense_requests(rng, env, now))
        else:
            steps.append(("select", now))
    feed(new, old, steps)
    drain(new, old, now)


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
