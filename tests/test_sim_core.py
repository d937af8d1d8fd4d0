"""Unit tests for the discrete-event engine core."""

import collections
import heapq
import random
import sys
from heapq import heappop, heappush
from types import MethodType
from typing import Any, Optional

import pytest

from repro.errors import SimulationError
from repro.sim import Chain, Environment, Event, Process, Timeout, core
from repro.sim.core import _CANCELLED, _DONE, ProcessGenerator
from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(1.5)
        log.append(env.now)
        yield env.timeout(0.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [1.5, 2.0]


def test_timeout_value_passed_back():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return 42

    p = env.process(proc(env))
    assert env.run(until=p) == 42
    assert env.now == 2.0


def test_event_succeed_once_only():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_to_process():
    env = Environment()
    ev = env.event()
    caught = []

    def proc(env):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    ev.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_raises_from_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError):
        env.run()


def test_process_exception_fails_process_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise KeyError("inner")

    p = env.process(proc(env))
    with pytest.raises(KeyError):
        env.run(until=p)


def test_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "a", 1.0))
    env.process(proc(env, "b", 1.0))  # same time: creation order wins
    env.process(proc(env, "c", 0.5))
    env.run()
    assert order == ["c", "a", "b"]


def test_waiting_on_another_process():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(2.0)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        log.append((env.now, result))

    env.process(parent(env))
    env.run()
    assert log == [(2.0, "done")]


def test_all_of_waits_for_all():
    env = Environment()
    times = []

    def proc(env):
        t1, t2 = env.timeout(1.0, "x"), env.timeout(3.0, "y")
        result = yield env.all_of([t1, t2])
        times.append(env.now)
        assert set(result.values()) == {"x", "y"}

    env.process(proc(env))
    env.run()
    assert times == [3.0]


def test_any_of_fires_on_first():
    env = Environment()
    times = []

    def proc(env):
        yield env.any_of([env.timeout(5.0), env.timeout(1.0)])
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.0]


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run(until=p)


def test_peek_and_step():
    env = Environment()
    env.timeout(2.0)
    env.step()
    assert env.now == 2.0
    with pytest.raises(SimulationError):
        env.step()


def test_event_value_before_trigger_is_error():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_callback_after_processed_runs_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("v")
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_run_until_past_time_is_error():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


# -- determinism regressions ------------------------------------------
# The engine's hot paths (inlined heap pushes, bare-slot bootstrap
# events, the run()-loop fast path) must never change the schedule: the
# heap entry layout is (time, priority, seq, event) with a monotone seq
# tie-break, and every fast path consumes seq numbers exactly like the
# straightforward implementation it replaced.

def _mixed_workload(env, log):
    """Processes, timeouts and events with many ties."""

    def worker(env, ident):
        for step in range(4):
            yield env.timeout(0.5 * (ident % 3))
            log.append((env.now, ident, step))

    return [env.process(worker(env, i)) for i in range(6)]


def test_schedule_snapshot_is_reproducible():
    """Same program -> identical queue snapshots, run after run."""
    snaps = []
    for _ in range(2):
        env = Environment()
        log = []

        def waiter(env, p):
            yield p

        for p in _mixed_workload(env, log):
            env.process(waiter(env, p))
        # Snapshot mid-run: advance a few events, snapshot, finish.
        for _ in range(5):
            env.step()
        snaps.append((env.queue_snapshot(), tuple(log)))
        env.run()
        snaps.append(tuple(log))
    assert snaps[0] == snaps[2]
    assert snaps[1] == snaps[3]


def test_queue_snapshot_limit_is_a_prefix():
    """queue_snapshot(limit=k) == queue_snapshot()[:k] (nsmallest path)."""
    env = Environment()
    # Scrambled deadlines with deliberate ties: the seq tie-break must
    # order them identically through both the sorted() and nsmallest()
    # paths.
    for i in range(50):
        env.timeout(float((i * 7) % 11))
    full = env.queue_snapshot()
    assert len(full) == 50
    for k in (0, 1, 7, 50, 99):
        assert env.queue_snapshot(limit=k) == full[:k]


def test_queue_snapshot_spans_the_heap_and_both_lanes():
    """At one instant, entries pushed earlier wait in the heap and
    entries pushed now in both same-time lanes; the snapshot (whole and
    by prefix) and the dispatch both follow ``(time, priority, seq)``
    across the three."""
    env = Environment()
    fired = []

    def note(label):
        return lambda _ev: fired.append(label)

    def proc(env, label):
        fired.append(label)
        yield env.timeout(0.5)

    for i in range(3):
        env.timeout(1.0).callbacks.append(note(f"heap{i}"))  # seq 1-3
    env.step()
    assert env.now == 1.0 and fired == ["heap0"]
    env.process(proc(env, "start-a"))  # urgent lane, seq 4
    ev = env.event()
    ev.callbacks.append(note("succeed"))
    ev.succeed()  # normal lane, seq 5
    env.timeout(0).callbacks.append(note("timeout0"))  # normal lane, seq 6
    env.timeout(0.5).callbacks.append(note("later"))  # heap, seq 7
    env.process(proc(env, "start-b"))  # urgent lane, seq 8
    assert env._queue and env._urgent and env._normal
    full = env.queue_snapshot()
    # The process starts are bare entries, labelled by process name.
    assert full == [(1.0, 0, 4, "proc"), (1.0, 0, 8, "proc"),
                    (1.0, 1, 2, "Timeout"), (1.0, 1, 3, "Timeout"),
                    (1.0, 1, 5, "Event"), (1.0, 1, 6, "Timeout"),
                    (1.5, 1, 7, "Timeout")]
    for k in range(len(full) + 2):
        assert env.queue_snapshot(limit=k) == full[:k]
    env.run()
    assert fired == ["heap0", "start-a", "start-b", "heap1", "heap2",
                     "succeed", "timeout0", "later"]


def test_seq_numbers_are_consumed_per_scheduling():
    """Spawn/succeed/timeout each consume exactly one seq number."""
    env = Environment()
    env.timeout(1.0)
    before = env.queue_snapshot()
    assert [s for (_, _, s, _) in before] == [1]

    def proc(env):
        yield env.timeout(2.0)

    env.process(proc(env))  # bootstrap event: seq 2
    ev = env.event()
    ev.succeed("x")  # seq 3
    after = env.queue_snapshot()
    assert [s for (_, _, s, _) in after] == [2, 3, 1]  # urgent first at t=0
    env.run()


def test_yielding_a_processed_event_many_times_does_not_recurse():
    """Each re-yield of a processed event resumes on the spot; that is
    a loop, so the count is not bounded by the recursion limit."""
    env = Environment()
    ev = env.event()
    ev.succeed(1)

    def again(env):
        total = 0
        for _ in range(5000):
            total += yield ev
        return total

    p = env.process(again(env))
    assert env.run(until=p) == 5000


# -- spawned processes and cancelled timeouts ---------------------------
# Both elisions drop heap work nobody observes, and both still consume
# the seq number the straightforward scheduling would have used.

def _finish_at_one(env, start):
    def body(env):
        yield env.timeout(1.0)
        return "x"

    p = start(body(env))
    env.timeout(5.0)  # seq 2: something to keep after the process ends
    env.step()  # bootstrap: the body schedules its timeout (seq 3)
    env.step()  # t=1: the body returns
    return p


def test_spawned_completion_is_not_pushed_but_consumes_seq():
    env_p = Environment()
    proc = _finish_at_one(env_p, env_p.process)
    env_s = Environment()
    spawned = _finish_at_one(env_s, env_s.spawn)
    assert env_p.queue_snapshot() == [(1.0, 1, 4, "body"),
                                      (5.0, 1, 2, "Timeout")]
    assert env_s.queue_snapshot() == [(5.0, 1, 2, "Timeout")]
    assert env_s._seq == env_p._seq == 4
    assert spawned.processed and spawned.value == "x"
    env_p.run()
    env_s.run()
    assert proc.value == spawned.value == "x"
    assert env_p.now == env_s.now == 5.0


def test_spawned_process_with_a_waiter_completes_normally():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        return 7

    p = env.spawn(child(env))

    def parent(env):
        value = yield p
        return (env.now, value)

    assert env.run(until=env.process(parent(env))) == (1.0, 7)


def test_spawn_starts_through_process(monkeypatch):
    """Tools that wrap ``Environment.process(env, generator, name)``
    (perfbench's layer tracer) must see spawned processes too."""
    seen = []
    orig = Environment.process

    def shim(env, generator, name=None):
        seen.append(name)
        return orig(env, generator, name)

    monkeypatch.setattr(Environment, "process", shim)
    env = Environment()

    def body(env):
        yield env.timeout(1.0)

    env.spawn(body(env), "job")
    env.run()
    assert seen == ["job"]


def test_failing_spawned_process_raises_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.spawn(bad(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_cancelled_timeout_never_fires_and_keeps_its_seq():
    env = Environment()
    fired = []
    t = env.timeout(2.0)
    t.callbacks.append(lambda ev: fired.append(env.now))
    env.timeout(1.0)
    env.cancel(t)
    env.step()
    # Never dispatched, never snapshotted, and skipped without moving
    # the clock.
    assert env.queue_snapshot() == []
    env.run()
    assert fired == [] and env.now == 1.0
    assert env._seq == 2
    with pytest.raises(SimulationError):
        env.step()


def test_cancel_after_fire_is_a_no_op_and_waiting_on_cancelled_is_error():
    env = Environment()
    t = env.timeout(1.0)
    env.run()
    env.cancel(t)
    assert t.processed
    u = env.timeout(1.0)
    env.cancel(u)
    env.cancel(u)  # idempotent

    def waiter(env):
        yield u

    env.process(waiter(env))
    with pytest.raises(SimulationError, match="cancelled"):
        env.run()
    with pytest.raises(SimulationError):
        env.cancel(env.event())


def _cancel_program(env, rng, log, cancel):
    """Processes racing timeouts with ties; half the losers are
    withdrawn with ``cancel`` (or left to fire as no-ops)."""

    def racer(env, ident):
        for step in range(6):
            a = env.timeout(rng.choice((0.5, 1.0, 1.5)))
            b = env.timeout(rng.choice((0.5, 1.0, 2.0, 3.0)))
            fired = yield env.any_of([a, b])
            log.append((env.now, ident, step, a in fired))
            loser = b if a in fired else a
            if rng.random() < 0.5 and not loser.processed:
                cancel(loser)

    for i in range(5):
        env.process(racer(env, i))


@pytest.mark.parametrize("seed", range(20))
def test_cancel_keeps_the_schedule_of_every_other_event(seed):
    """Differential: cancelling dead timeouts changes nothing else.

    The same seeded program runs with the losers cancelled (driven by
    ``run()`` and by ``step()``) and with them left in the heap to pop
    as no-ops.  All three must log the same resumes at the same times
    and consume the same seq numbers.
    """
    def go(drive, cancelling):
        env = Environment()
        log = []
        _cancel_program(env, random.Random(seed), log,
                        env.cancel if cancelling else (lambda ev: None))
        drive(env)
        return log, env._seq

    def by_steps(env):
        while True:
            try:
                env.step()
            except SimulationError:
                return

    reference = go(lambda env: env.run(), cancelling=False)
    assert go(lambda env: env.run(), cancelling=True) == reference
    assert go(by_steps, cancelling=True) == reference
    assert len(reference[0]) == 30


class _Ticker(Chain):
    """Test chain: two waits on timeouts, a log entry per step."""

    __slots__ = ("log", "fail_at")

    def __init__(self, env, log, fail_at=None):
        self.env = env
        self.log = log
        self.fail_at = fail_at
        self._start(self._first)

    def _first(self, _event):
        self.log.append(("first", self.env.now))
        self.env.timeout(1.0).callbacks.append(self._second)

    def _second(self, _event):
        self.log.append(("second", self.env.now))
        if self.fail_at == "second":
            raise ValueError("chain step failed")
        self._end()


def _ticker_body(env, log):
    """The generator :class:`_Ticker` stands for."""
    log.append(("first", env.now))
    yield env.timeout(1.0)
    log.append(("second", env.now))


def _pending(env):
    """Every pending entry, heap and both same-time lanes, in firing
    order (seqs are unique, so no two entries compare equal)."""
    return sorted([*env._queue, *env._urgent, *env._normal])


def test_chain_bootstrap_entry_equals_a_spawned_process():
    """A process start and a chain start are the same bare entry: the
    urgent lane at ``(now, URGENT, seq)``, holding the bound first step
    (the process's cached resume, the chain's first step method)."""
    env_p, env_c = Environment(), Environment()
    env_p.timeout(0.5)
    env_c.timeout(0.5)
    proc = env_p.spawn(_ticker_body(env_p, []))
    ticker = _Ticker(env_c, [])
    (tp, prio_p, seq_p, init_p), = [e for e in _pending(env_p) if e[2] == 2]
    (tc, prio_c, seq_c, init_c), = [e for e in _pending(env_c) if e[2] == 2]
    assert (tp, prio_p, seq_p) == (tc, prio_c, seq_c) == (0.0, 0, 2)
    assert type(init_p) is type(init_c) is MethodType
    assert init_p == proc._resume_cb and init_p.__self__ is proc
    assert init_c == ticker._first and init_c.__self__ is ticker
    assert list(env_p._urgent) == [(0.0, 0, 2, init_p)]
    assert list(env_c._urgent) == [(0.0, 0, 2, init_c)]


def test_chain_end_consumes_exactly_one_seq():
    """A chain schedules what its generator spawned detached schedules,
    entry for entry, and its end consumes one seq like that spawn's
    unobserved finish."""

    def trace(start):
        env = Environment()
        log, popped = [], []
        start(env, log)
        env.timeout(3.0)
        while _pending(env):
            popped.append(_pending(env)[0][:3])
            env.step()
        return log, popped, env._seq

    gen = trace(lambda env, log: env.spawn(_ticker_body(env, log)))
    chain = trace(_Ticker)
    assert chain == gen
    assert chain[0] == [("first", 0.0), ("second", 1.0)]
    # bootstrap, timeout, the later timeout, and the end's seq.
    assert chain[2] == 4


def test_exception_in_a_chain_step_surfaces_from_run():
    env = Environment()
    log = []
    _Ticker(env, log, fail_at="second")
    with pytest.raises(ValueError, match="chain step failed"):
        env.run()
    assert log == [("first", 0.0), ("second", 1.0)]
    assert env.now == 1.0


# -- bare step entries ---------------------------------------------------

class _Steps:
    """Bound steps that log ``(name, now, event)`` when dispatched."""

    def __init__(self, env):
        self.env = env
        self.log = []

    def a(self, event):
        self.log.append(("a", self.env.now, event))

    def b(self, event):
        self.log.append(("b", self.env.now, event))

    def boom(self, _event):
        raise ValueError("step failed")


def test_step_dispatches_a_bare_entry():
    env = Environment()
    steps = _Steps(env)
    core._schedule(env, steps.a, 2.0)  # heap, seq 1
    core._schedule(env, steps.b)  # urgent lane, seq 2
    env.step()
    assert steps.log == [("b", 0.0, _DONE)]
    env.step()
    assert steps.log[-1] == ("a", 2.0, _DONE) and env.now == 2.0
    assert _DONE.processed and _DONE.ok and _DONE.value is None
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_a_time_dispatches_bare_entries_up_to_it():
    env = Environment()
    steps = _Steps(env)
    core._schedule(env, steps.a, 1.0)
    core._schedule(env, steps.b, 3.0)
    core._schedule(env, steps.b, 0)  # normal lane, now
    env.run(until=2.0)
    assert [(name, t) for name, t, _ in steps.log] == [("b", 0.0), ("a", 1.0)]
    assert env.now == 2.0
    env.run()
    assert steps.log[-1][:2] == ("b", 3.0)


def test_run_until_an_event_dispatches_bare_entries_before_it():
    env = Environment()
    steps = _Steps(env)
    stop = env.timeout(2.0, value="stop")  # seq 1
    core._schedule(env, steps.a, 2.0)  # seq 2: same time, after the stop
    core._schedule(env, steps.b, 1.0)
    assert env.run(until=stop) == "stop"
    assert [(name, t) for name, t, _ in steps.log] == [("b", 1.0)]
    env.run()
    assert steps.log[-1][:2] == ("a", 2.0)


def test_a_failing_bare_step_surfaces_from_run():
    env = Environment()
    steps = _Steps(env)
    core._schedule(env, steps.boom, 1.0)
    core._schedule(env, steps.a, 2.0)
    with pytest.raises(ValueError, match="step failed"):
        env.run()
    assert env.now == 1.0 and steps.log == []
    env.run()  # the rest of the queue is intact
    assert steps.log == [("a", 2.0, _DONE)]


def test_negative_bare_delay_is_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        core._schedule(env, _Steps(env).a, -1.0)
    assert env._seq == 1 and not env._queue


def test_queue_snapshot_labels_bare_entries_by_step_or_process():
    env = Environment()
    steps = _Steps(env)

    def worker(env):
        yield env.timeout(1.0)

    core._schedule(env, steps.a, 1.0)
    env.process(worker(env), name="w0")
    _Ticker(env, [])
    assert env.queue_snapshot() == [
        (0.0, 0, 2, "w0"), (0.0, 0, 3, "_Ticker._first"),
        (1.0, 1, 1, "_Steps.a")]


def test_compaction_keeps_bare_entries():
    env = Environment()
    steps = _Steps(env)
    for i in range(4):
        core._schedule(env, steps.a, 1.0 + i)
    deadlines = [env.timeout(10.0) for _ in range(6)]
    for deadline in deadlines:
        env.cancel(deadline)
    # 6 cancelled > 10 // 2 compacted away; the bare entries stay.
    assert len(env._queue) == 4 and env._cancelled == 0
    assert all(type(entry[3]) is MethodType for entry in env._queue)
    env.run()
    assert [t for _, t, _ in steps.log] == [1.0, 2.0, 3.0, 4.0]


# -- the same-time lanes and compaction against the heap-only engine ---
# The functions between the ``verbatim`` markers are the engine's push
# sites, ``cancel``, ``step`` and ``run`` from before entries due now
# went to FIFO lanes and cancelled timeouts were compacted out of the
# heap, copied unchanged; :data:`HEAP_ONLY` puts them back.  Seeded
# random programs run on both engines, which must dispatch the same
# ``(time, priority, seq)`` stream (cancelled entries are skipped by
# one and compacted away by the other, so only dispatched entries
# count), run the same callbacks in the same order and end on the same
# ``_seq`` and clock.

# ---------------------------------------------------------------- verbatim
def _bootstrap(env: "Environment", callback) -> None:
    """Schedule ``callback`` on the next scheduler pass at the current
    time: the entry that starts every process and every chain.

    The event is a bare slot-filled :class:`Event` — it exists only to
    carry one callback through the heap once, so skipping the
    constructor saves a call frame per start.  A pool was considered
    and rejected: resetting a pooled event costs the same writes as
    building a fresh one, and eager (push-free) starts would reorder
    schedules.
    """
    init = Event.__new__(Event)
    init.env = env
    init.callbacks = [callback]
    init._value = None
    init._ok = True
    init._triggered = True
    init._processed = False
    init._defused = False
    env._seq = seq = env._seq + 1
    heappush(env._queue, (env._now, PRIORITY_URGENT, seq, init))


class _HeapOnlyChain:
    """``Chain``'s push site, verbatim."""

    def _start(self, step) -> None:
        _bootstrap(self.env, step)


class _HeapOnlyProcess:
    """``Process``'s push site (its start), verbatim."""

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None) -> None:
        # The bound ``send`` is cached: it is called once per resume, so
        # for long-lived processes the one-time allocation replaces a
        # per-resume method lookup.  ``throw`` is NOT cached — it only
        # runs on failure paths, and an extra live bound method per
        # process is measurable GC weight in spawn-heavy workloads.
        try:
            self._send = generator.send
        except AttributeError:
            raise SimulationError(f"{generator!r} is not a generator") from None
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._generator = generator
        self._detached = False
        self.name = name or getattr(generator, "__name__", "process")
        # ``self._resume`` builds a fresh bound method on every access;
        # waiting on an event appends it to the event's callback list,
        # so without this cache every yield allocates one.  The cache
        # is a process <-> bound-method cycle; :meth:`_finish` breaks
        # it, so a finished process is freed by reference counting.
        self._resume_cb = resume = self._resume
        _bootstrap(env, resume)


class _HeapOnlyEvent:
    """``Event``'s push sites, verbatim."""

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule this event to fire successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, priority, seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule this event to fire by raising ``exception`` in waiters."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, priority, seq, self))


class _HeapOnlyTimeout:
    """``Timeout``'s push site, verbatim."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now + delay, PRIORITY_NORMAL, seq, self))


class _HeapOnlyEnvironment:
    """``Environment``'s push site, ``cancel``, ``step`` and ``run``,
    verbatim."""

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now.

        Construction is inlined (mirroring ``Timeout.__init__`` slot for
        slot): this factory is the single most-called allocation site in
        the package, and skipping the constructor frame is a measurable
        share of events/sec.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        ev = Timeout.__new__(Timeout)
        ev.env = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._triggered = True
        ev._processed = False
        ev._defused = False
        ev.delay = delay
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now + delay, PRIORITY_NORMAL, seq, ev))
        return ev

    def cancel(self, timeout: Timeout) -> None:
        """Withdraw a pending timeout: it will never fire (a no-op once
        it has fired).

        Its callbacks are dropped, so whatever waited on it is no longer
        kept alive by it; waiting on it afterwards raises
        :class:`SimulationError`.  The heap entry stays where it is and
        the dispatch loops skip it without advancing the clock.
        """
        if not isinstance(timeout, Timeout):
            raise SimulationError(f"cannot cancel {timeout!r}: not a timeout")
        if timeout.callbacks is not None:
            timeout.callbacks = _CANCELLED

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        Cancelled timeouts on the way are skipped, not counted.
        """
        queue = self._queue
        while True:
            if not queue:
                raise SimulationError("step() on an empty event queue")
            when, _prio, _seq, event = heappop(queue)
            callbacks = event.callbacks
            if callbacks is not _CANCELLED:
                break
        self._now = when
        event.callbacks = None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # Nobody handled the failure: surface it to the caller of run().
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a time (run until
        the clock reaches it), or an :class:`Event` (run until it fires,
        returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} is in the past (now={self._now})")

        # The dispatch loop is the single hottest code in the package;
        # it is inlined here (rather than calling step()) with the queue
        # and heappop bound to locals.  Semantics match step() exactly.
        queue = self._queue
        pop = heappop
        cancelled = _CANCELLED
        if stop_event is None and stop_time == float("inf"):
            # Run-to-exhaustion fast path: no stop checks per event.
            while queue:
                when, _prio, _seq, event = pop(queue)
                callbacks = event.callbacks
                if callbacks is cancelled:
                    continue
                self._now = when
                event.callbacks = None
                event._processed = True
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            return None

        while queue:
            if stop_event is not None and stop_event._processed:
                break
            if queue[0][0] > stop_time:
                self._now = stop_time
                return None
            when, _prio, _seq, event = pop(queue)
            callbacks = event.callbacks
            if callbacks is cancelled:
                continue
            self._now = when
            event.callbacks = None
            event._processed = True
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                raise event._value

        if stop_event is not None:
            if not stop_event._processed:
                raise SimulationError("run() ran out of events before `until` fired")
            if not stop_event._ok:
                raise stop_event._value  # type: ignore[misc]
            return stop_event._value
        if until is not None and stop_time != float("inf"):
            self._now = stop_time
        return None

# ------------------------------------------------------------ /verbatim


def _heap_only_after(self, delay, step) -> None:
    """What a chain's private timer was before bare entries: a timeout
    with the step as its one callback (``Chain._after`` is new, so
    there is no verbatim copy)."""
    self.env.timeout(delay).callbacks.append(step)


HEAP_ONLY = (
    (Chain, "_start", _HeapOnlyChain._start),
    (Chain, "_after", _heap_only_after),
    (Process, "__init__", _HeapOnlyProcess.__init__),
    (Event, "succeed", _HeapOnlyEvent.succeed),
    (Event, "fail", _HeapOnlyEvent.fail),
    (Timeout, "__init__", _HeapOnlyTimeout.__init__),
    (Environment, "timeout", _HeapOnlyEnvironment.timeout),
    (Environment, "cancel", _HeapOnlyEnvironment.cancel),
    (Environment, "step", _HeapOnlyEnvironment.step),
    (Environment, "run", _HeapOnlyEnvironment.run),
)


def _is_cancelled(entry) -> bool:
    """A cancelled timeout's entry (a bare step entry never is one)."""
    event = entry[3]
    return isinstance(event, Event) and event.callbacks is _CANCELLED


def _dispatch(monkeypatch, program, heap_only, patches=()):
    """Run ``program(env)`` on one engine: its result, the dispatched
    ``(time, priority, seq)`` stream, the final ``_seq`` and clock, and
    the number of heap compactions."""
    popped = []
    compactions = []

    def pop(heap):
        entry = heapq.heappop(heap)
        if not _is_cancelled(entry):
            popped.append(entry[:3])
        return entry

    class Lane(collections.deque):
        def popleft(self):
            entry = super().popleft()
            if not _is_cancelled(entry):
                popped.append(entry[:3])
            return entry

    def heapify(heap):
        compactions.append(len(heap))
        heapq.heapify(heap)

    with monkeypatch.context() as m:
        if heap_only:
            for owner, name, fn in HEAP_ONLY:
                m.setattr(owner, name, fn)
            m.setattr(sys.modules[__name__], "heappop", pop)
        else:
            m.setattr(core, "heappop", pop)
            m.setattr(core, "deque", Lane)
            m.setattr(core, "heapify", heapify)
        for owner, name, fn in patches:
            m.setattr(owner, name, fn)
        env = Environment()
        result = program(env)
    assert not env._urgent and not env._normal
    return (result, popped, env._seq, env.now), len(compactions)


DELAYS = (0, 0, 0.5, 1.0, 1.0, 2.5)


class _Deadline(Chain):
    """Test chain: a reply raced against a far deadline, which is
    cancelled when the reply wins (the client round trip's pattern)."""

    __slots__ = ("log", "ident", "delay", "deadline")

    def __init__(self, env, log, ident, delay):
        self.env = env
        self.log = log
        self.ident = ident
        self.delay = delay
        self._start(self._send)

    def _send(self, _event):
        env = self.env
        self.deadline = env.timeout(50.0)
        reply = env.timeout(self.delay)
        env.any_of([reply, self.deadline]).callbacks.append(self._reply)

    def _reply(self, event):
        won = self.deadline not in event.value
        self.env.cancel(self.deadline)
        self.deadline = None
        self.log.append(("reply", self.ident, self.env.now, won))
        self._end()


class _Napper(Chain):
    """Test chain: two private timers (bare entries), then its end."""

    __slots__ = ("log", "ident", "delays")

    def __init__(self, env, log, ident, delays):
        self.env = env
        self.log = log
        self.ident = ident
        self.delays = delays
        self._start(self._nap)

    def _nap(self, event):
        assert event.processed and event.ok and event.value is None
        if self.delays:
            self._after(self.delays.pop(), self._nap)
            return
        self.log.append(("napped", self.ident, self.env.now))
        self._end()


def _random_program(env, rng, log):
    """Workers drawing one scheduling path per step, sleepers, and
    clients firing deadline chains."""
    signals = [env.event() for _ in range(3)]

    def sleeper(ident):
        yield env.timeout(rng.choice(DELAYS))
        yield Timeout(env, rng.choice(DELAYS))
        log.append(("slept", ident, env.now))
        return ident

    def client(ident):
        for n in range(rng.randint(20, 40)):
            _Deadline(env, log, (ident, n),
                      rng.choice((0, 0.5, 0.5, 1.0, 1.0, 60.0)))
            _Napper(env, log, (ident, n), [rng.choice(DELAYS),
                                           rng.choice(DELAYS)])
            yield env.timeout(rng.choice((0, 0.5)))

    def worker(ident):
        for step in range(rng.randint(3, 8)):
            kind = rng.randrange(8)
            value = None
            try:
                if kind == 0:
                    value = yield env.timeout(rng.choice(DELAYS), value=step)
                elif kind == 1:
                    a = env.timeout(rng.choice(DELAYS))
                    b = Timeout(env, rng.choice(DELAYS))
                    fired = yield env.any_of([a, b])
                    loser = b if a in fired else a
                    if not loser.processed:
                        env.cancel(loser)
                    value = a in fired
                elif kind == 2:
                    members = [env.timeout(rng.choice(DELAYS))
                               for _ in range(rng.randint(1, 3))]
                    value = len((yield env.all_of(members)))
                elif kind == 3:
                    ev = env.event()
                    if rng.random() < 0.5:
                        ev.succeed(step)
                    else:
                        ev.fail(ValueError(step))
                    value = yield ev
                elif kind == 4:
                    i = rng.randrange(len(signals))
                    signals[i].succeed(ident)
                    signals[i] = env.event()
                elif kind == 5:
                    i = rng.randrange(len(signals))
                    fired = yield env.any_of(
                        [signals[i], env.timeout(rng.choice(DELAYS))])
                    value = sorted(map(str, fired.values()))
                elif kind == 6:
                    child = env.process(sleeper((ident, step)))
                    if rng.random() < 0.5:
                        value = yield child
                else:
                    env.spawn(client((ident, step)))
            except ValueError as exc:
                value = ("failed", exc.args)
            log.append((env.now, ident, step, kind, value))
        return ident

    workers = [env.process(worker(i)) for i in range(rng.randint(3, 7))]
    env.spawn(client("main"))
    return workers


def _drive(env, rng, targets):
    """Drive with a random mix of ``step()``, ``run(until=time)`` and
    ``run(until=event)``, then ``run()`` to exhaustion."""
    while True:
        how = rng.randrange(5)
        try:
            if how == 0:
                env.step()
            elif how == 1:
                env.run(until=env.now + rng.choice((0, 0.5, 1.0, 3.0)))
            elif how == 2:
                env.run(until=rng.choice(targets))
            elif how == 3:
                env.run(until=env.now + 0.25)
                env.step()
            else:
                env.run()
                return
        except SimulationError:  # step() or until=event on an empty queue
            return


@pytest.mark.parametrize("seed", range(40))
def test_lanes_and_compaction_dispatch_like_the_heap_only_engine(
        monkeypatch, seed):
    def program(env):
        log = []
        targets = _random_program(env, random.Random(seed), log)
        _drive(env, random.Random(seed + 1000), targets)
        return log

    reference, _ = _dispatch(monkeypatch, program, heap_only=True)
    lanes, compactions = _dispatch(monkeypatch, program, heap_only=False)
    assert lanes == reference
    assert len(reference[1]) > 100 and len(reference[0]) > 30
    assert compactions > 0


def test_compaction_keeps_cancelled_entries_at_most_half_the_heap(
        monkeypatch):
    """Right after every ``cancel``, at most half the heap is cancelled
    entries, and the dispatch is the heap-only engine's."""
    cancel = Environment.cancel
    sizes = []

    def checked(env, timeout):
        cancel(env, timeout)
        dead = sum(map(_is_cancelled, env._queue))
        assert 2 * dead <= len(env._queue)
        sizes.append(len(env._queue))

    def program(env):
        log = []
        rng = random.Random(5)

        def client(ident):
            for n in range(200):
                _Deadline(env, log, (ident, n), rng.choice((0, 0.5, 1.0)))
                yield env.timeout(rng.choice((0, 0.25)))

        for i in range(4):
            env.spawn(client(i))
        env.run()
        return log

    reference, _ = _dispatch(monkeypatch, program, heap_only=True)
    lanes, compactions = _dispatch(monkeypatch, program, heap_only=False,
                                   patches=[(Environment, "cancel", checked)])
    assert lanes == reference
    assert len(sizes) > 500 and compactions > 10
    # Without compaction the heap would hold every far deadline.
    assert max(sizes) < len(sizes) // 4
