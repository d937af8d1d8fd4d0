"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import SimulationError
from repro.sim import Chain, Environment, Event, Interrupt


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


def test_interrupt_wakes_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(1.0, "wake up")]


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(0.1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


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
    assert env.peek() == 2.0
    env.step()
    assert env.now == 2.0
    assert env.peek() == float("inf")
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
    """Processes, timeouts, events and interrupts with many ties."""

    def worker(env, ident):
        for step in range(4):
            yield env.timeout(0.5 * (ident % 3))
            log.append((env.now, ident, step))

    def poker(env, victim):
        yield env.timeout(1.0)
        if victim.is_alive:
            victim.interrupt("poke")

    workers = [env.process(worker(env, i)) for i in range(6)]
    env.process(poker(env, workers[0]))
    return workers


def test_schedule_snapshot_is_reproducible():
    """Same program -> identical queue snapshots, run after run."""
    snaps = []
    for _ in range(2):
        env = Environment()
        log = []

        def guarded(env, p):
            try:
                yield p
            except Interrupt:
                pass

        for p in _mixed_workload(env, log):
            env.process(guarded(env, p))
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


def test_interrupt_finished_spawned_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(0.1)

    p = env.spawn(quick(env))
    env.run()
    assert not p.is_alive
    with pytest.raises(SimulationError):
        p.interrupt()


def test_cancelled_timeout_never_fires_and_keeps_its_seq():
    env = Environment()
    fired = []
    t = env.timeout(2.0)
    t.callbacks.append(lambda ev: fired.append(env.now))
    env.timeout(1.0)
    env.cancel(t)
    # Still visible to peek (the sharded window schedule reads it) ...
    assert env.peek() == 1.0
    env.step()
    assert env.peek() == 2.0
    # ... but never dispatched, never snapshotted, and skipped without
    # moving the clock.
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
    import random

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


def test_chain_bootstrap_entry_equals_a_spawned_process():
    env_p, env_c = Environment(), Environment()
    env_p.timeout(0.5)
    env_c.timeout(0.5)
    env_p.spawn(_ticker_body(env_p, []))
    _Ticker(env_c, [])
    (tp, prio_p, seq_p, init_p), = [e for e in env_p._queue if e[2] == 2]
    (tc, prio_c, seq_c, init_c), = [e for e in env_c._queue if e[2] == 2]
    assert (tp, prio_p, seq_p) == (tc, prio_c, seq_c) == (0.0, 0, 2)
    assert type(init_p) is type(init_c) is Event
    assert init_p.env is env_p and init_c.env is env_c
    for slot in ("_value", "_ok", "_triggered", "_processed", "_defused"):
        assert getattr(init_p, slot) == getattr(init_c, slot), slot
    assert len(init_p.callbacks) == len(init_c.callbacks) == 1


def test_chain_end_consumes_exactly_one_seq():
    """A chain schedules what its generator spawned detached schedules,
    entry for entry, and its end consumes one seq like that spawn's
    unobserved finish."""

    def trace(start):
        env = Environment()
        log, popped = [], []
        start(env, log)
        env.timeout(3.0)
        while env._queue:
            popped.append(env._queue[0][:3])
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
