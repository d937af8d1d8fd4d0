"""Unit tests for Resource (the grant FIFO) / Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store


class _Holder:
    """Logs each grant of ``res`` as ``(name, time)``."""

    def __init__(self, env, res, name, log):
        self.env, self.res, self.name, self.log = env, res, name, log

    def acquire(self):
        self.res.acquire(self, self.granted)

    def granted(self, _event):
        self.log.append((self.name, self.env.now))


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []
    holders = [_Holder(env, res, name, log) for name in "abc"]
    for holder in holders:
        holder.acquire()
    env.run()
    assert log == [("a", 0.0), ("b", 0.0)]
    assert res.count == 2
    assert res.queue_length == 1
    res.release(holders[0])
    env.run()
    assert log[-1] == ("c", 0.0)
    assert res.count == 2 and res.queue_length == 0


def test_resource_release_wakes_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, name, hold):
        holder = object()
        granted = env.event()
        res.acquire(holder, granted.succeed)
        yield granted
        order.append(("got", name, env.now))
        yield env.timeout(hold)
        res.release(holder)

    env.process(user(env, "a", 2.0))
    env.process(user(env, "b", 1.0))
    env.run()
    assert order == [("got", "a", 0.0), ("got", "b", 2.0)]


def test_grants_follow_request_order():
    """Waiters are granted first come, first served, one per release."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    holders = [_Holder(env, res, i, log) for i in range(5)]
    for holder in holders:
        holder.acquire()
    env.run()
    for t, holder in enumerate(holders, start=1):
        env.run(until=float(t))
        res.release(holder)
    env.run()
    assert log == [(i, float(i)) for i in range(5)]
    assert res.count == 0 and res.queue_length == 0


def test_grant_entry_is_where_request_succeed_pushed():
    """A grant is one normal-lane entry at the grant's instant: at
    acquire time when a slot is free, at release time for a waiter."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    first, second = _Holder(env, res, "a", log), _Holder(env, res, "b", log)
    env.timeout(1.0)  # seq 1
    first.acquire()  # free slot: granted now, seq 2
    assert [entry[:3] for entry in env._normal] == [(0.0, 1, 2)]
    assert env._normal[0][3] == first.granted
    second.acquire()  # queued: no entry, no seq
    assert env._seq == 2 and len(env._normal) == 1
    env.run(until=0.5)
    res.release(first)  # the waiter's grant: seq 3, at the release
    assert [entry[:3] for entry in env._normal] == [(0.5, 1, 3)]
    assert env._normal[0][3] == second.granted
    env.run()
    assert log == [("a", 0.0), ("b", 0.5)]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_release_without_hold_is_error():
    env = Environment()
    res = Resource(env, capacity=1)
    holder = _Holder(env, res, "a", [])
    holder.acquire()
    with pytest.raises(SimulationError, match="holds no slot"):
        res.release(_Holder(env, Resource(env), "other", []))
    res.release(holder)
    with pytest.raises(SimulationError, match="holds no slot"):
        res.release(holder)  # released twice
    assert res.count == 0


def test_release_by_a_waiting_holder_is_error():
    """A queued holder holds nothing: releasing it raises and leaves it
    queued for its grant."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    held, waiting = _Holder(env, res, "a", log), _Holder(env, res, "b", log)
    held.acquire()
    waiting.acquire()
    with pytest.raises(SimulationError):
        res.release(waiting)
    assert res.queue_length == 1
    res.release(held)
    env.run()
    assert log == [("a", 0.0), ("b", 0.0)]
    assert res.count == 1


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    def producer(env):
        for i in range(3):
            yield env.timeout(1.0)
            store.put(i)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [0, 1, 2]


def test_store_get_ready_item_immediately():
    env = Environment()
    store = Store(env)
    store.put("x")
    ev = store.get()
    assert ev.triggered
    env.run()
    assert ev.value == "x"


def test_store_len_and_items():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.items == (1, 2)
