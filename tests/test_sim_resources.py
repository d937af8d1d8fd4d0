"""Unit tests for Resource / Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    env.run()
    assert r1.processed and r2.processed
    assert not r3.triggered
    assert res.count == 2
    assert res.queue_length == 1


def test_resource_release_wakes_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, name, hold):
        req = res.request()
        yield req
        order.append(("got", name, env.now))
        yield env.timeout(hold)
        res.release(req)

    env.process(user(env, "a", 2.0))
    env.process(user(env, "b", 1.0))
    env.run()
    assert order == [("got", "a", 0.0), ("got", "b", 2.0)]


def test_resource_cancel_waiting_request():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    waiting = res.request()
    res.release(waiting)  # cancel from wait queue
    assert res.queue_length == 0
    res.release(held)
    env.run()
    assert res.count == 0


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_release_unknown_request_is_error():
    env = Environment()
    res = Resource(env, capacity=1)
    res.request()
    other = Resource(env, capacity=1).request()
    with pytest.raises(SimulationError):
        res.release(other)


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
