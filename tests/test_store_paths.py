"""Additional Store edge cases."""

from repro.sim import Environment, Store


def test_store_interleaved_producers_consumers():
    env = Environment()
    store = Store(env)
    consumed = []

    def consumer(env, n):
        for _ in range(n):
            item = yield store.get()
            consumed.append(item)

    def producer(env, items, delay):
        for item in items:
            yield env.timeout(delay)
            store.put(item)

    env.process(consumer(env, 4))
    env.process(producer(env, ["a", "b"], 1.0))
    env.process(producer(env, ["c", "d"], 1.5))
    env.run()
    assert sorted(consumed) == ["a", "b", "c", "d"]
    # Arrival-time order: a(1.0) c(1.5) b(2.0) d(3.0)
    assert consumed == ["a", "c", "b", "d"]
