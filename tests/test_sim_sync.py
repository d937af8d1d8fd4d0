"""Unit tests for Barrier."""

import pytest

from repro.errors import SimulationError
from repro.sim import Barrier, Environment


def test_barrier_releases_all_when_full():
    env = Environment()
    barrier = Barrier(env, parties=3)
    release_times = []

    def worker(env, delay):
        yield env.timeout(delay)
        yield barrier.wait()
        release_times.append(env.now)

    for delay in (1.0, 2.0, 3.0):
        env.process(worker(env, delay))
    env.run()
    assert release_times == [3.0, 3.0, 3.0]
    assert barrier.generation == 1


def test_barrier_is_cyclic():
    env = Environment()
    barrier = Barrier(env, parties=2)
    log = []

    def worker(env, name, delays):
        for d in delays:
            yield env.timeout(d)
            yield barrier.wait()
            log.append((name, env.now))

    env.process(worker(env, "a", [1.0, 1.0]))
    env.process(worker(env, "b", [2.0, 2.0]))
    env.run()
    assert log == [("a", 2.0), ("b", 2.0), ("a", 4.0), ("b", 4.0)]
    assert barrier.generation == 2


def test_barrier_single_party_never_blocks():
    env = Environment()
    barrier = Barrier(env, parties=1)
    times = []

    def worker(env):
        for _ in range(3):
            yield barrier.wait()
            yield env.timeout(1.0)
            times.append(env.now)

    env.process(worker(env))
    env.run()
    assert times == [1.0, 2.0, 3.0]


def test_barrier_invalid_parties():
    env = Environment()
    with pytest.raises(SimulationError):
        Barrier(env, parties=0)

