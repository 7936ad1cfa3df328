"""Unit tests for Resource."""

import pytest

from repro.sim import Environment, Resource, SimulationError


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grant_times = []

    def worker(tag, hold):
        yield res.acquire()
        grant_times.append((tag, env.now))
        yield env.timeout(hold)
        res.release()

    env.process(worker("a", 5.0))
    env.process(worker("b", 5.0))
    env.process(worker("c", 1.0))
    env.run()
    times = dict(grant_times)
    assert times["a"] == 0.0
    assert times["b"] == 0.0
    assert times["c"] == 5.0  # had to wait for a release


def test_resource_fifo_fairness():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(tag):
        yield res.acquire()
        order.append(tag)
        yield env.timeout(1.0)
        res.release()

    for tag in range(4):
        env.process(worker(tag))
    env.run()
    assert order == [0, 1, 2, 3]


def test_try_acquire_does_not_jump_queue():
    env = Environment()
    res = Resource(env, capacity=1)
    assert res.try_acquire() is True
    # Queue a waiter.
    def waiter():
        yield res.acquire()
        res.release()

    env.process(waiter())
    env.run(until=1.0)
    # A try_acquire now must fail even though in_use == capacity is the
    # real reason; after release the queued waiter must win.
    assert res.try_acquire() is False
    res.release()
    env.run()
    assert res.available == 1


def test_release_without_acquire_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_counters():
    env = Environment()
    res = Resource(env, capacity=3)
    assert res.available == 3
    assert res.try_acquire()
    assert res.in_use == 1
    assert res.available == 2
    assert res.queue_length == 0
