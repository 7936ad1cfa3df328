"""Unit tests for Store."""

import pytest

from repro.sim import Environment, Store, StoreFull


def test_put_get_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append((env.now, item))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert [item for _, item in received] == [0, 1, 2]


def test_get_blocks_until_item_available():
    env = Environment()
    store = Store(env)
    received = []

    def consumer():
        item = yield store.get()
        received.append((env.now, item))

    def producer():
        yield env.timeout(5.0)
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert received == [(5.0, "late")]


def test_bounded_put_blocks_until_space():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer():
        yield store.put("a")
        times.append(("a", env.now))
        yield store.put("b")  # blocks until consumer drains "a"
        times.append(("b", env.now))

    def consumer():
        yield env.timeout(3.0)
        item = yield store.get()
        assert item == "a"

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times == [("a", 0.0), ("b", 3.0)]


def test_put_nowait_raises_when_full():
    env = Environment()
    store = Store(env, capacity=2)
    store.put_nowait(1)
    store.put_nowait(2)
    with pytest.raises(StoreFull):
        store.put_nowait(3)
    assert store.try_put(3) is False
    assert len(store) == 2


def test_put_nowait_hands_item_to_waiting_getter_even_when_full():
    env = Environment()
    store = Store(env, capacity=1)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    env.process(consumer())
    env.run()  # consumer now blocked on empty store
    store.put_nowait("direct")
    env.run()
    assert got == ["direct"]


def test_get_nowait_returns_none_when_empty():
    env = Environment()
    store = Store(env)
    assert store.get_nowait() is None
    store.put_nowait("x")
    assert store.peek() == "x"
    assert store.get_nowait() == "x"
    assert store.is_empty


def test_zero_capacity_rejected():
    env = Environment()
    with pytest.raises(Exception):
        Store(env, capacity=0)


def test_put_many_nowait_matches_loop_semantics():
    env = Environment()
    store = Store(env)
    store.put_many_nowait([1, 2, 3])
    assert [store.get_nowait() for _ in range(3)] == [1, 2, 3]
    assert store.get_nowait() is None


def test_put_many_nowait_wakes_getters_in_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    env.process(consumer("a"))
    env.process(consumer("b"))

    def producer():
        yield env.timeout(1.0)
        store.put_many_nowait([10, 20, 30])

    env.process(producer())
    env.run()
    # Oldest getter gets the first item; the rest queue in FIFO order.
    assert got == [("a", 10), ("b", 20)]
    assert store.get_nowait() == 30


def test_put_many_nowait_raises_at_first_overflow():
    env = Environment()
    store = Store(env, capacity=2)
    with pytest.raises(StoreFull):
        store.put_many_nowait([1, 2, 3])
    # Items accepted before the overflow stay queued.
    assert [store.get_nowait(), store.get_nowait()] == [1, 2]
