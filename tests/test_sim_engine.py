"""Unit tests for the discrete-event simulation kernel."""

import json
import pathlib
import random

import pytest

from repro.sim import Environment, Interrupt, SimulationError, all_of, any_of

GOLDEN_TRACES = pathlib.Path(__file__).parent / "data" / "fuzz_trace_golden.json"


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(1.5)
        log.append(env.now)
        yield env.timeout(0.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [1.5, 2.0]


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1.0, value="payload")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_same_time_events_fire_in_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_return_value_propagates():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return 42

    def parent(results):
        value = yield env.process(child())
        results.append(value)

    results = []
    env.process(parent(results))
    env.run()
    assert results == [42]


def test_run_until_event_returns_its_value():
    env = Environment()

    def child():
        yield env.timeout(3.0)
        return "done"

    proc = env.process(child())
    assert env.run(until=proc) == "done"
    assert env.now == 3.0


def test_run_until_time_stops_early():
    env = Environment()
    log = []

    def ticker():
        while True:
            yield env.timeout(1.0)
            log.append(env.now)

    env.process(ticker())
    env.run(until=4.5)
    assert log == [1.0, 2.0, 3.0, 4.0]
    assert env.now == 4.5


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_uncaught_process_exception_surfaces_in_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad())
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_waiting_on_failed_event_raises_at_yield():
    env = Environment()
    caught = []

    def waiter(ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = env.event()
    env.process(waiter(ev))
    env.schedule_callback(1.0, lambda: ev.fail(RuntimeError("failed-event")))
    env.run()
    assert caught == ["failed-event"]


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_fail_requires_exception_instance():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_interrupt_delivered_as_exception():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            log.append((env.now, exc.cause))

    def interrupter(target):
        yield env.timeout(2.0)
        target.interrupt(cause="wakeup")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [(2.0, "wakeup")]


def test_interrupting_dead_process_is_an_error():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_yield_none_is_cooperative_yield():
    env = Environment()
    order = []

    def proc(tag):
        order.append(("start", tag))
        yield None
        order.append(("end", tag))

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    assert order == [("start", "a"), ("start", "b"), ("end", "a"), ("end", "b")]
    assert env.now == 0.0


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_waiting_on_already_processed_event_completes_immediately():
    env = Environment()
    timeout = env.timeout(1.0, value="early")
    seen = []

    def late_waiter():
        yield env.timeout(5.0)
        value = yield timeout
        seen.append((env.now, value))

    env.process(late_waiter())
    env.run()
    assert seen == [(5.0, "early")]


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc():
        t_fast = env.timeout(1.0, value="fast")
        t_slow = env.timeout(9.0, value="slow")
        fired = yield any_of(env, [t_fast, t_slow])
        results.append((env.now, sorted(fired.values())))

    env.process(proc())
    env.run(until=2.0)
    assert results == [(1.0, ["fast"])]


def test_all_of_waits_for_every_event():
    env = Environment()
    results = []

    def proc():
        events = [env.timeout(d) for d in (1.0, 3.0, 2.0)]
        yield all_of(env, events)
        results.append(env.now)

    env.process(proc())
    env.run()
    assert results == [3.0]


def test_all_of_empty_completes_immediately():
    env = Environment()
    results = []

    def proc():
        yield all_of(env, [])
        results.append(env.now)

    env.process(proc())
    env.run()
    assert results == [0.0]


def test_schedule_callback_runs_at_time():
    env = Environment()
    fired = []
    env.schedule_callback(2.5, lambda: fired.append(env.now))
    env.run()
    assert fired == [2.5]


def test_processes_share_a_deterministic_schedule():
    """Two identical runs produce identical traces."""

    def trace_run():
        env = Environment()
        trace = []

        def worker(tag, period):
            while env.now < 5.0:
                yield env.timeout(period)
                trace.append((round(env.now, 6), tag))

        env.process(worker("a", 0.7))
        env.process(worker("b", 1.1))
        env.run(until=10.0)
        return trace

    assert trace_run() == trace_run()


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_interrupt_from_sibling_callback_resumes_once():
    """Interrupt fired while the awaited event is mid-dispatch.

    During a step, callbacks are detached before running; if callback #1
    interrupts a process whose ``_resume`` is callback #2 of the *same*
    event, the stale ``_resume`` must be ignored — historically it
    double-resumed the generator (delivering the event value on top of
    the Interrupt, corrupting the process state).
    """
    env = Environment()
    ev = env.event()
    log = []

    def waiter():
        try:
            yield ev
            log.append(("value", env.now))
        except Interrupt as exc:
            log.append(("interrupt", exc.cause, env.now))
        yield env.timeout(1.0)
        log.append(("done", env.now))

    target = env.process(waiter())

    def arranger():
        yield env.timeout(0.0)  # let waiter block on ev first
        # Run the interrupt as a callback *ahead of* waiter's _resume on
        # the very event waiter awaits.
        ev.callbacks.insert(0, lambda event: target.interrupt(cause="stale"))
        ev.succeed("v")

    env.process(arranger())
    env.run()
    assert log == [("interrupt", "stale", 0.0), ("done", 1.0)]


def test_interrupt_during_cooperative_yield():
    """A process parked on ``yield None`` is interruptible."""
    env = Environment()
    log = []

    def coop():
        try:
            yield None
            log.append("resumed")
        except Interrupt as exc:
            log.append(("interrupt", exc.cause))

    def interrupter(target):
        target.interrupt(cause="now")
        yield env.timeout(0.0)

    target = env.process(coop())
    env.process(interrupter(target))
    env.run()
    assert log == [("interrupt", "now")]


def test_interrupting_unstarted_process_is_an_error():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    p = env.process(proc())
    with pytest.raises(SimulationError):
        p.interrupt()


def test_second_interrupt_wins():
    """Back-to-back interrupts deliver the most recent cause exactly once."""
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            log.append((env.now, exc.cause))

    def interrupter(target):
        yield env.timeout(1.0)
        target.interrupt(cause="first")
        target.interrupt(cause="second")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [(1.0, "second")]


def test_interrupt_cancels_pending_near_or_far_timer():
    """Interrupting a process parked on a near or far timer must deliver
    exactly one Interrupt, and the stale timer must not resume it."""
    env = Environment()
    log = []

    def sleeper(name, delay):
        try:
            yield env.timeout(delay)
            log.append((name, "timeout", env.now))
        except Interrupt as exc:
            log.append((name, "interrupt", exc.cause, env.now))
            yield env.timeout(1e-6)
            log.append((name, "after", env.now))

    victims = [env.process(sleeper(n, d), name=n)
               for n, d in (("near", 5e-7), ("mid", 5e-5), ("far", 5.0))]

    def killer():
        yield env.timeout(1e-7)
        for v in victims:
            v.interrupt(cause="cancel")

    env.process(killer())
    env.run()
    assert log == [
        ("near", "interrupt", "cancel", 1e-7),
        ("mid", "interrupt", "cancel", 1e-7),
        ("far", "interrupt", "cancel", 1e-7),
        ("near", "after", 1e-7 + 1e-6),
        ("mid", "after", 1e-7 + 1e-6),
        ("far", "after", 1e-7 + 1e-6),
    ]


def test_timed_entry_due_now_fires_before_current_time_lane():
    """Timers due at the current timestamp were scheduled before the clock
    got there, so they fire ahead of anything triggered at it."""
    env = Environment()
    log = []

    def first(_ev):
        log.append("a")
        env.defer(lambda _ev: log.append("deferred"))
        env.event().succeed()

    env.after(1.0, first)
    env.after(1.0, lambda _ev: log.append("b"))
    env.at(1.0, lambda _ev: log.append("c"))
    env.run()
    assert log == ["a", "b", "c", "deferred"]


#: Delays from sub-microsecond to seconds, with exact zeros for
#: same-timestamp ties.
DELAY_CHOICES = (0.0, 0.0, 1e-9, 1e-7, 1e-6, 3e-6, 5e-5, 2e-3, 0.25, 7.0)


@pytest.mark.parametrize("seed", range(5))
def test_engine_random_schedule_fifo_invariant(seed):
    """Randomized after() schedules fire in (time, schedule-order)."""
    env = Environment()
    rng = random.Random(seed)
    fired = []
    scheduled = []
    serial = 0

    def driver():
        nonlocal serial
        for _ in range(400):
            delay = rng.choice(DELAY_CHOICES)
            if delay == 0.0:
                delay = 1e-7  # after() wants a future fire here
            t = env.now + delay
            serial += 1
            tag = serial
            scheduled.append((t, tag))
            env.after(delay, lambda _ev, tag=tag: fired.append((env.now, tag)))
            if rng.random() < 0.3:
                yield env.timeout(rng.choice((1e-7, 3e-6, 2e-3)))
            else:
                yield None

    env.process(driver())
    env.run()
    assert len(fired) == len(scheduled)
    # The dispatch order must equal the schedule sorted stably by time.
    want = [(t, tag) for t, tag in
            sorted(scheduled, key=lambda pair: pair[0])]
    assert [(t, tag) for t, tag in fired] == want


def test_defused_far_future_failure_does_not_raise():
    """A failure triggered by a far-future callback and consumed by a
    waiter must not explode at dispatch (teardown-raise only fires for
    unhandled failures)."""
    env = Environment()
    seen = []

    def waiter(ev):
        try:
            yield ev
        except RuntimeError as exc:
            seen.append(str(exc))

    ev = env.event()
    env.process(waiter(ev))
    env.schedule_callback(3.0, lambda: ev.fail(RuntimeError("late-fail")))
    # Dense foreground traffic so the failure is serviced mid-stream.
    def ticker():
        for _ in range(1000):
            yield env.timeout(1e-2)
    env.process(ticker())
    env.run()
    assert seen == ["late-fail"]


#: Binary-exact time quantum: sums of small multiples and the cut points
#: below compare exactly, so cuts land on real event times.
UNIT = 2.0 ** -20


def _seeded_schedule(env, seed, log):
    """Workers drawing from one seeded plan: equal-time ties, zero-delay
    ``succeed``/``defer`` wake-ups, timed entries due at exactly ``now``
    (several timeouts expiring together) and one interrupted sleeper."""
    rng = random.Random(seed)
    plans = [[(rng.randrange(5), rng.choice((0, 1, 1, 2, 3)))
              for _ in range(40)] for _ in range(6)]
    sleep_for = rng.randrange(20, 40)
    wake_at = rng.randrange(5, 15)

    def worker(tag, plan):
        for i, (kind, units) in enumerate(plan):
            if kind == 0:
                yield env.timeout(units * UNIT, value=i)
            elif kind == 1:
                ev = env.event()
                ev.succeed(i)
                yield ev
            elif kind == 2:
                env.defer(lambda _ev, i=i: log.append((env.now, tag, i, "defer")))
                yield None
            elif kind == 3:
                env.at(env.now + units * UNIT,
                       lambda _ev, i=i: log.append((env.now, tag, i, "at")))
                yield env.timeout(units * UNIT)
            else:
                yield env.timeout(0.0)
            log.append((env.now, tag, i))

    def sleeper():
        try:
            yield env.timeout(sleep_for * UNIT)
            log.append((env.now, "sleeper", "timeout"))
        except Interrupt as exc:
            log.append((env.now, "sleeper", exc.cause))
        yield env.timeout(UNIT)
        log.append((env.now, "sleeper", "done"))

    for tag, plan in enumerate(plans):
        env.process(worker(tag, plan))
    victim = env.process(sleeper())

    def interrupter():
        yield env.timeout(wake_at * UNIT)
        victim.interrupt(cause="wake")

    env.process(interrupter())


def _dispatch_log(seed, how):
    """Dispatch the seeded schedule one of three ways.  Returns the log
    and, for ``"until"``, how long the log was at each cut point."""
    env = Environment()
    log = []
    cuts = []
    _seeded_schedule(env, seed, log)
    if how == "run":
        env.run()
    elif how == "until":
        rng = random.Random(seed ^ 0x5EED)
        for k in sorted(rng.randrange(0, 120) for _ in range(25)):
            env.run(until=k * UNIT)
            assert env.now == k * UNIT
            cuts.append((env.now, len(log)))
        env.run()
    else:
        while True:
            try:
                env.step()
            except SimulationError:
                break
    return log, cuts


@pytest.mark.parametrize("seed", range(4))
def test_step_run_and_run_until_agree(seed):
    """One seeded schedule dispatched by ``run()``, by a chain of
    ``run(until=t_k)`` at random cut points, and by a ``step()`` loop
    produces the same dispatch log all three ways; each ``run(until=t)``
    stops with exactly the events due at or before ``t`` dispatched."""
    ran, _ = _dispatch_log(seed, "run")
    assert len(ran) > 200
    assert any(entry[1:] == ("sleeper", "wake") for entry in ran)
    until, cuts = _dispatch_log(seed, "until")
    assert until == ran
    for t, n in cuts:
        assert n == sum(1 for entry in ran if entry[0] <= t)
    assert _dispatch_log(seed, "step")[0] == ran


def _golden_keys():
    return sorted(json.loads(GOLDEN_TRACES.read_text()))


@pytest.mark.parametrize("key", _golden_keys())
def test_fuzz_trace_matches_golden(key):
    """Every fuzz scenario must replay byte-identically to the trace an
    earlier heap-keyed engine produced.

    This is the strongest statement of the tie-break invariant: the full
    stack — NICs, transports, NPF pipeline, backup rings — dispatches in
    exactly the captured order, seed for seed.
    """
    from repro.fuzz.executor import run_scenario
    from repro.fuzz.generate import generate_scenario

    golden = json.loads(GOLDEN_TRACES.read_text())
    profile, index = key.rsplit(":", 1)
    sc = generate_scenario(int(index), 0xCAFEF00D, profile=profile)
    tr = run_scenario(sc)
    assert tr.crashed is None
    assert tr.compared() == golden[key]
