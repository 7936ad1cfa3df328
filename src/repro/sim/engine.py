"""Discrete-event simulation kernel.

This module implements a small, deterministic, generator-based
discrete-event engine in the style of SimPy.  Every other subsystem in
``repro`` — the virtual-memory model, the NIC models, the transports and
the applications — runs as :class:`Process` instances on top of a single
:class:`Environment`.

The kernel is intentionally minimal but complete:

* :class:`Event` — one-shot condition with callbacks, success/failure.
* :class:`Timeout` — an event that fires after a simulated delay.
* :class:`Process` — drives a generator; yielding an event suspends the
  process until the event fires.  A process is itself an event, so
  processes can wait on each other.
* :class:`Environment` — the event queue and clock.
* :func:`any_of` / :func:`all_of` — composite conditions.

Scheduling structure (DESIGN.md, "Event queue"):

* ``_imm`` — a deque of events triggered at the current time
  (``succeed``/``fail``/``defer``/process wake-ups).  Pure append /
  popleft, no keys.
* ``_heap`` — a ``heapq`` list of ``(t, tie, event)`` entries for
  everything due strictly after ``now``.  ``tie`` comes from a
  per-environment counter, so events scheduled for the same timestamp
  fire in FIFO order of scheduling.

A timed entry due at exactly ``now`` fires before the ``_imm`` lane: it
was scheduled before the clock reached this timestamp, so it predates
every current-time trigger.  Together the two rules make runs exactly
reproducible, seed for seed.

Performance: this kernel is the innermost loop of every experiment, so
the hot paths are deliberately low-level Python.  All event classes use
``__slots__``; :meth:`Environment.timeout` and friends build their
events with ``Timeout.__new__`` and push them without a helper frame;
and process bootstrap / immediate-resume wake-ups are scheduled through
bare pre-triggered events built with ``Event.__new__`` rather than the
full constructor + ``succeed`` path.  A "processed" event is simply one
whose ``callbacks`` have been detached (set to ``None``) — there is no
separate processed state to store per dispatch.  Every shortcut
enqueues exactly one entry at exactly the point the naive code would,
so event order — and therefore every experiment output — is unchanged.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "any_of",
    "all_of",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupting party may attach an arbitrary ``cause`` that the
    interrupted process can inspect.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.  "Processed" is not a state value: an event has
# been processed exactly when its callbacks have been detached
# (``callbacks is None``), so the dispatch loop never stores a state.
_PENDING = 0
_TRIGGERED = 1  # scheduled, not yet processed


# Repr sequence for events with no ``env`` reference (fast-path
# timeouts); see ``Event._stable_seq``.
_orphan_repr_seq = 0


def _NO_WAITERS(event):
    """Shared sentinel for ``callbacks`` = "triggered, nobody waiting yet".

    ``Environment.timeout`` and the internal wake-up hooks are created by
    the million; allocating a fresh empty list per event just so one
    waiter can append to it is the single biggest allocation cost in the
    simulator.  Instead ``callbacks`` holds one of:

    * a ``list``      — the general form (pending events, multiple waiters);
    * a :class:`Process` — exactly one waiting process, stored bare (the
      dispatch loop calls its ``_resume`` directly);
    * a callable      — exactly one non-process waiter, stored bare;
    * this sentinel   — triggered with no waiters yet (callable no-op, so
      the dispatch loop can invoke a non-list ``callbacks`` blindly);
    * ``None``        — the event has been processed.
    """


class Event:
    """A one-shot condition that processes can wait for.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it: the event is appended to the environment's
    current-time lane and its callbacks run when the dispatch loop
    reaches it (after everything already queued at this timestamp).
    """

    # ``_seq`` is assigned lazily on first repr (see ``_stable_seq``), so
    # the hot construction paths never touch it.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_defused",
                 "_seq")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._state = _PENDING
        # set True when a failure was consumed by a waiter (prevents the
        # "unhandled failure" error at teardown).
        self._defused = False

    # -- introspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        self.env._imm.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will see the exception raised at
        its ``yield`` statement.
        """
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        self.env._imm.append(self)
        return self

    def _stable_seq(self) -> int:
        """A reproducible identity for reprs/logs.

        ``id(self)`` changes run to run (allocator addresses), so
        anything that logs an event repr would diverge between identical
        runs.  Instead each event is numbered, on first repr, from its
        environment's own counter — stable across runs because repr
        order is itself deterministic.  Timeouts born on the inlined
        fast path carry no ``env`` reference; they fall back to a
        module-level counter (equally deterministic per run).
        """
        try:
            return self._seq
        except AttributeError:
            env = getattr(self, "env", None)
            if env is not None:
                env._repr_seq += 1
                seq = env._repr_seq
            else:
                global _orphan_repr_seq
                _orphan_repr_seq += 1
                seq = _orphan_repr_seq
            self._seq = seq
            return seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.callbacks is None:
            state = "processed"
        else:
            state = "pending" if self._state == _PENDING else "triggered"
        return f"<{type(self).__name__} {state} #{self._stable_seq()}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        self._defused = False
        self.delay = delay
        env._schedule_at(env._now + delay, self)


# ``Timeout.__new__`` bound once: ``Environment.timeout`` calls it per
# event; re-fetching it there would pay a type attribute lookup on the
# hottest allocation in the simulator.
_new_timeout = Timeout.__new__


class Process(Event):
    """Drives a generator as a concurrent simulated activity.

    The generator may yield:

    * another :class:`Event` (including a :class:`Process`) — the process
      resumes when that event fires, receiving its value (or the failure
      exception raised at the yield point);
    * ``None`` — the process is rescheduled immediately (a cooperative
      yield point within the same timestamp).

    The process itself is an event that fires with the generator's return
    value, or fails with its uncaught exception.
    """

    __slots__ = ("_generator", "_send", "_throw", "_resume_cb", "name",
                 "_waiting_on")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        self._generator = generator
        # Bound methods cached once: every wake-up of every process goes
        # through these, and CPython otherwise allocates a fresh bound
        # method per access (one extra allocation per event).
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Bootstrap: step the generator at the current time (after every
        # event already scheduled for it — FIFO order is preserved).
        self._schedule_resume(True, None)

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def _schedule_resume(self, ok: bool, value: Any) -> None:
        """Schedule a wake-up of this process at the current time.

        Equivalent to allocating a fresh :class:`Event`, registering
        :meth:`_resume` and triggering it — one current-time append —
        but skips the constructor and the ``succeed``/``fail`` state
        checks.  The process itself is stored bare as the hook's
        ``callbacks`` so the dispatch loop calls :meth:`_resume`
        directly.  ``_defused`` is pre-set so a failure value is considered
        handled (it is delivered into the generator).
        """
        env = self.env
        hook = Event.__new__(Event)
        hook.env = env
        hook.callbacks = self  # single waiting process, stored bare
        hook._value = value
        hook._ok = ok
        hook._state = _TRIGGERED
        hook._defused = True
        env._imm.append(hook)
        self._waiting_on = hook

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        The process is always findable while alive: whether it waits on
        an ordinary event, on a bootstrap/immediate wake-up, or on an
        event that has already *triggered* (scheduled, callbacks not yet
        run), the stale wake-up is neutralized and exactly one resume —
        the interrupt — is delivered.  Only a process whose generator has
        never started cannot be interrupted (there is no yield point to
        throw into).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        from inspect import getgeneratorstate  # cold path; avoids a hot-path flag
        if getgeneratorstate(self._generator) == "GEN_CREATED":
            raise SimulationError(f"process {self.name!r} is not waiting; cannot interrupt")
        target = self._waiting_on
        if target is not None:
            cbs = target.callbacks
            if cbs is self or cbs is self._resume_cb:
                target.callbacks = _NO_WAITERS
            elif cbs.__class__ is list:
                try:
                    cbs.remove(self._resume_cb)
                except ValueError:
                    pass
        # If the target's callbacks were already detached (it is being
        # processed right now, or was processed), _resume's identity check
        # against _waiting_on discards the stale wake-up.
        interrupt_ev = Event(self.env)
        interrupt_ev.callbacks.append(self._resume_cb)
        interrupt_ev.fail(Interrupt(cause))
        interrupt_ev._defused = True
        self._waiting_on = interrupt_ev

    def _resume(self, event: Event) -> None:
        # The dispatch loop in Environment.run calls this for every event
        # whose sole waiter is a process.
        if self._waiting_on is not event:
            # Stale wake-up: the process was interrupted (or re-targeted)
            # after this event triggered but before it was processed.
            if not event._ok:
                event._defused = True
            return
        # _waiting_on is NOT cleared here: every live exit of this method
        # overwrites it (wait on the yielded event or a scheduled hook)
        # and the dead exits make it unreachable, so the store is wasted
        # work on the hottest path in the simulator.
        env = self.env
        # Left pointing at this process after it suspends: the property is
        # only meaningful *while the generator executes* and resetting it
        # per resume is pure churn on the hottest path.
        env._active_process = self
        try:
            if event._ok:
                result = self._send(event._value)
            else:
                event._defused = True
                result = self._throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An interrupt escaping the generator kills the process cleanly.
            env._active_process = None
            self.succeed(exc.cause)
            return
        except BaseException as exc:
            env._active_process = None
            self.fail(exc)
            return

        if result is None:
            # Cooperative yield: reschedule at the same timestamp.
            self._schedule_resume(True, None)
            return
        try:
            # Duck-typed fast path (saves an isinstance per wait): every
            # Event has a ``callbacks`` slot; anything else raises.
            result_callbacks = result.callbacks
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {result!r}; expected an Event or None"
            ) from None
        if result_callbacks is _NO_WAITERS:
            # First (sole) waiter on a bare triggered event — the single
            # hottest wait in the simulator (a fresh ``env.timeout``):
            # store the process itself, no list, no bound method.
            self._waiting_on = result
            result.callbacks = self
        elif result_callbacks is None:
            # Already processed: resume with its value after the events
            # currently queued at this timestamp (FIFO order preserved).
            if result._ok:
                self._schedule_resume(True, result._value)
            else:
                result._defused = True
                self._schedule_resume(False, result._value)
        elif result_callbacks.__class__ is list:
            self._waiting_on = result
            result_callbacks.append(self._resume_cb)
        else:
            # Second waiter on an event holding a bare waiter.
            self._waiting_on = result
            if result_callbacks.__class__ is Process:
                result_callbacks = result_callbacks._resume_cb
            result.callbacks = [result_callbacks, self._resume_cb]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class _Condition(Event):
    """Base for any_of/all_of composite events."""

    __slots__ = ("_events", "_need_all", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event], need_all: bool):
        super().__init__(env)
        self._events = list(events)
        self._need_all = need_all
        self._pending = 0
        for ev in self._events:
            if not isinstance(ev, Event):
                raise SimulationError(f"condition operand {ev!r} is not an Event")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            cbs = ev.callbacks
            if cbs is None:
                self._observe(ev)
                if self._state != _PENDING:
                    return
            else:
                self._pending += 1
                if cbs.__class__ is list:
                    cbs.append(self._observe)
                elif cbs is _NO_WAITERS:
                    ev.callbacks = self._observe
                else:
                    if cbs.__class__ is Process:
                        cbs = cbs._resume_cb
                    ev.callbacks = [cbs, self._observe]

    def _results(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events
                if ev.callbacks is None and ev._ok}

    def _observe(self, event: Event) -> None:
        if self._state != _PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._defused = True  # caller may not wait; don't explode
            return
        if self._need_all:
            self._pending -= 1
            done = all(ev.callbacks is None for ev in self._events)
        else:
            done = True
        if done:
            self.succeed(self._results())


def any_of(env: "Environment", events: Iterable[Event]) -> Event:
    """Event that fires when *any* of ``events`` fires.

    Its value is a dict mapping each already-fired event to its value.
    """
    return _Condition(env, events, need_all=False)


def all_of(env: "Environment", events: Iterable[Event]) -> Event:
    """Event that fires when *all* of ``events`` have fired."""
    return _Condition(env, events, need_all=True)


class _Next(Event):
    """The :meth:`Environment.step` stop event for :meth:`Environment.run`.

    It reads as processed as soon as ``event`` is, and is always ok with
    value ``None``, so ``run`` dispatches exactly that one event and
    returns nothing.
    """

    __slots__ = ("event",)

    callbacks = property(lambda self: self.event.callbacks)

    def __init__(self, event: Event):
        self.event = event
        self._ok = True
        self._value = None


# The stop event of an open-ended ``run``: never scheduled, never processed.
_NEVER = Event.__new__(Event)
_NEVER.callbacks = _NO_WAITERS


class Environment:
    """The simulation clock and event queue."""

    __slots__ = ("_now", "_imm", "_heap", "_tie", "_active_process",
                 "_repr_seq")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # Current-time lane: events firing at exactly ``now``.
        self._imm: deque[Event] = deque()
        # Future events as ``(t, tie, event)``; ``_tie`` numbers them in
        # schedule order so equal times pop FIFO.
        self._heap: list[tuple[float, int, Event]] = []
        self._tie = count()
        self._active_process: Optional[Process] = None
        self._repr_seq = 0  # see Event._stable_seq

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process whose generator is currently executing.

        Only meaningful from code running *inside* a process; between
        events it may point at the most recently resumed process (the
        hot path does not reset it), and it is ``None`` after a process
        terminates.
        """
        return self._active_process

    # -- scheduling core ---------------------------------------------------
    def _schedule_at(self, t: float, ev: Event) -> None:
        """Enqueue ``ev`` to fire at absolute time ``t``.

        Times at or before ``now`` join the current-time lane; later
        ones go on the heap behind every entry already there for ``t``.
        """
        if t > self._now:
            heappush(self._heap, (t, next(self._tie), ev))
        else:
            self._imm.append(ev)

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Inlined Timeout construction + scheduling: skips type.__call__,
        # the __init__ frame and the _schedule_at frame on the single
        # hottest allocation in the simulator.  Field-for-field identical
        # to Timeout.__init__ except that ``callbacks`` starts as the
        # shared no-waiters sentinel instead of a fresh list (see
        # :func:`_NO_WAITERS`).
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        ev = _new_timeout(Timeout)
        # ``env`` is left unset: it is only consulted by succeed()/fail(),
        # which a born-triggered Timeout rejects before touching it.
        # ``delay`` and ``_defused`` are also left unset — nothing reads
        # them on a fast-path timeout (``not _ok`` guards every _defused
        # read, and a Timeout is born ok).
        ev.callbacks = _NO_WAITERS
        ev._value = value
        ev._ok = True
        ev._state = _TRIGGERED
        now = self._now
        t = now + delay
        if t > now:
            heappush(self._heap, (t, next(self._tie), ev))
        else:
            self._imm.append(ev)
        return ev

    def after(self, delay: float, callback: Callable[["Event"], None]) -> Timeout:
        """:meth:`timeout` with the single waiter pre-bound.

        Identical queue position and Timeout fields to ``t = timeout(d);
        t.callbacks = cb`` — one construction, no re-assignment.  Used by
        the NPF callback pipeline, which schedules one of these per
        phase; callers pass non-negative delays.
        """
        ev = _new_timeout(Timeout)
        ev.callbacks = callback
        ev._value = None
        ev._ok = True
        ev._state = _TRIGGERED
        now = self._now
        t = now + delay
        if t > now:
            heappush(self._heap, (t, next(self._tie), ev))
        else:
            self._imm.append(ev)
        return ev

    def at(self, t: float, callback: Callable[["Event"], None],
           value: Any = None) -> Timeout:
        """:meth:`after` with an *absolute* fire time.

        The burst-mode network datapath computes a packet train's
        completion timestamps analytically as a running float sum; a
        relative ``after(t - now)`` would re-derive the fire time as
        ``now + (t - now)``, which is not bit-identical to ``t`` in
        float arithmetic and would shift delivery order against the
        per-packet datapath.  ``at`` schedules at exactly ``t`` (times
        at or before ``now`` land in the current-time lane, like every
        other trigger).  ``value`` is delivered as the event's value so
        one pre-bound callback can serve many events.
        """
        ev = _new_timeout(Timeout)
        ev.callbacks = callback
        ev._value = value
        ev._ok = True
        ev._state = _TRIGGERED
        self._schedule_at(t, ev)
        return ev

    def schedule_train(self, times: Iterable[float],
                       callback: Callable[["Event"], None]) -> None:
        """Bulk :meth:`at`: one pre-bound ``callback`` at each absolute time.

        The fast path for committing a packet train: ``times[i]`` is the
        i-th delivery timestamp and the event's value is ``i``, so a
        single bound method per train serves every packet — one Timeout
        allocation per packet and nothing else (no lambda, no generator
        resume, no Store traffic).  Each event gets its own tie, so
        equal delivery times fire in train order.
        """
        heap = self._heap
        tie = self._tie
        now = self._now
        new = _new_timeout
        i = 0
        for t in times:
            ev = new(Timeout)
            ev.callbacks = callback
            ev._value = i
            ev._ok = True
            ev._state = _TRIGGERED
            if t > now:
                heappush(heap, (t, next(tie), ev))
            else:
                self._imm.append(ev)
            i += 1

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def defer(self, callback: Callable[[Event], None], value: Any = None) -> Event:
        """Schedule ``callback(event)`` at the current time (one append).

        The callback runs after every event already queued at this
        timestamp — the same FIFO bootstrap a fresh :class:`Process`
        gets, without the generator machinery.  Entry hook for
        callback-driven pipelines (``NpfDriver.service_fault_async``);
        field-for-field identical to ``Process._schedule_resume``'s hook.
        """
        ev = Event.__new__(Event)
        ev.env = self
        ev.callbacks = callback  # single waiter, stored bare
        ev._value = value
        ev._ok = True
        ev._state = _TRIGGERED
        ev._defused = True
        self._imm.append(ev)
        return ev

    def any_of(self, events: Iterable[Event]) -> Event:
        return any_of(self, events)

    def all_of(self, events: Iterable[Event]) -> Event:
        return all_of(self, events)

    def schedule_callback(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` simulated seconds (fire-and-forget).

        Rides the pre-bound :meth:`after` fast path: one allocation, the
        wrapper stored bare as the sole waiter.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        return self.after(delay, lambda _ev: fn())

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process the single next event in the schedule.

        Picks the event :meth:`run` would dispatch next and runs until it
        is processed, so both share one selection and dispatch path.
        """
        heap = self._heap
        imm = self._imm
        if heap and (not imm or heap[0][0] <= self._now):
            event = heap[0][2]
        elif imm:
            event = imm[0]
        else:
            raise SimulationError("step() on an empty schedule")
        self.run(_Next(event))

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the schedule is empty;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event fires, returning its
          value (or raising its failure).

        One loop serves all three; they differ only in the stop event
        and the deadline.  A heap entry popped past the deadline is
        pushed back unchanged, tie included.
        """
        stop = _NEVER
        deadline = math.inf
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(
                    f"run(until={until!r}) is in the past (now={self._now})")
        imm = self._imm
        heap = self._heap
        while stop.callbacks is not None:
            if heap and (not imm or heap[0][0] <= self._now):
                # Timed entries due at exactly ``now`` predate anything in
                # the current-time lane, so they fire first.
                t, tie, event = heappop(heap)
                if t > deadline:
                    heappush(heap, (t, tie, event))
                    break
                self._now = t
            elif imm:
                event = imm.popleft()
            else:
                break
            callbacks = event.callbacks
            event.callbacks = None
            cls = callbacks.__class__
            if cls is Process:
                callbacks._resume(event)
            elif cls is list:
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            else:
                # Bare single waiter (or the no-op sentinel).  Bare-waiter
                # events are born ok or born defused, so no teardown check.
                callbacks(event)
        if stop is not _NEVER:
            if stop.callbacks is not None:
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired")
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value
        if deadline != math.inf:
            self._now = deadline
        return None
