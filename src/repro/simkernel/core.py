"""Discrete-event simulation core.

A small, dependency-free kernel in the style of SimPy: a :class:`Simulator`
owns an event calendar and advances virtual time; model behaviour is
written as Python generator functions ("processes") that ``yield`` events
(timeouts, resource requests, other processes, conditions) and are resumed
when those events fire.

Time is a float in **seconds**; sub-microsecond resolution is fine because
events at equal times are ordered deterministically by (priority, sequence
number), so runs are exactly reproducible for a given seed.

The calendar is one binary heap of ``(when, priority, seq, event)``
tuples, driven by C ``heappush``/``heappop`` and drained by one loop in
:meth:`Simulator.run`.  ``seq`` is unique and monotone, so the tuple order
is total and every byte-identity guarantee in the repo is stated against
this pop order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "StopSimulation",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for events that must fire before same-time NORMAL ones
#: (used internally for a process's start and its terminal event).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the calendar, value decided
_PROCESSED = 2  # callbacks ran


class SimulationError(Exception):
    """Raised for kernel-level misuse (e.g. yielding a non-event)."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulator.run` early."""


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*, becomes *triggered* when given a value (and is
    scheduled), and *processed* once its callbacks have run.  Processes that
    yield the event are resumed with its value (or have its exception thrown
    into them if the event failed).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING
        self._defused = False

    # -- introspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        # hot path: schedule at the current time without an _enqueue frame
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, priority, seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, priority, seq, self))
        return self

    def defused(self) -> "Event":
        """Mark a failed event as handled so the kernel will not re-raise it."""
        self._defused = True
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} state={self._state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # the single most-constructed event type: initialize flat (no
        # Event.__init__ call) and schedule without an _enqueue frame
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        self._defused = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now + delay, NORMAL, seq, self))


class Process(Event):
    """Drives a generator, resuming it each time a yielded event fires.

    A process is itself an event: it succeeds with the generator's return
    value, or fails with any exception that escapes the generator.
    """

    __slots__ = ("_generator", "name", "_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: the bound resume callback, allocated once instead of on every
        #: suspension (callbacks.append(self._resume) re-binds each time).
        #: It refers back to the process, so ``_resume`` drops it on every
        #: exit of the generator: a finished process then dies by
        #: reference count instead of waiting for the cycle collector.
        self._cb = self._resume
        if sim._process_watchers:
            for fn in sim._process_watchers:
                fn(self, "start")
        # Bootstrap: resume the generator at time now.
        init = Event(sim)
        init._ok = True
        init._state = _TRIGGERED
        init.callbacks.append(self._cb)
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, URGENT, seq, init))

    def _resume(self, event: Event) -> None:
        # the kernel's innermost loop: one call per process suspension;
        # locals bound up front keep the common send-and-suspend cycle
        # free of repeated attribute loads
        sim = self.sim
        sim._active_process = self
        gen = self._generator
        send = gen.send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    event._defused = True
                    target = gen.throw(event._value)
            except StopIteration as exc:
                sim._active_process = None
                self._cb = None
                if self._state == _PENDING:
                    if sim._elide_done and not self.callbacks:
                        # collapse mode, nobody waiting: the terminal event
                        # would pop with no callbacks, so skip the calendar
                        # and let any later ``yield process`` read the value
                        # straight off the processed event
                        self._value = exc.value
                        self.callbacks = None
                        self._state = _PROCESSED
                    else:
                        self.succeed(exc.value, priority=URGENT)
                    if sim._process_watchers:
                        for fn in sim._process_watchers:
                            fn(self, "end")
                return
            except BaseException as exc:
                sim._active_process = None
                self._cb = None
                if self._state == _PENDING:
                    self.fail(exc, priority=URGENT)
                    if sim._process_watchers:
                        for fn in sim._process_watchers:
                            fn(self, "end")
                    return
                raise

            if isinstance(target, Event):
                if target.sim is not sim:
                    raise SimulationError(
                        "yielded event belongs to another simulator"
                    )
                if target._state != _PROCESSED:
                    target.callbacks.append(self._cb)
                    sim._active_process = None
                    return
                # Already over: feed its value straight back in.
                event = target
                continue

            err: BaseException = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
            sim._active_process = None
            self._cb = None
            try:
                gen.throw(err)
            except StopIteration:
                pass
            except BaseException as exc:
                err = exc
            else:
                # The generator caught the error and yielded again; it
                # cannot be resumed after an invalid yield, so shut it
                # down instead of leaving the process pending forever.
                gen.close()
            if self._state == _PENDING:
                self.fail(err, priority=URGENT)
                if sim._process_watchers:
                    for fn in sim._process_watchers:
                        fn(self, "end")
            return


class Condition(Event):
    """Waits for a boolean combination of events.

    Succeeds with a dict mapping each *fired* constituent event to its value.
    Fails as soon as any constituent fails.
    """

    __slots__ = ("_events", "_need", "_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event], need: int):
        super().__init__(sim)
        self._events = list(events)
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes simulators")
        self._need = min(need, len(self._events)) if self._events else 0
        self._fired: list = []
        if self._need == 0:
            self.succeed({})
            return
        for ev in self._events:
            if ev._state == _PROCESSED:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._fired.append(event)
        if len(self._fired) >= self._need:
            self.succeed({ev: ev._value for ev in self._fired})


class AnyOf(Condition):
    """Condition that fires when *any* constituent event fires."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, need=1)


class AllOf(Condition):
    """Condition that fires when *all* constituent events have fired."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        events = list(events)
        super().__init__(sim, events, need=len(events))


class Simulator:
    """Owns the event calendar and the simulated clock."""

    def __init__(self):
        #: the calendar: a heap of ``(when, priority, seq, event)`` tuples
        self._queue: list = []
        self._now: float = 0.0
        self._seq = 0
        #: collapse mode (set by the model layer, never by the kernel):
        #: a finishing process nobody waits on skips its terminal event.
        #: Off by default — the golden schedule keeps every terminal.
        self._elide_done: bool = False
        self._active_process: Optional[Process] = None
        #: observers of the process lifecycle (see add_process_watcher);
        #: empty by default so the hot resume path pays one falsy check
        self._process_watchers: list = []
        #: calendar events processed so far (the model layer's cost metric:
        #: fewer events for the same simulated outcome = a faster run)
        self.events_processed: int = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    def add_process_watcher(
        self, fn: Callable[[Process, str], None]
    ) -> None:
        """Observe the process lifecycle: ``fn(process, event)`` is called
        with ``"start"`` when a process is registered and ``"end"`` when its
        generator finishes (normally or with an error).

        Watchers must be passive — they run inside the kernel and must not
        schedule or trigger events.  The trace facility uses this to close
        dangling spans when an instrumented process dies mid-span.
        """
        self._process_watchers.append(fn)

    # -- event construction --------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event, triggered manually via succeed()/fail()."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """An event firing at *absolute* time ``when`` (>= now).

        Unlike ``timeout(when - now)``, the target time is used exactly as
        given — no ``now + delay`` float round trip — so a caller collapsing
        a chain of relative timeouts can land on the bit-identical instants
        the chain would have produced.
        """
        if when < self._now:
            raise ValueError("cannot schedule in the past")
        ev = Event(self)
        ev._value = value
        ev._state = _TRIGGERED
        self._seq = seq = self._seq + 1
        heappush(self._queue, (when, NORMAL, seq, ev))
        return ev

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a running process."""
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` (a plain callable, not a process) at absolute time."""
        if when < self._now:
            raise ValueError("cannot schedule in the past")
        ev = Event(self)
        ev._ok = True
        ev._state = _TRIGGERED
        ev.callbacks.append(lambda _e: fn())
        self._enqueue(when - self._now, NORMAL, ev)
        return ev

    # -- scheduling ----------------------------------------------------------
    def _enqueue(self, delay: float, priority: int, event: Event) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now + delay, priority, seq, event))

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run a plain callable after ``delay`` seconds."""
        self.call_at(self._now + delay, fn)

    # -- execution -------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the calendar empties, ``until`` seconds pass, or an
        ``until`` event fires (its value is returned)."""
        stop_value: list = []
        if isinstance(until, Event):
            if until._state == _PROCESSED:
                return until._value

            def _stop(ev: Event) -> None:
                stop_value.append(ev._value)
                if not ev._ok:
                    ev._defused = True
                raise StopSimulation()

            until.callbacks.append(_stop)
            horizon = float("inf")
        elif until is None:
            horizon = float("inf")
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError("cannot run into the past")

        # The event loop proper, and the only place events are processed:
        # pop, advance the clock, run callbacks.  The calendar is bound to
        # locals and the per-event work is written out inline, with no
        # helper frame and no per-event attribute stores on ``self`` —
        # the bulk of the kernel's per-event cost.
        count = 0
        queue = self._queue
        pop = heappop
        try:
            while queue and queue[0][0] <= horizon:
                when, _prio, _seq, event = pop(queue)
                self._now = when
                count += 1
                callbacks = event.callbacks
                event.callbacks = None
                event._state = _PROCESSED
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    # Nobody waited for (or defused) this failed event:
                    # surface the error.
                    raise event._value
        except StopSimulation:
            val = stop_value[0]
            if isinstance(until, Event) and not until._ok:
                raise val
            return val
        finally:
            # flushed once per run() call, not per event, to keep the
            # loop free of per-event attribute stores
            self.events_processed += count
        if horizon != float("inf"):
            self._now = horizon
        if isinstance(until, Event):
            raise SimulationError("simulation ended before 'until' event fired")
        return None
