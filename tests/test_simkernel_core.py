"""Unit tests for the discrete-event simulation core."""

import pytest

from repro.simkernel import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(1.5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [1.5]


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1.0, value="hello")
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(waiter(3, "c"))
    sim.process(waiter(1, "a"))
    sim.process(waiter(2, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo_by_schedule_order():
    sim = Simulator()
    order = []

    def w(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcd":
        sim.process(w(tag))
    sim.run()
    assert order == list("abcd")


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(10)

    sim.process(forever())
    sim.run(until=25)
    assert sim.now == 25


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(2)
        return 42

    p = sim.process(proc())
    assert sim.run(until=p) == 42
    assert sim.now == 2


def test_run_until_past_raises():
    sim = Simulator()

    def proc():
        yield sim.timeout(5)

    sim.process(proc())
    sim.run(until=5)
    with pytest.raises(ValueError):
        sim.run(until=1)


def test_process_return_value_via_yield():
    sim = Simulator()
    results = []

    def child():
        yield sim.timeout(1)
        return "done"

    def parent():
        r = yield sim.process(child())
        results.append(r)

    sim.process(parent())
    sim.run()
    assert results == ["done"]


def test_waiting_on_finished_process_returns_immediately():
    sim = Simulator()
    results = []

    def child():
        yield sim.timeout(1)
        return 7

    def parent(p):
        yield sim.timeout(5)  # child long finished
        r = yield p
        results.append((sim.now, r))

    p = sim.process(child())
    sim.process(parent(p))
    sim.run()
    assert results == [(5, 7)]


def test_exception_in_process_propagates_to_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("boom")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_exception_propagates_to_waiting_parent():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1)
        raise ValueError("child failed")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["child failed"]


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        v = yield ev
        got.append((sim.now, v))

    def trigger():
        yield sim.timeout(4)
        ev.succeed("fired")

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert got == [(4, "fired")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_without_waiter_raises_at_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_defused_failed_event_does_not_raise():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("handled")).defused()
    sim.run()  # no exception


def test_any_of_fires_on_first():
    sim = Simulator()
    got = []

    def proc():
        t1 = sim.timeout(5, value="slow")
        t2 = sim.timeout(2, value="fast")
        results = yield sim.any_of([t1, t2])
        got.append((sim.now, list(results.values())))

    sim.process(proc())
    sim.run()
    assert got == [(2, ["fast"])]


def test_all_of_waits_for_all():
    sim = Simulator()
    got = []

    def proc():
        evs = [sim.timeout(d, value=d) for d in (1, 4, 2)]
        results = yield sim.all_of(evs)
        got.append((sim.now, sorted(results.values())))

    sim.process(proc())
    sim.run()
    assert got == [(4, [1, 2, 4])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    got = []

    def proc():
        yield sim.all_of([])
        got.append(sim.now)

    sim.process(proc())
    sim.run()
    assert got == [0.0]


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_yield_non_event_fails_even_if_caught():
    # A generator that catches the SimulationError and yields again used
    # to be silently dropped, leaving its process pending forever.  The
    # process must fail instead.
    sim = Simulator()

    def stubborn():
        try:
            yield "not an event"
        except SimulationError:
            yield sim.timeout(1.0)  # try to carry on regardless

    proc = sim.process(stubborn())
    with pytest.raises(SimulationError):
        sim.run()
    assert proc.processed
    assert not proc.ok
    assert isinstance(proc._value, SimulationError)


def test_yield_non_event_failure_wakes_waiter():
    # A parent waiting on the bad process sees the failure as a normal
    # process failure rather than the kernel blowing up.
    sim = Simulator()
    caught = []

    def stubborn():
        try:
            yield 42
        except SimulationError:
            yield sim.timeout(1.0)

    def parent():
        try:
            yield sim.process(stubborn())
        except SimulationError as exc:
            caught.append(exc)

    sim.process(parent())
    sim.run()
    assert len(caught) == 1


def test_call_at_runs_callable():
    sim = Simulator()
    fired = []
    sim.call_at(7.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [7.0]


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(9)
    assert sim.peek() == 9


def test_peek_empty_is_inf():
    sim = Simulator()
    assert sim.peek() == float("inf")


def test_nested_process_chain():
    sim = Simulator()
    trace = []

    def level3():
        yield sim.timeout(1)
        trace.append("L3")
        return 3

    def level2():
        v = yield sim.process(level3())
        trace.append("L2")
        return v + 10

    def level1():
        v = yield sim.process(level2())
        trace.append("L1")
        return v + 100

    p = sim.process(level1())
    assert sim.run(until=p) == 113
    assert trace == ["L3", "L2", "L1"]


def test_deterministic_replay():
    """Two identical simulations produce identical event orderings."""

    def build():
        sim = Simulator()
        order = []

        def w(tag, d):
            yield sim.timeout(d)
            order.append((tag, sim.now))

        for i in range(20):
            sim.process(w(i, (i * 7) % 5))
        sim.run()
        return order

    assert build() == build()


# -------------------------------------------------- terminal-event elision ----
def test_elide_done_skips_terminal_event_when_unwatched():
    """On a collapsing simulator, a finishing process nobody waits on is
    marked processed directly — no terminal calendar event."""

    def fire_and_forget(sim):
        yield sim.timeout(1.0)

    baseline = Simulator()
    baseline.process(fire_and_forget(baseline), name="p")
    baseline.run()
    elided = Simulator(collapse=True)
    proc = elided.process(fire_and_forget(elided), name="p")
    elided.run()
    assert elided.events_processed == baseline.events_processed - 1
    assert proc.processed


def test_elide_done_keeps_terminal_for_waiters():
    """A watched process still delivers its value through the calendar."""
    sim = Simulator(collapse=True)
    got = []

    def child():
        yield sim.timeout(1.0)
        return "answer"

    def parent():
        value = yield sim.process(child(), name="c")
        got.append((sim.now, value))

    sim.process(parent(), name="p")
    sim.run()
    assert got == [(1.0, "answer")]


def test_elide_done_late_waiter_sees_value():
    """Yielding an already-elided process feeds its value straight back."""
    sim = Simulator(collapse=True)

    def child():
        yield sim.timeout(1.0)
        return 42

    proc = sim.process(child(), name="c")
    got = []

    def late_parent():
        yield sim.timeout(5.0)  # child finished (and was elided) long ago
        value = yield proc
        got.append((sim.now, value))

    sim.process(late_parent(), name="p")
    sim.run()
    assert got == [(5.0, 42)]


def test_elide_done_failures_still_surface():
    """Elision only applies to clean exits: an unwatched failure must
    still raise out of run() exactly as the golden kernel does."""
    sim = Simulator(collapse=True)

    def boom():
        yield sim.timeout(1.0)
        raise RuntimeError("kept")

    sim.process(boom(), name="b")
    with pytest.raises(RuntimeError, match="kept"):
        sim.run()
