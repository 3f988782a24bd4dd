"""Unit tests for the Resource primitive and its Request claims."""

import pytest

from repro.simkernel import Resource, Simulator


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    granted = []

    def user(tag):
        req = res.request()
        yield req
        granted.append((tag, sim.now))
        yield sim.timeout(10)
        res.release(req)

    for t in "abc":
        sim.process(user(t))
    sim.run()
    assert granted == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag, hold):
        with res.request() as req:
            yield req
            order.append(tag)
            yield sim.timeout(hold)

    for t in "abcd":
        sim.process(user(t, 1))
    sim.run()
    assert order == list("abcd")


def test_resource_priority_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            yield sim.timeout(5)

    def user(tag, prio, delay):
        yield sim.timeout(delay)
        with res.request(priority=prio) as req:
            yield req
            order.append(tag)

    sim.process(holder())
    sim.process(user("low", 5, 1))
    sim.process(user("high", 1, 2))  # arrives later but jumps the queue
    sim.run()
    assert order == ["high", "low"]


def test_resource_capacity_never_exceeded():
    sim = Simulator()
    res = Resource(sim, capacity=3)
    peak = [0]

    def user(delay):
        yield sim.timeout(delay)
        with res.request() as req:
            yield req
            peak[0] = max(peak[0], res.in_use)
            assert res.in_use <= 3
            yield sim.timeout(2)

    for i in range(20):
        sim.process(user(i % 4))
    sim.run()
    assert peak[0] == 3


def test_context_manager_releases_on_exit():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    times = []

    def user(tag):
        with res.request() as req:
            yield req
            times.append((tag, sim.now))
            yield sim.timeout(1)

    sim.process(user("x"))
    sim.process(user("y"))
    sim.run()
    assert times == [("x", 0), ("y", 1)]


def test_release_is_idempotent():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)  # second release must be harmless

    sim.process(user())
    sim.run()
    assert res.in_use == 0


def test_cancel_waiting_request_skips_grant():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            yield sim.timeout(10)

    def impatient():
        # waits at most 4 time units for the unit, then withdraws
        yield sim.timeout(1)
        req = res.request()
        yield sim.any_of([req, sim.timeout(4)])
        if not req.triggered:
            req.cancel()
            order.append(("gave-up", sim.now))

    def patient():
        yield sim.timeout(2)
        with res.request() as req:
            yield req
            order.append(("patient", sim.now))

    sim.process(holder())
    sim.process(impatient())
    sim.process(patient())
    sim.run()
    # the withdrawn request is never granted: the unit passes straight
    # to the next waiter when the holder releases it
    assert order == [("gave-up", 5), ("patient", 10)]
    assert res.in_use == 0


def test_resource_utilization_tracking():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user():
        with res.request() as req:
            yield req
            yield sim.timeout(5)

    sim.process(user())
    sim.run(until=10)
    assert res.utilization() == pytest.approx(0.5)


def test_resource_bad_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


# ------------------------------------------------------- scalar claims ----
def test_claim_holds_capacity_without_events():
    """claim() occupies a unit with no Request and no grant event."""
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.claim() is True
    assert res.claim() is True
    assert res.in_use == 2
    assert res.claim() is False  # full
    assert sim.events_processed == 0  # truly event-free
    res.unclaim()
    assert res.in_use == 1
    assert res.claim() is True


def test_claim_defers_to_queued_waiters():
    """A queued waiter keeps FIFO priority over opportunistic claims."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    got = []

    def waiter():
        req = res.request()
        yield req
        got.append(sim.now)
        req.cancel()

    sim.process(waiter(), name="w")
    sim.run(until=0.1)
    assert res.claim() is False  # busy AND a waiter queued
    first.cancel()
    sim.run(until=0.2)
    assert got and res.claim() is True


def test_unclaim_dispatches_waiters():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert res.claim() is True
    got = []

    def waiter():
        req = res.request()
        yield req
        got.append(sim.now)
        req.cancel()

    sim.process(waiter(), name="w")
    sim.run(until=0.1)
    assert got == []  # still held by the claim
    res.unclaim()
    sim.run(until=0.2)
    assert got == [0.1]


def test_claim_and_request_account_identically():
    """Busy-area statistics are identical for a scalar hold and for the
    equivalent Request/release pair."""

    def occupy(use_claim):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def holder():
            if use_claim:
                assert res.claim()
                yield sim.timeout(3.0)
                res.unclaim()
            else:
                req = res.request()
                yield req
                yield sim.timeout(3.0)
                req.cancel()
            yield sim.timeout(1.0)

        sim.process(holder(), name="h")
        sim.run()
        return res.utilization(), res.in_use

    assert occupy(True) == occupy(False)
