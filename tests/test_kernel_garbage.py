"""Spent kernel objects die by reference count, not as cyclic garbage.

A granted :class:`Request` whose value was itself, a finished
:class:`Process` still holding its bound resume callback, an aborted
lock wait whose traceback held its waiter, and the deadlock detector's
recursive closure were each a reference cycle; on a long run they piled
up until the cycle collector ran (or, with it paused, until the run
ended).  These checks run a scenario with ``DEBUG_SAVEALL`` set and the
simulator still referenced, then ask ``gc.collect()`` what it found.
"""

import gc
from collections import Counter

import pytest

from repro import RunOptions
from repro.experiments.common import scaled_config
from repro.runner import build_loaded_sysplex
from repro.simkernel import Resource, SimulationError, Simulator
from repro.subsystems import DeadlockAbort
from repro.subsystems.lockmgr import DeadlockDetector, LockMode

#: the kernel's transient objects: none of them may be cyclic garbage
KERNEL_TYPES = {"Request", "Process", "generator", "method"}


def cyclic_garbage(body):
    """Run ``body()`` with the collector paused and ``DEBUG_SAVEALL`` set.

    Returns the type names ``gc.collect()`` found unreachable, counted,
    while ``body``'s return value is still referenced.  The collector's
    state is restored afterwards.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    # free what earlier code left first; finalizing a suspended generator
    # defers what its frame reaches to a later pass, so repeat until a
    # pass finds nothing
    while gc.collect():
        pass
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        keep = body()
        gc.collect()
        found = Counter(type(o).__name__ for o in gc.garbage)
        del keep
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return found


def of_types(found, names=KERNEL_TYPES):
    return {name: n for name, n in found.items() if name in names}


def test_spent_requests_and_processes_are_not_cyclic():
    def body():
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def holder(tag, hold):
            with res.request() as req:
                yield req  # the first is granted at once, the rest queue
                log.append(tag)
                yield sim.timeout(hold)
            return hold

        def withdrawn():
            yield sim.timeout(0.5)
            req = res.request()  # queued behind the holders
            yield sim.timeout(1)
            req.cancel()  # withdrawn before its grant
            log.append("withdrawn")

        def claimer():
            yield sim.timeout(50)
            assert res.claim()
            yield sim.timeout(1)
            res.unclaim()
            log.append("claimed")

        def parent():
            kids = [sim.process(holder(t, 5)) for t in "abc"]
            total = 0
            for kid in kids:
                total += yield kid  # waits on other processes
            log.append(total)

        sim.process(parent())
        sim.process(withdrawn())
        sim.process(claimer())
        sim.run()
        assert log == ["a", "withdrawn", "b", "c", 15, "claimed"]
        return sim

    assert of_types(cyclic_garbage(body)) == {}


def test_granted_request_value_is_none():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first, second = res.request(), res.request()

    def release_first():
        yield sim.timeout(1)
        first.cancel()

    sim.process(release_first())
    sim.run()
    assert first.value is None  # immediate grant
    assert second.value is None  # granted from the queue


def test_every_exit_drops_the_resume_callback():
    sim = Simulator()

    def returns():
        yield sim.timeout(1)

    def raises():
        yield sim.timeout(1)
        raise KeyError("boom")

    def yields_non_event():
        yield 42

    procs = [sim.process(g()) for g in (returns, raises, yields_non_event)]
    errors = []

    def watcher(proc):
        try:
            yield proc
        except (KeyError, SimulationError) as exc:
            errors.append(type(exc).__name__)

    for proc in procs:
        sim.process(watcher(proc))
    sim.run()
    assert errors == ["SimulationError", "KeyError"]
    # a process that fails keeps its exception, whose traceback is a
    # cycle of its own; what matters is that it no longer refers to
    # itself through its callback
    assert [p._cb for p in procs] == [None, None, None]


def test_aborted_lock_wait_is_not_cyclic(miniplex):
    mp = miniplex
    detector = DeadlockDetector(mp.sim, mp.space, interval=0.05)

    def txn(i, first, second):
        owner = (f"SYS{i:02d}", i)
        try:
            yield from mp.lockmgrs[i].lock(owner, first, LockMode.EXCL)
            yield mp.sim.timeout(0.01)
            yield from mp.lockmgrs[i].lock(owner, second, LockMode.EXCL)
        except DeadlockAbort:
            pass
        yield from mp.lockmgrs[i].unlock_all(owner)

    def body():
        mp.run(txn(0, "X", "Y"), txn(1, "Y", "X"), until=1)
        return mp

    found = cyclic_garbage(body)
    assert detector.victims == 1
    # the abort's traceback, and the detector's depth-first search
    aborted_wait = {"DeadlockAbort", "_Waiter", "function"}
    assert of_types(found, KERNEL_TYPES | aborted_wait) == {}


@pytest.mark.parametrize("profile", ["verify", "sweep"])
def test_model_run_leaves_no_kernel_garbage(profile):
    config = scaled_config(2, 1, seed=1)

    def body():
        plex, _gen = build_loaded_sysplex(config, options=RunOptions(profile=profile))
        plex.sim.run(until=0.1)
        assert plex.sim.events_processed > 1000
        return plex

    assert of_types(cyclic_garbage(body)) == {}
