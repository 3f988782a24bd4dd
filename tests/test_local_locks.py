"""Locking on systems without data sharing.

A system that shares no data keeps no CF lock structure: the shared
software lock space alone decides who holds what.  These tests pin what
that space must still do on the local path (queue a conflict, break a
deadlock, leave nothing behind after commit) and that peer recovery of a
failed non-sharing system releases its retained locks.
"""

from repro import DatabaseConfig, Sysplex, SysplexConfig
from repro.cf.lock import LockMode
from repro.experiments.common import scaled_config
from repro.runner import build_loaded_sysplex
from repro.subsystems.lockmgr import DeadlockAbort


def small_cfg(n_systems=1, **kw):
    return SysplexConfig(
        n_systems=n_systems,
        db=DatabaseConfig(n_pages=12_000, buffer_pages=4_000),
        **kw,
    )


def local_plex():
    return Sysplex(small_cfg(1, data_sharing=False, n_cfs=0))


def test_excl_conflict_queues_until_release():
    plex = local_plex()
    sim, space = plex.sim, plex.lock_space
    lm = plex.instances["SYS00"].lockmgr
    first, second = ("SYS00", 1), ("SYS00", 2)
    seen = {}

    def holder():
        yield from lm.lock(first, "R", LockMode.EXCL)
        yield sim.timeout(0.01)
        seen["released"] = sim.now
        yield from lm.unlock_all(first)

    def requester():
        yield sim.timeout(0.001)
        waits = space.waits
        yield from lm.lock(second, "R", LockMode.EXCL)
        seen["waits"] = space.waits - waits
        seen["granted"] = sim.now
        yield from lm.unlock_all(second)

    sim.process(holder())
    sim.process(requester())
    sim.run(until=0.1)
    assert seen["waits"] == 1
    assert seen["granted"] > seen["released"]


def test_deadlock_detector_aborts_the_younger_owner():
    plex = local_plex()
    sim, space = plex.sim, plex.lock_space
    lm = plex.instances["SYS00"].lockmgr
    older, younger = ("SYS00", 1), ("SYS00", 2)
    outcome = {}

    def txn(owner, mine, theirs, delay):
        yield from lm.lock(owner, mine, LockMode.EXCL)
        yield sim.timeout(delay)
        try:
            yield from lm.lock(owner, theirs, LockMode.EXCL)
        except DeadlockAbort:
            outcome[owner] = "aborted"
        else:
            outcome[owner] = "committed"
        yield from lm.unlock_all(owner)

    sim.process(txn(older, "A", "B", 0.01))
    sim.process(txn(younger, "B", "A", 0.02))
    sim.run(until=2.0)
    assert outcome == {older: "committed", younger: "aborted"}
    assert space.deadlocks == 1


def test_lock_state_is_empty_after_commit():
    plex = local_plex()
    sim, space = plex.sim, plex.lock_space
    lm = plex.instances["SYS00"].lockmgr
    committed = []

    def txn(owner, plan):
        for resource, mode in plan:
            yield from lm.lock(owner, resource, mode)
            yield sim.timeout(0.001)
        yield from lm.unlock_all(owner)
        committed.append(owner)

    plan = [("P1", LockMode.SHR), ("P2", LockMode.EXCL)]
    sim.process(txn(("SYS00", 1), plan))
    sim.process(txn(("SYS00", 2), plan))
    sim.run(until=0.5)
    assert len(committed) == 2
    assert space._resources == {}
    assert all(not mgr.held for mgr in space.managers.values())


def test_non_sharing_peer_recovery_releases_retained_locks():
    # SYS01 crashes at 0.3 s; SYS00 recovers it at about 4.07 s
    plex, _ = build_loaded_sysplex(scaled_config(2, data_sharing=False, seed=1))
    plex.injector.crash_system(plex.nodes[1], at=0.3)
    plex.sim.run(until=4.5)
    assert [name for _t, name, _n in plex.recovery.recoveries] == ["SYS01"]
    assert plex.lock_space.retained == {}
    assert plex.metrics.counter("failures.recovered").count == 1
    assert not [e for e in plex.degraded_events if "recovery-failed" in e[1]]
