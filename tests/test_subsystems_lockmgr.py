"""Tests for the global lock manager: fast path, negotiation, deadlocks,
retained locks."""


from repro.cf import LockMode
from repro.subsystems import DeadlockAbort
from repro.subsystems.lockmgr import DeadlockDetector

from conftest import MiniPlex


def test_uncontended_lock_granted_in_microseconds(miniplex):
    mp = miniplex
    times = []

    def work():
        t0 = mp.sim.now
        yield from mp.lockmgrs[0].lock(("SYS00", 1), "res", LockMode.EXCL)
        times.append(mp.sim.now - t0)

    mp.run(work())
    assert times[0] < 100e-6  # microseconds, the paper's headline
    assert mp.lockmgrs[0].sync_grants == 1


def test_shared_locks_concurrent_across_systems(miniplex):
    mp = miniplex
    granted = []

    def reader(i):
        yield from mp.lockmgrs[i].lock((f"SYS{i:02d}", 1), "page", LockMode.SHR)
        granted.append(i)

    mp.run(reader(0), reader(1))
    assert sorted(granted) == [0, 1]


def test_exclusive_blocks_until_release(miniplex):
    mp = miniplex
    events = []

    def holder():
        yield from mp.lockmgrs[0].lock(("SYS00", 1), "page", LockMode.EXCL)
        events.append(("held", mp.sim.now))
        yield mp.sim.timeout(0.01)
        yield from mp.lockmgrs[0].unlock(("SYS00", 1), "page", LockMode.EXCL)

    def waiter():
        yield mp.sim.timeout(0.001)
        yield from mp.lockmgrs[1].lock(("SYS01", 2), "page", LockMode.EXCL)
        events.append(("granted", mp.sim.now))

    mp.run(holder(), waiter())
    assert events[0][0] == "held"
    assert events[1][0] == "granted"
    assert events[1][1] >= 0.01  # waited for the release


def test_no_incompatible_holders_ever(miniplex4):
    """2PL safety invariant under concurrent conflicting requests."""
    mp = miniplex4

    def txn(i, n):
        owner = (f"SYS{i:02d}", n)
        yield mp.sim.timeout(0.0001 * n)
        yield from mp.lockmgrs[i].lock(owner, "hot", LockMode.EXCL)
        mp.space.check_invariant()
        yield mp.sim.timeout(0.002)
        mp.space.check_invariant()
        yield from mp.lockmgrs[i].unlock_all(owner)

    procs = [txn(i, n) for i in range(4) for n in range(5)]
    mp.run(*procs, until=30)
    mp.space.check_invariant()
    assert not mp.space._resources  # everything released


def test_unlock_all_batches_one_command(miniplex):
    mp = miniplex
    mgr = mp.lockmgrs[0]

    def work():
        owner = ("SYS00", 1)
        for r in ("a", "b", "c", "d"):
            yield from mgr.lock(owner, r, LockMode.EXCL)
        ops_before = mgr.xes.port.sync_ops
        yield from mgr.unlock_all(owner)
        assert mgr.xes.port.sync_ops == ops_before + 1  # one batched sweep
        assert owner not in mgr.held

    mp.run(work())


def test_false_contention_negotiated_then_granted():
    """With a 1-entry lock table everything collides; different resources
    must still be grantable after (costly) negotiation."""
    mp = MiniPlex(lock_entries=1)
    done = []

    def a():
        yield from mp.lockmgrs[0].lock(("SYS00", 1), "resA", LockMode.EXCL)
        done.append("a")

    def b():
        yield mp.sim.timeout(0.001)
        t0 = mp.sim.now
        yield from mp.lockmgrs[1].lock(("SYS01", 2), "resB", LockMode.EXCL)
        done.append(("b", mp.sim.now - t0))

    mp.run(a(), b())
    assert done[0] == "a"
    tag, elapsed = done[1]
    # negotiation costs messaging latency, much slower than the fast path
    assert elapsed > mp.config.xcf.message_latency
    assert mp.lockmgrs[1].negotiations >= 1
    structure = mp.xes.find("LOCK")
    assert structure.false_contention >= 1


def test_deadlock_detected_and_victim_aborted(miniplex):
    mp = miniplex
    detector = DeadlockDetector(mp.sim, mp.space, interval=0.05)
    outcomes = []

    def txn(i, first, second):
        owner = (f"SYS{i:02d}", i)
        try:
            yield from mp.lockmgrs[i].lock(owner, first, LockMode.EXCL)
            yield mp.sim.timeout(0.01)
            yield from mp.lockmgrs[i].lock(owner, second, LockMode.EXCL)
            outcomes.append((i, "completed"))
            yield from mp.lockmgrs[i].unlock_all(owner)
        except DeadlockAbort:
            outcomes.append((i, "aborted"))
            yield from mp.lockmgrs[i].unlock_all(owner)

    mp.run(txn(0, "X", "Y"), txn(1, "Y", "X"), until=5)
    assert ("0", "x") or True
    states = {o for _i, o in outcomes}
    assert states == {"completed", "aborted"}
    assert detector.victims == 1
    assert not mp.space._resources


def test_deadlock_victim_is_youngest(miniplex):
    mp = miniplex
    DeadlockDetector(mp.sim, mp.space, interval=0.05)
    aborted = []

    def txn(i, first, second, start):
        owner = (f"SYS{i:02d}", i)
        try:
            yield mp.sim.timeout(start)
            yield from mp.lockmgrs[i].lock(owner, first, LockMode.EXCL)
            yield mp.sim.timeout(0.02)
            yield from mp.lockmgrs[i].lock(owner, second, LockMode.EXCL)
            yield from mp.lockmgrs[i].unlock_all(owner)
        except DeadlockAbort:
            aborted.append(i)
            yield from mp.lockmgrs[i].unlock_all(owner)

    # txn 1 enqueues its wait later -> younger -> should be the victim
    mp.run(txn(0, "X", "Y", 0.0), txn(1, "Y", "X", 0.005), until=5)
    assert aborted == [1]


def test_retained_locks_reject_conflicting_until_recovery(miniplex):
    """Conflicting requests against retained locks are REJECTED (IMS
    U3303-style), not queued; after recovery they succeed."""
    mp = miniplex
    from repro.subsystems.lockmgr import RetainedLockReject

    rejected = []
    got = []

    def victim():
        yield from mp.lockmgrs[0].lock(("SYS00", 1), "page", LockMode.EXCL)
        # system dies while holding the update lock

    def crash():
        yield mp.sim.timeout(0.005)
        retained = mp.lockmgrs[0].fail_instance()
        assert "page" in retained

    def requester():
        yield mp.sim.timeout(0.01)
        try:
            yield from mp.lockmgrs[1].lock(("SYS01", 2), "page", LockMode.EXCL)
        except RetainedLockReject:
            rejected.append(mp.sim.now)
        # retry after recovery
        yield mp.sim.timeout(0.2)
        yield from mp.lockmgrs[1].lock(("SYS01", 3), "page", LockMode.EXCL)
        got.append(mp.sim.now)

    def recovery():
        yield mp.sim.timeout(0.1)
        mp.space.clear_retained("SYS00")

    mp.run(victim(), crash(), requester(), recovery(), until=5)
    assert rejected and rejected[0] < 0.1  # rejected fast, not queued
    assert got and got[0] >= 0.2  # granted once recovery released it


def test_retained_locks_allow_nonconflicting_work(miniplex):
    mp = miniplex
    got = []

    def victim():
        yield from mp.lockmgrs[0].lock(("SYS00", 1), "pageA", LockMode.EXCL)

    def crash_then_work():
        yield mp.sim.timeout(0.005)
        mp.lockmgrs[0].fail_instance()
        yield from mp.lockmgrs[1].lock(("SYS01", 2), "pageB", LockMode.EXCL)
        got.append(mp.sim.now)

    mp.run(victim(), crash_then_work(), until=5)
    assert got  # unrelated page was never blocked


def test_shr_lock_on_failed_systems_resource_not_retained(miniplex):
    """Only EXCL (update) locks are retained; read locks die with the
    system."""
    mp = miniplex
    got = []

    def victim():
        yield from mp.lockmgrs[0].lock(("SYS00", 1), "page", LockMode.SHR)

    def crash_then_lock():
        yield mp.sim.timeout(0.005)
        mp.lockmgrs[0].fail_instance()
        yield from mp.lockmgrs[1].lock(("SYS01", 2), "page", LockMode.EXCL)
        got.append(mp.sim.now)

    mp.run(victim(), crash_then_lock(), until=5)
    assert got and got[0] < 0.1


def test_waiters_of_failed_system_resource_wait_for_recovery(miniplex):
    """A waiter queued behind a dying system's EXCL lock must NOT be
    granted at failure time — the data is unrecovered."""
    mp = miniplex
    got = []

    def victim():
        yield from mp.lockmgrs[0].lock(("SYS00", 1), "page", LockMode.EXCL)

    def waiter():
        yield mp.sim.timeout(0.002)
        yield from mp.lockmgrs[1].lock(("SYS01", 2), "page", LockMode.EXCL)
        got.append(mp.sim.now)

    def crash():
        yield mp.sim.timeout(0.01)
        mp.lockmgrs[0].fail_instance()

    def recovery():
        yield mp.sim.timeout(0.2)
        mp.space.clear_retained("SYS00")

    mp.run(victim(), waiter(), crash(), recovery(), until=5)
    assert got and got[0] >= 0.2


def test_record_data_written_for_excl(miniplex):
    mp = miniplex

    def work():
        yield from mp.lockmgrs[0].lock(("SYS00", 1), "page", LockMode.EXCL)

    mp.run(work())
    structure = mp.xes.find("LOCK")
    conn_id = mp.lockmgrs[0].xes.connector.conn_id
    assert "page" in structure.records_of(conn_id)


def test_record_data_deleted_on_unlock(miniplex):
    mp = miniplex

    def work():
        owner = ("SYS00", 1)
        yield from mp.lockmgrs[0].lock(owner, "page", LockMode.EXCL)
        yield from mp.lockmgrs[0].unlock_all(owner)

    mp.run(work())
    structure = mp.xes.find("LOCK")
    conn_id = mp.lockmgrs[0].xes.connector.conn_id
    assert structure.records_of(conn_id) == {}
