"""Tests for the database manager's transaction path and work routing."""

import pytest

from repro import RunOptions
from repro.cf import LockMode
from repro.config import DatabaseConfig, SysplexConfig
from repro.runner import build_loaded_sysplex
from repro.subsystems.txn import ListQueueRouter
from repro.workloads.oltp import Transaction


def small_cfg(n_systems=2, **kw):
    return SysplexConfig(
        n_systems=n_systems,
        db=DatabaseConfig(n_pages=6_000, buffer_pages=2_000),
        **kw,
    )


def make_plex(n=2, **kw):
    plex, gen = build_loaded_sysplex(small_cfg(n, **kw), options=RunOptions(terminals_per_system=0))
    return plex


def txn(txn_id, reads, writes, home=0):
    return Transaction(txn_id=txn_id, arrival=0.0, home=home,
                       reads=reads, writes=writes)


# ------------------------------------------------------------ database ----
def test_execute_commits_and_releases_everything():
    plex = make_plex()
    inst = plex.instances["SYS00"]
    done = []

    def work():
        yield from inst.db.execute(1, reads=[10, 20], writes=[30])
        done.append(plex.sim.now)

    plex.sim.process(work())
    plex.sim.run(until=2)
    assert done
    assert inst.db.commits == 1
    owner = ("SYS00", 1)
    assert owner not in inst.lockmgr.held
    assert not plex.lock_space.holders_of(30)
    assert owner not in inst.log.in_flight
    # the committed page went to the CF (force-at-commit, data sharing)
    assert inst.buffers.pages_written == 1
    cache = plex.xes.find("GBP0")
    assert cache.version_of(30) == 1


def test_execute_holds_locks_until_commit():
    """Strict 2PL: a conflicting transaction on another system waits for
    the first one's commit."""
    plex = make_plex()
    a, b = plex.instances["SYS00"], plex.instances["SYS01"]
    order = []

    def first():
        yield from a.db.execute(1, reads=[], writes=[5])
        order.append(("a-done", plex.sim.now))

    def second():
        yield plex.sim.timeout(1e-4)
        yield from b.db.execute(2, reads=[5], writes=[])
        order.append(("b-done", plex.sim.now))

    plex.sim.process(first())
    plex.sim.process(second())
    plex.sim.run(until=2)
    assert [o[0] for o in order] == ["a-done", "b-done"]
    assert order[1][1] >= order[0][1]


def test_abort_undoes_and_releases():
    plex = make_plex()
    inst = plex.instances["SYS00"]

    def work():
        owner = ("SYS00", 7)
        yield from inst.lockmgr.lock(owner, 42, LockMode.EXCL)
        yield from inst.buffers.get_page(42)
        inst.buffers.mark_dirty(42)
        inst.log.log_update(owner, 42)
        yield from inst.db.abort(7)

    plex.sim.process(work())
    plex.sim.run(until=2)
    assert inst.db.aborts == 1
    assert not plex.lock_space.holders_of(42)
    assert ("SYS00", 7) not in inst.log.in_flight


def test_reads_in_write_set_locked_once_exclusively():
    plex = make_plex()
    inst = plex.instances["SYS00"]

    def work():
        yield from inst.db.execute(1, reads=[5, 6], writes=[5])

    plex.sim.process(work())
    plex.sim.run(until=2)
    assert inst.db.commits == 1  # no self-deadlock on page 5


def test_peer_sees_committed_version():
    plex = make_plex()
    a, b = plex.instances["SYS00"], plex.instances["SYS01"]
    sources = []

    def scenario():
        yield from b.db.execute(1, reads=[9], writes=[])  # b caches page 9
        yield from a.db.execute(2, reads=[], writes=[9])  # a updates it
        src = yield from b.buffers.get_page(9)            # b re-reads
        sources.append(src)

    plex.sim.process(scenario())
    plex.sim.run(until=2)
    assert sources == ["cf"]  # refreshed from the CF, at the new version


# ---------------------------------------------------------------- router ----
def test_local_policy_routes_home():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(
        terminals_per_system=0, router_policy="local"))
    plex.router.route(txn(1, [1], [2], home=1))
    plex.sim.run(until=1)
    assert plex.instances["SYS01"].tm.completed == 1
    assert plex.instances["SYS00"].tm.completed == 0
    assert plex.router.shipped == 0


def test_dead_home_rerouted():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(
        terminals_per_system=0, router_policy="local"))
    plex.nodes[1].fail()
    plex.router.route(txn(1, [1], [2], home=1))
    plex.sim.run(until=1)
    assert plex.instances["SYS00"].tm.completed == 1


def test_shipped_work_counted_and_charged():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(
        terminals_per_system=0, router_policy="wlm"))
    # make home look saturated so WLM steers away
    plex.wlm._systems["SYS00"].util = 0.99
    plex.wlm._systems["SYS01"].util = 0.01
    for i in range(10):
        plex.router.route(txn(i, [i], [100 + i], home=0))
    plex.sim.run(until=2)
    assert plex.router.shipped > 0
    assert plex.instances["SYS01"].tm.completed > 5


def test_router_rejects_unknown_policy():
    with pytest.raises(ValueError):
        build_loaded_sysplex(small_cfg(2), options=RunOptions(
            router_policy="chaos", terminals_per_system=0))


# ------------------------------------------------------- list-queue router ----
def test_list_queue_router_distributes_from_one_entry_point():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(terminals_per_system=0))
    connections = {
        name: inst.xes_list for name, inst in plex.instances.items()
    }
    router = ListQueueRouter(
        plex.sim, [i.tm for i in plex.instances.values()], connections
    )
    for i in range(30):
        router.route(txn(i, [i], [500 + i], home=0))
    plex.sim.run(until=3)
    done = {n: i.tm.completed for n, i in plex.instances.items()}
    assert sum(done.values()) == 30
    assert all(v > 0 for v in done.values())  # both systems served
    assert router.pushed == 30


def test_list_queue_survives_server_death():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(terminals_per_system=0))
    connections = {
        name: inst.xes_list for name, inst in plex.instances.items()
    }
    router = ListQueueRouter(
        plex.sim, [i.tm for i in plex.instances.values()], connections
    )
    plex.sim.call_at(0.05, plex.nodes[1].fail)
    for i in range(20):
        router.route(txn(i, [i], [700 + i], home=0))
    plex.sim.run(until=5)
    # SYS00 drains everything SYS01 didn't manage before dying
    total = sum(i.tm.completed + i.tm.failed_txns
                for i in plex.instances.values())
    assert plex.instances["SYS00"].tm.completed > 0
    assert total <= 20  # nothing duplicated
