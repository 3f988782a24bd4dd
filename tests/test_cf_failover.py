"""Tests for CF failover: automatic structure rebuild into the alternate
CF (paper §3.3: "Multiple CF's can be connected for availability")."""


from repro import RunOptions
from repro.cf import LockMode
from repro.config import DatabaseConfig, SysplexConfig
from repro.runner import build_loaded_sysplex


def dual_cf_cfg(n_systems=3):
    return SysplexConfig(
        n_systems=n_systems,
        n_cfs=2,
        db=DatabaseConfig(n_pages=12_000, buffer_pages=4_000),
    )


def test_cf_failure_triggers_automatic_rebuild():
    plex, gen = build_loaded_sysplex(dual_cf_cfg(), options=RunOptions(terminals_per_system=4))
    plex.sim.run(until=0.3)
    old_lock = plex.xes.find("IRLMLOCK1")
    failing_cf = old_lock.facility
    surviving = next(c for c in plex.cfs if c is not failing_cf)
    failing_cf.fail()
    plex.sim.run(until=1.5)

    assert plex.metrics.counter("cf.failures").count == 1
    assert plex.metrics.counter("cf.rebuilds").count == 1
    for name in ("IRLMLOCK1", "GBP0", "WORKQ1"):
        st = plex.xes.find(name)
        assert st is not None and not st.lost
        assert st.facility is surviving
    # every instance was switched to the new connections
    for inst in plex.instances.values():
        assert inst.xes_lock.structure.facility is surviving
        assert inst.xes_lock.operational
        assert inst.buffers.xes is inst.xes_cache


def test_throughput_survives_cf_failover():
    plex, gen = build_loaded_sysplex(dual_cf_cfg(), options=RunOptions(terminals_per_system=4))
    plex.sim.run(until=0.5)
    c0 = plex.metrics.counter("txn.completed").count
    plex.xes.find("IRLMLOCK1").facility.fail()
    plex.sim.run(until=1.0)
    mid = plex.metrics.counter("txn.completed").count
    plex.sim.run(until=2.5)
    c2 = plex.metrics.counter("txn.completed").count
    # work continued after the failover (some in-flight work was lost)
    assert c2 > mid > c0
    late_rate = (c2 - mid) / 1.5
    early_rate = c0 / 0.5
    assert late_rate > 0.5 * early_rate
    # no stuck software locks: the lock space eventually drains
    assert not plex.lock_space.retained


def test_rebuild_preserves_lock_interest():
    plex, gen = build_loaded_sysplex(dual_cf_cfg(2), options=RunOptions(terminals_per_system=0))
    inst = plex.instances["SYS00"]
    held_done = []

    def holder():
        yield from inst.lockmgr.lock(("SYS00", 1), 777, LockMode.EXCL)
        held_done.append(True)
        yield plex.sim.timeout(1.0)  # keep holding across the failover

    plex.sim.process(holder())
    plex.sim.run(until=0.1)
    assert held_done
    plex.xes.find("IRLMLOCK1").facility.fail()
    plex.sim.run(until=0.8)
    new = plex.xes.find("IRLMLOCK1")
    conn = inst.lockmgr.xes.connector
    assert new is inst.lockmgr.xes.structure
    # the rebuilt structure carries the held EXCL interest + record data
    _kind, table, _records = new.duplex_state()
    assert any(holds.get(conn.conn_id, {}).get("777", [0, 0])[1]
               for holds in table.values())
    assert 777 in new.records_of(conn.conn_id)


def test_rebuild_keeps_stale_buffers_invalid():
    plex, gen = build_loaded_sysplex(dual_cf_cfg(2), options=RunOptions(terminals_per_system=0))
    a, b = plex.instances["SYS00"], plex.instances["SYS01"]
    results = []

    def scenario():
        yield from a.buffers.get_page(55)       # a caches page 55
        yield from b.buffers.get_page(55)
        b.buffers.mark_dirty(55)
        yield from b.buffers.commit_writes([55])  # a's copy goes stale
        yield plex.sim.timeout(1e-3)
        plex.xes.find("GBP0").facility.fail()
        yield plex.sim.timeout(0.5)  # rebuild completes
        # a's stale copy must NOT have been revalidated by the rebuild
        results.append(a.buffers.is_valid(55))
        # b's current copy should still be valid
        results.append(b.buffers.is_valid(55))

    plex.sim.process(scenario())
    plex.sim.run(until=2)
    assert results == [False, True]


def test_single_cf_failure_is_fatal_for_sharing():
    """With only one CF, its loss cannot be rebuilt around; transactions
    fail until it returns (the reason installations run 2 CFs)."""
    plex, gen = build_loaded_sysplex(
        SysplexConfig(n_systems=2, n_cfs=1,
                      db=DatabaseConfig(n_pages=8_000, buffer_pages=3_000)),
        options=RunOptions(terminals_per_system=3),
    )
    plex.sim.run(until=0.3)
    plex.cfs[0].fail()
    plex.sim.run(until=1.0)
    assert plex.metrics.counter("cf.rebuilds").count == 0
    assert plex.metrics.counter("txn.failed").count > 0
