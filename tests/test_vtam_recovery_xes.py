"""Tests for VTAM generic resources, peer recovery, and XES services."""

import pytest

from repro import RunOptions
from repro.cf import CouplingFacility, LockMode, LockStructure
from repro.config import DatabaseConfig, SysplexConfig
from repro.mvs import XesServices
from repro.runner import build_loaded_sysplex
from repro.subsystems import GenericResources


def small_cfg(n_systems=3, n_cfs=1):
    return SysplexConfig(
        n_systems=n_systems,
        n_cfs=n_cfs,
        db=DatabaseConfig(n_pages=8_000, buffer_pages=3_000),
    )


# ----------------------------------------------------------------- VTAM ----
def make_gr(n=3):
    plex, gen = build_loaded_sysplex(small_cfg(n), options=RunOptions(terminals_per_system=0))
    connections = {
        name: inst.xes_list for name, inst in plex.instances.items()
    }
    gr = GenericResources(plex.sim, "CICS", plex.wlm, plex.nodes,
                          connections)
    return plex, gr


def test_logon_binds_and_records_in_cf_list():
    plex, gr = make_gr()
    landed = []

    def work():
        target = yield from gr.logon("alice")
        landed.append(target.name)

    plex.sim.process(work())
    plex.sim.run(until=0.5)
    assert landed and landed[0] in gr.session_counts()
    assert gr.sessions["alice"][0] == landed[0]
    st = plex.xes.find("WORKQ1")
    assert st.length(gr.affinity_header) == 1  # the affinity entry


def test_session_distribution_roughly_balanced_when_idle():
    plex, gr = make_gr()

    def work():
        for u in range(120):
            yield from gr.logon(f"user{u}")

    plex.sim.process(work())
    plex.sim.run(until=2.0)
    counts = gr.session_counts()
    assert sum(counts.values()) == 120
    assert gr.balance_index() < 1.5  # no system gets 50%+ over fair share


def test_rebind_orphans_after_failure():
    plex, gr = make_gr()

    def work():
        for u in range(30):
            yield from gr.logon(f"user{u}")

    plex.sim.process(work())
    plex.sim.run(until=1.0)
    victim = "SYS01"
    before = dict(gr.session_counts())
    orphans = gr.rebind_orphans(victim)
    assert len(orphans) == before[victim]
    assert all(sys_name != victim for sys_name, _e in gr.sessions.values())
    assert gr.session_counts()[victim] == 0


def test_logon_requires_live_system():
    plex, gr = make_gr(n=2)
    for node in plex.nodes:
        node.fail()

    def work():
        with pytest.raises(RuntimeError):
            yield from gr.logon("carol")
        yield plex.sim.timeout(0)

    plex.sim.process(work())
    plex.sim.run(until=0.2)


# -------------------------------------------------------- peer recovery ----
def test_peer_recovery_releases_retained_locks():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(terminals_per_system=0))
    failed = plex.instances["SYS01"]
    peer = plex.instances["SYS00"]
    done = []

    def scenario():
        owner = ("SYS01", 99)
        yield from failed.lockmgr.lock(owner, 1234, LockMode.EXCL)
        failed.log.log_update(owner, 1234)
        failed.node.fail()
        failed.db.fail()
        assert 1234 in plex.lock_space.retained
        n = yield from plex.recovery.recover(failed.db, peer.db)
        done.append(n)

    plex.sim.process(scenario())
    plex.sim.run(until=10)
    assert done == [1]
    assert not plex.lock_space.retained
    # persistent lock records purged from the CF structure
    structure = plex.xes.find("IRLMLOCK1")
    assert structure.records_of(failed.lockmgr.xes.connector.conn_id) == {}


def test_peer_recovery_takes_real_time():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(terminals_per_system=0))
    failed = plex.instances["SYS01"]
    peer = plex.instances["SYS00"]
    times = []

    def scenario():
        failed.node.fail()
        failed.db.fail()
        t0 = plex.sim.now
        yield from plex.recovery.recover(failed.db, peer.db)
        times.append(plex.sim.now - t0)

    plex.sim.process(scenario())
    plex.sim.run(until=10)
    assert times[0] >= plex.config.arm.log_replay_time


# ------------------------------------------------------------------ XES ----
def test_xes_structure_rebuild_into_surviving_cf():
    """CF failover at the XES level: a lost structure is rebuilt in the
    alternate CF and repopulated by the contributors' generators (paper:
    multiple CFs for availability).  Standalone — no Sysplex wiring."""
    from repro.config import CfConfig, LinkConfig
    from repro.hardware import LinkSet, SystemNode
    from repro.simkernel import Simulator

    sim = Simulator()
    cf_cfg = CfConfig()
    xes = XesServices(sim, cf_cfg)
    cf1 = CouplingFacility(sim, cf_cfg, "CF01")
    cf2 = CouplingFacility(sim, cf_cfg, "CF02")
    xes.add_facility(cf1)
    xes.add_facility(cf2)
    xes.allocate(LockStructure("L1", 1 << 12), preferred=cf1)

    nodes = []
    conns = []
    for i in range(3):
        node = SystemNode(sim, SysplexConfig(n_systems=1), i)
        node.cf_links["CF01"] = LinkSet(sim, LinkConfig())
        node.cf_links["CF02"] = LinkSet(sim, LinkConfig())
        nodes.append(node)
        conns.append(xes.connect(node, "L1"))

    def setup():
        for i, xconn in enumerate(conns):
            yield from xconn.sync(
                lambda s, c, i=i: s.request(c, f"res{i}", LockMode.EXCL)
            )

    sim.process(setup())
    sim.run(until=0.1)

    old = xes.find("L1")
    cf1.fail()
    assert old.lost

    def contribute(i):
        def fn(xconn):
            yield from xconn.sync(
                lambda s, c: s.force_record(c, f"res{i}", LockMode.EXCL)
            )

        return fn

    done = []

    def rebuild():
        new_conns = yield from xes.rebuild(
            "L1", lambda: LockStructure("L1", 1 << 12),
            {nodes[i]: contribute(i) for i in range(3)},
        )
        done.append(new_conns)

    sim.process(rebuild())
    sim.run(until=1.0)
    assert done
    new = xes.find("L1")
    assert new is not old and not new.lost
    assert new.facility is cf2
    # every contributed EXCL unit is in the rebuilt interest table
    _kind, table, _records = new.duplex_state()
    ids = {c.connector.conn_id for c in done[0].values()}
    total_units = sum(
        shr + excl
        for holds in table.values()
        for cid, names in holds.items() if cid in ids
        for shr, excl in names.values()
    )
    assert total_units == 3
    assert xes.rebuilds == 1


def test_xes_connect_unknown_structure():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(terminals_per_system=0))
    with pytest.raises(KeyError):
        plex.xes.connect(plex.nodes[0], "NOSUCH")


def test_xes_allocation_prefers_live_cf():
    from repro.simkernel import Simulator
    from repro.config import CfConfig

    sim = Simulator()
    xes = XesServices(sim, CfConfig())
    cf1 = CouplingFacility(sim, CfConfig(), "CF01")
    cf2 = CouplingFacility(sim, CfConfig(), "CF02")
    xes.add_facility(cf1)
    xes.add_facility(cf2)
    cf1.fail()
    st = LockStructure("X", 64)
    placed = xes.allocate(st, preferred=cf1)  # preferred is dead
    assert placed is cf2
