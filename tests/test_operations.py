"""Tests for the operations console: status display, graceful VARY
OFFLINE/ONLINE, and a rolling upgrade driven through them (paper §2.1
single point of control, §2.5 planned outages)."""


from repro import RunOptions
from repro.config import DatabaseConfig, SysplexConfig
from repro.runner import build_loaded_sysplex


def small_cfg(n_systems=3):
    return SysplexConfig(
        n_systems=n_systems,
        db=DatabaseConfig(n_pages=10_000, buffer_pages=3_000),
    )


def test_display_status_covers_all_systems():
    plex, gen = build_loaded_sysplex(small_cfg(3), options=RunOptions(terminals_per_system=3))
    plex.sim.run(until=0.5)
    status = plex.console.display_status()
    assert set(status) == {"SYS00", "SYS01", "SYS02"}
    assert all(s["state"] == "ACTIVE" for s in status.values())
    assert all(s["completed"] > 0 for s in status.values())
    assert all(s["in_sysplex"] for s in status.values())


def test_vary_offline_is_graceful():
    """A planned removal loses zero transactions."""
    plex, gen = build_loaded_sysplex(small_cfg(3), options=RunOptions(terminals_per_system=4))
    plex.sim.run(until=0.4)
    drained = []

    def operate():
        ok = yield from plex.console.vary_offline(plex.nodes[2])
        drained.append(ok)

    plex.sim.process(operate())
    plex.sim.run(until=3.0)
    assert drained == [True]
    node = plex.nodes[2]
    assert not node.alive
    # SFM never "detected" anything: this was planned
    assert plex.monitor.detections == 0
    assert plex.metrics.counter("failures.partitioned").count == 0
    # zero transactions lost
    assert plex.metrics.counter("txn.failed").count == 0
    # no retained locks: everything committed before departure
    assert not plex.lock_space.retained
    # survivors keep working
    before = plex.metrics.counter("txn.completed").count
    plex.sim.run(until=4.0)
    assert plex.metrics.counter("txn.completed").count > before


def test_vary_offline_quiesces_routing_immediately():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(terminals_per_system=0))
    inst = plex.instances["SYS01"]
    inst.tm.quiesced = True
    assert not inst.tm.available
    from repro.workloads.oltp import Transaction

    plex.router.route(Transaction(txn_id=1, arrival=0.0, home=1,
                                  reads=[1], writes=[2]))
    plex.sim.run(until=1.0)
    assert plex.instances["SYS00"].tm.completed == 1
    assert inst.tm.completed == 0


def test_vary_online_rejoins_with_fresh_instance():
    plex, gen = build_loaded_sysplex(small_cfg(3), options=RunOptions(terminals_per_system=3))
    plex.sim.run(until=0.4)
    old_inst = plex.instances["SYS02"]

    def operate():
        yield from plex.console.vary_offline(plex.nodes[2])
        yield plex.sim.timeout(1.0)
        plex.console.vary_online(plex.nodes[2])

    plex.sim.process(operate())
    plex.sim.run(until=5.0)
    new_inst = plex.instances["SYS02"]
    assert new_inst is not old_inst
    assert new_inst.tm.available
    assert plex.nodes[2].alive
    # the rejoined system does real work again
    assert new_inst.tm.completed > 0
    assert plex.metrics.counter("systems.rejoined").count == 1


def test_rolling_upgrade_loses_nothing():
    """§2.5: new software release levels rolled through one system at a
    time with continuous application availability.

    Uses a capacity-scaled database (see DESIGN.md §5): at test-sized
    page counts, 96 concurrent tasks lock a two-digit percentage of the
    whole page space and 2PL convoys — not the planned-outage machinery —
    dominate the measurement."""
    from repro.experiments.common import scaled_config

    plex, gen = build_loaded_sysplex(scaled_config(3), options=RunOptions(
        mode="open", offered_tps_per_system=120, router_policy="wlm"))
    plex.sim.run(until=0.5)

    done = []

    def operate():
        # the operator rolls every system through VARY OFFLINE/ONLINE,
        # one at a time
        for node in list(plex.nodes):
            yield from plex.console.vary_offline(node)
            yield plex.sim.timeout(0.8)
            plex.console.vary_online(node)
            yield plex.sim.timeout(0.5)
        done.append(plex.sim.now)

    plex.sim.process(operate())
    plex.sim.run(until=30.0)
    assert done
    assert all(n.alive for n in plex.nodes)
    # planned path: nothing detected, nothing lost, no retained locks
    assert plex.monitor.detections == 0
    assert plex.metrics.counter("txn.failed").count == 0
    assert not plex.lock_space.retained
    # the console logged six VARY commands (3 off + 3 on)
    assert len(plex.console.command_log) == 6
    # work flowed throughout
    assert plex.metrics.counter("txn.completed").count > 1000


def test_command_log_records_operator_actions():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(terminals_per_system=0))

    def operate():
        yield from plex.console.vary_offline(plex.nodes[1])
        plex.console.vary_online(plex.nodes[1])

    plex.sim.process(operate())
    plex.sim.run(until=2.0)
    cmds = [c for _t, c in plex.console.command_log]
    assert cmds == ["VARY SYS01,OFFLINE", "VARY SYS01,ONLINE"]
