"""Tests for heartbeat/SFM detection, WLM routing, and ARM restarts."""

import numpy as np
import pytest

from repro.config import (
    ArmConfig,
    CpuConfig,
    DasdConfig,
    SysplexConfig,
    WlmConfig,
    XcfConfig,
)
from repro.hardware import DasdDevice, SystemNode
from repro.mvs import (
    AutomaticRestartManager,
    CoupleDataSet,
    SysplexMonitor,
    WorkloadManager,
)
from repro.simkernel import Simulator


def make_monitor(n=3):
    sim = Simulator()
    rng = np.random.default_rng(5)
    cds = CoupleDataSet(
        sim,
        DasdDevice(sim, DasdConfig(), rng, "cds1"),
        DasdDevice(sim, DasdConfig(), rng, "cds2"),
    )
    mon = SysplexMonitor(sim, XcfConfig(), cds)
    nodes = [SystemNode(sim, SysplexConfig(), index=i) for i in range(n)]
    for node in nodes:
        mon.add_system(node)
    return sim, mon, nodes, cds


# ----------------------------------------------------------- heartbeat ----
def test_healthy_systems_stay_in_sysplex():
    sim, mon, nodes, cds = make_monitor()
    sim.run(until=5)
    assert mon.detections == 0
    assert all(mon.in_sysplex[n.name] for n in nodes)


def test_failed_system_detected_and_partitioned():
    sim, mon, nodes, cds = make_monitor()
    partitioned = []
    mon.on_partition(lambda node: partitioned.append((sim.now, node.name)))

    def killer():
        yield sim.timeout(2.0)
        nodes[1].fail()

    sim.process(killer())
    sim.run(until=10)
    assert partitioned and partitioned[0][1] == "SYS01"
    # detection within a few heartbeat intervals of the failure
    cfg = XcfConfig()
    detect_time = partitioned[0][0] - 2.0
    assert detect_time < cfg.heartbeat_interval * (cfg.heartbeat_misses + 3)
    assert nodes[1].fenced
    assert mon.in_sysplex["SYS01"] is False


def test_restarted_system_rejoins():
    sim, mon, nodes, cds = make_monitor()
    rejoined = []
    mon.on_rejoin(lambda node: rejoined.append(node.name))

    def script():
        yield sim.timeout(2.0)
        nodes[1].fail()
        yield sim.timeout(5.0)
        nodes[1].restart()

    sim.process(script())
    sim.run(until=15)
    assert rejoined == ["SYS01"]
    assert mon.in_sysplex["SYS01"] is True
    assert mon.detections == 1  # no double detection after rejoin


def test_planned_removal_uses_leave_not_failure():
    sim, mon, nodes, cds = make_monitor()
    partitioned = []
    mon.on_partition(lambda node: partitioned.append(node.name))
    # the operator's VARY OFFLINE order: leave the sysplex, then stop
    mon.remove_planned(nodes[1])
    nodes[1].fail()
    sim.run(until=10)
    assert mon.in_sysplex["SYS01"] is False
    assert mon.detections == 0
    assert partitioned == []
    assert not nodes[1].fenced


# ------------------------------------------------------------------ WLM ----
def make_wlm(n=3, n_cpus=2):
    sim = Simulator()
    rng = np.random.default_rng(11)
    wlm = WorkloadManager(sim, WlmConfig(), rng)
    nodes = [
        SystemNode(sim, SysplexConfig(cpu=CpuConfig(n_cpus=n_cpus)), index=i)
        for i in range(n)
    ]
    for node in nodes:
        wlm.watch(node)
    return sim, wlm, nodes


def test_wlm_tracks_utilization():
    sim, wlm, nodes = make_wlm()

    def burn(node):
        while True:
            yield from node.cpu.consume(0.05)
            yield sim.timeout(0.001)

    sim.process(burn(nodes[0]))  # node 0 nearly saturated on 1 of 2 engines
    sim.run(until=3)
    assert wlm.utilization("SYS00") > 0.3
    assert wlm.utilization("SYS01") < 0.05


def test_wlm_routes_away_from_busy_system():
    sim, wlm, nodes = make_wlm()

    def burn(node):
        while True:
            yield from node.cpu.consume(0.05)

    sim.process(burn(nodes[0]))
    sim.process(burn(nodes[0]))  # saturate both engines of SYS00
    sim.run(until=3)
    picks = [wlm.select_system(nodes).name for _ in range(300)]
    share0 = picks.count("SYS00") / len(picks)
    assert share0 < 0.15  # nearly all work routed to the idle systems


def test_wlm_select_skips_dead_systems():
    sim, wlm, nodes = make_wlm()
    nodes[0].fail()
    picks = {wlm.select_system(nodes).name for _ in range(50)}
    assert "SYS00" not in picks


def test_wlm_select_raises_with_no_live_system():
    sim, wlm, nodes = make_wlm()
    for n in nodes:
        n.fail()
    with pytest.raises(RuntimeError):
        wlm.select_system(nodes)


def test_wlm_least_utilized_deterministic():
    sim, wlm, nodes = make_wlm()
    wlm._systems["SYS00"].util = 0.9
    wlm._systems["SYS01"].util = 0.2
    wlm._systems["SYS02"].util = 0.5
    assert wlm.least_utilized(nodes).name == "SYS01"


def test_service_class_performance_index():
    sim, wlm, nodes = make_wlm()
    wlm.define_service_class("FAST", response_goal=0.1)
    for rt in (0.05, 0.15):
        wlm.record_response("FAST", rt)
    assert wlm.performance_index("FAST") == pytest.approx(1.0)


def test_dead_system_utilization_pinned_high():
    sim, wlm, nodes = make_wlm()

    def killer():
        yield sim.timeout(1.0)
        nodes[0].fail()

    sim.process(killer())
    sim.run(until=3)
    assert wlm.utilization("SYS00") == 1.0


# ------------------------------------------------------------------ ARM ----
def make_arm(n=3):
    sim, wlm, nodes = make_wlm(n)
    arm = AutomaticRestartManager(sim, ArmConfig(), wlm, nodes)
    return sim, wlm, arm, nodes


def test_arm_restarts_on_least_utilized(recovered=None):
    sim, wlm, arm, nodes = make_arm()
    recovered = []

    def recovery(el, target):
        recovered.append((sim.now, el.name, target.name))
        yield sim.timeout(0.1)

    arm.register("DB2A", nodes[0], recovery)
    wlm._systems["SYS01"].util = 0.8
    wlm._systems["SYS02"].util = 0.1
    nodes[0].fail()
    arm.system_failed(nodes[0])
    sim.run(until=10)
    assert recovered
    when, name, target = recovered[0]
    assert target == "SYS02"  # least utilized
    assert when >= ArmConfig().restart_time
    assert arm.elements["DB2A"].state == "running"
    assert arm.elements["DB2A"].restarts == 1


def test_arm_affinity_group_shares_target():
    sim, wlm, arm, nodes = make_arm()
    targets = []

    def recovery(el, target):
        targets.append(target.name)
        yield sim.timeout(0)

    arm.register("CICS1", nodes[0], recovery, affinity="APPL1")
    arm.register("DB2A", nodes[0], recovery, affinity="APPL1")
    nodes[0].fail()
    arm.system_failed(nodes[0])
    sim.run(until=10)
    assert len(targets) == 2 and targets[0] == targets[1]


def test_arm_restart_sequencing_levels():
    sim, wlm, arm, nodes = make_arm()
    order = []

    def recovery(el, target):
        order.append(el.name)
        yield sim.timeout(0.5)

    arm.register("APP", nodes[0], recovery, level=1)
    arm.register("DB", nodes[0], recovery, level=0)
    nodes[0].fail()
    arm.system_failed(nodes[0])
    sim.run(until=20)
    assert order == ["DB", "APP"]  # database first, then the application


def test_arm_cascaded_failure_repicks_target():
    sim, wlm, arm, nodes = make_arm()
    landed = []

    def recovery(el, target):
        landed.append(target.name)
        yield sim.timeout(0)

    arm.register("DB2A", nodes[0], recovery)
    wlm._systems["SYS01"].util = 0.0
    wlm._systems["SYS02"].util = 0.9
    nodes[0].fail()
    arm.system_failed(nodes[0])

    def second_failure():
        # SYS01 (the chosen target) dies during the restart window
        yield sim.timeout(ArmConfig().restart_time / 2)
        nodes[1].fail()

    sim.process(second_failure())
    sim.run(until=30)
    assert landed == ["SYS02"]


def test_arm_ignores_systems_with_no_elements():
    sim, wlm, arm, nodes = make_arm()
    arm.system_failed(nodes[2])  # nothing registered there
    sim.run(until=5)
    assert arm.restart_log == []
