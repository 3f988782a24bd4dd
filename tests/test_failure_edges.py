"""Edge-case failure tests: fail-stop of zombies, CPU purge, link
outages, CF death mid-command."""


from repro import RunOptions
from repro.config import DatabaseConfig, SysplexConfig
from repro.hardware import LinkDownError, SystemNode
from repro.hardware.cpu import SystemDown
from repro.runner import build_loaded_sysplex
from repro.simkernel import Simulator


def small_cfg(n=3, **kw):
    return SysplexConfig(
        n_systems=n,
        db=DatabaseConfig(n_pages=8_000, buffer_pages=3_000),
        **kw,
    )


# ------------------------------------------------------ SFM fail-stop ----
def test_sfm_terminates_zombie_system():
    """A system that stops heartbeating while still 'running' is
    fail-stopped by SFM (the paper's flaky-processor scenario)."""
    plex, gen = build_loaded_sysplex(small_cfg(3), options=RunOptions(terminals_per_system=2))
    victim = plex.nodes[1]
    # break ONLY the heartbeat: the node stays alive (zombie-ish)
    plex.sim.call_at(1.0, lambda: setattr(victim, "_zombie", True))
    original_loop_interval = plex.config.xcf.heartbeat_interval

    # monkey-patch: CDS updates from the victim stop landing
    orig_update = plex.cds.update

    def filtered_update(holder, key, value):
        if getattr(victim, "_zombie", False) and holder == victim.name:
            yield plex.sim.timeout(0)  # write lost
            return
        yield from orig_update(holder, key, value)

    plex.cds.update = filtered_update
    plex.sim.run(until=6.0)
    # the detector terminated and fenced the zombie
    assert not victim.alive
    assert victim.fenced
    assert plex.monitor.detections == 1


def test_cpu_purge_fails_queued_work():
    sim = Simulator()
    node = SystemNode(sim, SysplexConfig(n_systems=1), 0)
    outcomes = []

    def worker(tag):
        try:
            yield from node.cpu.consume(0.5)
            outcomes.append((tag, "done"))
        except SystemDown:
            outcomes.append((tag, "killed"))

    sim.process(worker("running"))   # gets the engine
    sim.process(worker("queued"))    # waits behind it

    def killer():
        yield sim.timeout(0.1)
        node.fail()

    sim.process(killer())
    sim.run(until=2.0)
    states = dict(outcomes)
    # the queued request was failed immediately by the purge
    assert states["queued"] == "killed"
    # the running one burned out its grant but its completion is moot
    assert "running" in states


def test_purge_counts():
    sim = Simulator()
    node = SystemNode(sim, SysplexConfig(n_systems=1), 0)

    def worker():
        try:
            yield from node.cpu.consume(1.0)
        except SystemDown:
            pass

    for _ in range(4):
        sim.process(worker())
    sim.run(until=0.01)
    assert node.cpu.engines.in_use == 1
    purged = node.cpu.purge_queued()
    assert purged == 3
    sim.run(until=2)


# ------------------------------------------------------ link outages ----
def test_all_links_down_fails_cf_commands():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(terminals_per_system=0))
    inst = plex.instances["SYS00"]
    links = inst.node.cf_links["CF01"]
    for i in range(len(links.links)):
        links.fail_link(i)
    failed = []

    def work():
        try:
            yield from inst.buffers.get_page(1)
        except LinkDownError:
            failed.append(True)
        except Exception as exc:  # lock path raises before buffers
            failed.append(type(exc).__name__)

    def locked():
        from repro.cf import LockMode

        try:
            yield from inst.lockmgr.lock(("SYS00", 1), 5, LockMode.SHR)
        except LinkDownError:
            failed.append("lock-down")

    plex.sim.process(locked())
    plex.sim.run(until=1.0)
    assert "lock-down" in failed


def test_single_link_failure_is_transparent():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(terminals_per_system=3))
    inst = plex.instances["SYS00"]
    inst.node.cf_links["CF01"].fail_link(0)
    plex.sim.run(until=1.0)
    # work continues over the surviving link
    assert inst.tm.completed > 0
    assert plex.metrics.counter("txn.failed").count == 0


def test_cf_death_mid_run_without_backup_fails_txns():
    plex, gen = build_loaded_sysplex(small_cfg(2), options=RunOptions(terminals_per_system=3))
    plex.sim.run(until=0.3)
    done_before = plex.metrics.counter("txn.completed").count
    plex.cfs[0].fail()
    plex.sim.run(until=1.0)
    assert plex.metrics.counter("txn.failed").count > 0
    # software lock state was cleaned by abandon: nothing leaks
    for name, r in plex.lock_space._resources.items():
        assert not r.waiters or r.holders


# ------------------------------------------------------ chaos-found edges ----
def test_rolling_maintenance_with_zero_gap():
    """gap=0 makes each restart coincide with the next crash; exactly one
    system is ever down and the plex survives the whole roll."""
    plex, gen = build_loaded_sysplex(
        small_cfg(3), options=RunOptions(terminals_per_system=2))
    down_watch = []

    def census():
        while True:
            yield plex.sim.timeout(0.05)
            down_watch.append(sum(1 for n in plex.nodes if not n.alive))

    plex.sim.process(census())
    plex.injector.rolling_maintenance(plex.nodes, start=1.0, outage=0.5,
                                      gap=0.0)
    plex.sim.run(until=1.0 + 3 * 0.5 + 2.0)
    assert all(n.alive for n in plex.nodes)
    assert max(down_watch) == 1  # never two down at once, even at gap=0
    labels = [label for _, label in plex.injector.log_events()]
    assert labels.count("crash:SYS00") == 1
    assert sum(1 for la in labels if la.startswith("crash")) == 3
    assert sum(1 for la in labels if la.startswith("restart")) == 3
    assert plex.metrics.counter("txn.completed").count > 0


def test_contributor_crash_mid_rebuild_does_not_hang_recovery():
    """A system dying while contributing to a structure rebuild must not
    hang the recovery every other system is waiting on."""
    plex, gen = build_loaded_sysplex(
        small_cfg(3, n_cfs=2), options=RunOptions(terminals_per_system=0))
    victim = plex.nodes[2]
    plex.injector.at(0.5, "cf-fail:CF01", plex.cfs[0].fail)
    # prewarmed buffer pools make the cache contribution ~1ms of CF
    # service, so +0.5ms lands mid-rebuild with contributions in flight
    plex.injector.crash_system(victim, at=0.5005)
    plex.sim.run(until=4.0)
    started = plex.metrics.counter("cf.rebuilds_started").count
    finished = plex.metrics.counter("cf.rebuilds").count
    abandoned = sum(1 for _t, la in plex.degraded_events
                    if la.startswith("rebuild-abandoned"))
    assert started >= 1
    assert finished + abandoned == started  # terminated, not hung
    # the survivors reconnected to the rebuilt structures
    for name in ("SYS00", "SYS01"):
        inst = plex.instances[name]
        assert not inst.xes_lock.structure.lost
        assert inst.xes_lock.structure.facility is plex.cfs[1]


def test_contributor_link_loss_mid_rebuild_is_recorded():
    """A contributor whose CF connectivity dies mid-contribution is
    recorded in contributor_failures; the rebuild completes without it."""
    plex, gen = build_loaded_sysplex(
        small_cfg(3, n_cfs=2), options=RunOptions(terminals_per_system=0))
    victim = plex.nodes[2]
    plex.injector.at(0.5, "cf-fail:CF01", plex.cfs[0].fail)
    # sever the victim's path to the rebuild target while its ~1ms cache
    # contribution is in flight: the command dies with an interface
    # control check
    links = victim.cf_links[plex.cfs[1].name]
    for i in range(len(links.links)):
        plex.injector.at(0.5005, f"link-fail:{links.name}.{i}",
                         lambda i=i: links.fail_link(i))
    plex.sim.run(until=2.0)
    assert plex.metrics.counter("cf.rebuilds").count == 1
    rows = plex.xes.contributor_failures
    assert any(r[1] == victim.name for r in rows), rows


def test_dasd_path_repair_races_peer_recovery():
    """Losing DASD paths under the failed system's log, then repairing
    them while peer recovery reads that log, must not wedge recovery."""
    from repro.config import ArmConfig, XcfConfig

    plex, gen = build_loaded_sysplex(
        small_cfg(3,
                  arm=ArmConfig(restart_time=0.5, log_replay_time=0.3),
                  xcf=XcfConfig(heartbeat_interval=0.25)),
        options=RunOptions(terminals_per_system=2))
    victim = plex.instances["SYS02"]
    log_dev = victim.db.log.device
    # degrade the log device before the crash, repair mid-recovery
    plex.injector.at(0.4, f"path-fail:{log_dev.name}", log_dev.fail_path)
    plex.injector.at(0.45, f"path-fail:{log_dev.name}", log_dev.fail_path)
    plex.injector.crash_system(victim.node, at=0.5)
    plex.injector.at(1.3, f"path-repair:{log_dev.name}", log_dev.repair_path)
    plex.injector.at(1.5, f"path-repair:{log_dev.name}", log_dev.repair_path)
    plex.injector.restart_system(victim.node, at=3.0)
    done_mid = None

    def snapshot():
        yield plex.sim.timeout(4.0)
        nonlocal done_mid
        done_mid = plex.metrics.counter("txn.completed").count

    plex.sim.process(snapshot())
    plex.sim.run(until=6.0)
    assert plex.recovery.recoveries, "peer recovery never completed"
    assert not any(s == "SYS02" for s, _m in plex.lock_space.retained.values())
    assert log_dev.available_paths == log_dev.config.paths
    assert all(n.alive for n in plex.nodes)  # restarted and rejoined
    # service continued after recovery + repair
    assert plex.metrics.counter("txn.completed").count > done_mid


# ------------------------------------------------------ shape checkers ----
def test_fig3_shape_checker_catches_bad_curves():
    from repro.experiments.fig3_scalability import check_shape

    good = {
        "tcmp": [
            {"physical": 1, "itr_effective": 1.0, "itr_efficiency": 1.0},
            {"physical": 4, "itr_effective": 3.5, "itr_efficiency": 0.875},
            {"physical": 10, "itr_effective": 7.4, "itr_efficiency": 0.74},
        ],
        "sysplex": [
            {"physical": 2, "itr_effective": 1.7, "itr_efficiency": 0.85},
            {"physical": 32, "itr_effective": 26.0, "itr_efficiency": 0.81},
        ],
    }
    assert check_shape(good) == []
    bad = {
        "tcmp": good["tcmp"],
        "sysplex": [
            {"physical": 2, "itr_effective": 1.7, "itr_efficiency": 0.85},
            {"physical": 32, "itr_effective": 16.0, "itr_efficiency": 0.50},
        ],
    }
    assert check_shape(bad)  # drooping sysplex must be flagged


def test_coherency_shape_checker():
    from repro.experiments.exp_coherency import check_shape

    good = [
        {"systems": 2, "cf_cpu_ms": 3.0, "bcast_cpu_ms": 3.4,
         "cf_tput": 600, "bcast_tput": 500},
        {"systems": 12, "cf_cpu_ms": 3.1, "bcast_cpu_ms": 8.0,
         "cf_tput": 3000, "bcast_tput": 1400},
    ]
    assert check_shape(good) == []
    bad = [
        {"systems": 2, "cf_cpu_ms": 3.0, "bcast_cpu_ms": 3.4,
         "cf_tput": 600, "bcast_tput": 500},
        {"systems": 12, "cf_cpu_ms": 5.0, "bcast_cpu_ms": 3.4,
         "cf_tput": 1000, "bcast_tput": 1400},
    ]
    assert check_shape(bad)


def test_dss_shape_checker():
    from repro.experiments.exp_dss import check_shape

    good = [
        {"parallelism": 1, "speedup": 1.0, "efficiency": 1.0},
        {"parallelism": 4, "speedup": 3.5, "efficiency": 0.875},
        {"parallelism": 16, "speedup": 10.0, "efficiency": 0.625},
    ]
    assert check_shape(good) == []
    bad = [
        {"parallelism": 1, "speedup": 1.0, "efficiency": 1.0},
        {"parallelism": 4, "speedup": 1.2, "efficiency": 0.3},
        {"parallelism": 16, "speedup": 1.3, "efficiency": 0.08},
    ]
    assert check_shape(bad)
