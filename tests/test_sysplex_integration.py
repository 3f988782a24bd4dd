"""Integration tests: the fully wired sysplex end to end."""

import pytest

from repro import (
    CpuConfig,
    RunOptions,
    DatabaseConfig,
    Sysplex,
    SysplexConfig,
    build_loaded_sysplex,
    run_oltp,
)


def small_cfg(n_systems=2, **kw):
    # big enough that hot-page contention doesn't dominate a 4-system run
    return SysplexConfig(
        n_systems=n_systems,
        db=DatabaseConfig(n_pages=12_000, buffer_pages=4_000),
        **kw,
    )


def test_build_wires_everything():
    plex = Sysplex(small_cfg(3))
    assert len(plex.nodes) == 3
    assert len(plex.instances) == 3
    assert plex.xes.find("IRLMLOCK1") is not None
    assert plex.xes.find("GBP0") is not None
    assert plex.xes.find("WORKQ1") is not None
    inst = plex.instances["SYS00"]
    assert inst.castout is not None  # castout owner is the first system
    assert plex.instances["SYS01"].castout is None


def test_single_system_non_sharing_has_no_cf():
    plex = Sysplex(small_cfg(1, data_sharing=False, n_cfs=0))
    assert plex.cfs == []
    inst = plex.instances["SYS00"]
    assert inst.xes_cache is None
    assert not inst.buffers.data_sharing
    assert not inst.lockmgr.xes.instances()


def test_multi_system_sharing_requires_cf():
    with pytest.raises(ValueError):
        SysplexConfig(n_systems=2, n_cfs=0)


def test_config_bounds():
    with pytest.raises(ValueError):
        SysplexConfig(n_systems=33)
    with pytest.raises(ValueError):
        SysplexConfig(cpu=CpuConfig(n_cpus=11))


def test_oltp_run_completes_transactions():
    r = run_oltp(small_cfg(2), duration=0.3, warmup=0.1,
                 options=RunOptions(terminals_per_system=5))
    assert r.completed > 20
    assert r.throughput > 0
    assert 0 < r.response_mean < 1.0
    assert r.response_p95 >= r.response_p50
    assert set(r.cpu_utilization) == {"SYS00", "SYS01"}


def test_throughput_grows_with_systems():
    """Capacity scaling follows the TPC discipline: the database scales
    with the configuration (otherwise hot-page lock contention, not CPU,
    is what's being measured)."""

    def scaled(n):
        return SysplexConfig(
            n_systems=n,
            db=DatabaseConfig(n_pages=12_000 * n, buffer_pages=4_000),
            n_dasd=16 * n,
        )

    r2 = run_oltp(scaled(2), duration=0.3, warmup=0.2)
    r4 = run_oltp(scaled(4), duration=0.3, warmup=0.2)
    assert r4.throughput > 1.5 * r2.throughput


def test_data_sharing_costs_cpu_but_not_half():
    """The §4 claim at test scale: sharing costs something, far under 2x."""
    base = run_oltp(small_cfg(1, data_sharing=False, n_cfs=0),
                    duration=0.3, warmup=0.2)
    ds = run_oltp(small_cfg(2), duration=0.3, warmup=0.2)
    cpu_base = base.mean_utilization * 1 * base.duration / base.completed
    cpu_ds = ds.mean_utilization * 2 * ds.duration / ds.completed
    tax = cpu_ds / cpu_base - 1
    assert 0.02 < tax < 0.45


def test_open_loop_mode():
    r = run_oltp(small_cfg(2), duration=0.4, warmup=0.2, options=RunOptions(mode="open", offered_tps_per_system=50))
    assert r.throughput == pytest.approx(100, rel=0.35)


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        run_oltp(small_cfg(2), options=RunOptions(mode="sideways"))


def test_failover_end_to_end():
    """Kill a system mid-run: detection, fencing, ARM restart, peer
    recovery, and continued service on the survivors."""
    cfg = small_cfg(3)
    plex, gen = build_loaded_sysplex(cfg, options=RunOptions(terminals_per_system=5))
    victim = plex.nodes[1]
    plex.sim.call_at(0.5, victim.fail)
    plex.sim.run(until=6.0)

    assert not victim.alive and victim.fenced
    assert plex.monitor.detections == 1
    assert plex.metrics.counter("failures.partitioned").count == 1
    assert plex.metrics.counter("failures.recovered").count == 1
    # retained locks were eventually released
    assert not plex.lock_space.retained
    # ARM restarted the DBMS element somewhere else
    assert plex.arm.restart_log
    _, name, target = plex.arm.restart_log[0]
    assert name == "DBMS-SYS01" and target in ("SYS00", "SYS02")
    # survivors kept completing work after the failure
    after = [i.tm.completed for n, i in plex.instances.items() if n != "SYS01"]
    assert all(c > 0 for c in after)


def test_throughput_recovers_after_failure():
    cfg = small_cfg(3)
    plex, gen = build_loaded_sysplex(cfg, options=RunOptions(terminals_per_system=5))
    plex.sim.run(until=0.5)
    c_before = plex.metrics.counter("txn.completed").count
    plex.nodes[2].fail()
    plex.sim.run(until=4.5)
    mid = plex.metrics.counter("txn.completed").count
    plex.sim.run(until=6.5)
    c_after = plex.metrics.counter("txn.completed").count
    # the sysplex kept processing through failure and recovery
    assert mid > c_before
    late_rate = (c_after - mid) / 2.0
    early_rate = c_before / 0.5
    # two of three systems remain: rate should be within ~roughly 2/3
    assert late_rate > 0.35 * early_rate


def test_castout_ownership_moves_on_failure():
    cfg = small_cfg(3)
    plex, gen = build_loaded_sysplex(cfg, options=RunOptions(terminals_per_system=3))
    assert plex.instances["SYS00"].castout is not None
    plex.sim.call_at(0.3, plex.nodes[0].fail)  # after heartbeats exist
    plex.sim.run(until=4.0)
    owners = [n for n, i in plex.instances.items()
              if i.castout is not None and i.castout.active]
    assert owners and "SYS00" not in owners


def test_add_system_non_disruptive():
    """§2.4: a new system joins, work continues, the newcomer attracts
    load via WLM."""
    cfg = small_cfg(2)
    plex, gen = build_loaded_sysplex(cfg, options=RunOptions(
        mode="open", offered_tps_per_system=120, router_policy="wlm"))
    plex.sim.run(until=0.5)
    inst = plex.add_system()
    # the generator keeps producing at the same offered rate; the router
    # now includes the new system
    plex.sim.run(until=2.5)
    assert inst.tm.completed > 0  # newcomer does real work
    assert inst.node.name == "SYS02"
    assert plex.wlm.utilization("SYS02") > 0.01


def test_32_system_limit_on_growth():
    plex = Sysplex(small_cfg(2))
    plex.nodes.extend([None] * 30)  # simulate being at the limit
    with pytest.raises(RuntimeError):
        plex.add_system()


def test_sysplex_timer_attached_to_all():
    plex = Sysplex(small_cfg(3))
    assert len(plex.timer.clocks) == 3
    plex.sim.run(until=3)
    assert plex.timer.max_skew() < 1e-3
