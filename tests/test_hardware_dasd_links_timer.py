"""Tests for DASD, coupling links, sysplex timer, failures."""

import numpy as np
import pytest

from repro.config import DasdConfig, LinkConfig
from repro.hardware import (
    DasdDevice,
    DasdFarm,
    FailureInjector,
    LinkDownError,
    LinkSet,
    SysplexTimer,
    SystemNode,
)
from repro.config import SysplexConfig
from repro.simkernel import Simulator


def rng():
    return np.random.default_rng(7)


# ---------------------------------------------------------------- DASD ----
def test_dasd_io_takes_positive_time():
    sim = Simulator()
    dev = DasdDevice(sim, DasdConfig(), rng())
    done = []

    def work():
        yield from dev.io()
        done.append(sim.now)

    sim.process(work())
    sim.run()
    assert done[0] > 0
    assert dev.io_count == 1


def test_dasd_service_mean_close_to_config():
    sim = Simulator()
    cfg = DasdConfig()
    dev = DasdDevice(sim, cfg, rng())
    times = [dev.service_time() for _ in range(4000)]
    assert np.mean(times) == pytest.approx(cfg.service_mean, rel=0.05)


def test_dasd_paths_limit_concurrency():
    sim = Simulator()
    cfg = DasdConfig(paths=2, service_sigma=1e-9)
    dev = DasdDevice(sim, cfg, rng())
    finish = []

    def work(tag):
        yield from dev.io()
        finish.append(tag)

    for t in range(4):
        sim.process(work(t))
    sim.run()
    assert dev.paths.capacity == 2
    assert len(finish) == 4


def test_dasd_path_failure_and_repair():
    sim = Simulator()
    dev = DasdDevice(sim, DasdConfig(paths=4), rng())
    dev.fail_path()
    assert dev.available_paths == 3
    dev.repair_path()
    assert dev.available_paths == 4


def test_dasd_repair_hands_a_path_to_the_queued_waiter():
    """A path failed while both paths are busy keeps a waiter queued past
    the first release; the repair grants it at the repair instant, and
    the busy area counts one busy path between that release and the
    repair, not two."""
    sim = Simulator()
    dev = DasdDevice(sim, DasdConfig(paths=2), rng())
    granted = []

    def hold(start, seconds):
        yield sim.timeout(start)
        req = dev.paths.request()
        yield req
        granted.append(sim.now)
        yield sim.timeout(seconds)
        req.cancel()

    sim.process(hold(0.0, 1.0))  # releases at 1.0
    sim.process(hold(0.0, 3.0))  # releases at 3.0
    sim.process(hold(0.5, 1.0))  # queued behind both
    sim.call_at(0.5, dev.fail_path)
    sim.call_at(2.0, dev.repair_path)
    sim.run(until=4.0)

    assert granted == [0.0, 0.0, 2.0]
    # 2 paths busy over [0, 1), 1 over [1, 2), 2 over [2, 3), none after
    assert dev.paths.busy_area() == 2.0 * 1.0 + 1.0 * 1.0 + 2.0 * 1.0
    assert dev.paths.in_use == 0


def test_dasd_keeps_last_path():
    """Automatic reconfiguration never loses the last path."""
    sim = Simulator()
    dev = DasdDevice(sim, DasdConfig(paths=2), rng())
    dev.fail_path()
    dev.fail_path()
    dev.fail_path()
    assert dev.available_paths == 1


def test_dasd_reserve_release_fifo():
    sim = Simulator()
    dev = DasdDevice(sim, DasdConfig(), rng())
    order = []

    def user(tag):
        ev = dev.reserve(tag)
        yield ev
        order.append(tag)
        yield sim.timeout(1)
        dev.release(tag)

    for t in "abc":
        sim.process(user(t))
    sim.run()
    assert order == ["a", "b", "c"]
    assert dev.reserved_by is None


def test_dasd_break_reserve_frees_queue():
    sim = Simulator()
    dev = DasdDevice(sim, DasdConfig(), rng())
    got = []

    def holder():
        yield dev.reserve("dead-system")
        # never releases: simulates a failed processor holding the reserve

    def waiter():
        ev = dev.reserve("healthy")
        yield ev
        got.append(sim.now)

    sim.process(holder())
    sim.process(waiter())

    def timeout_logic():
        yield sim.timeout(5)
        dev.break_reserve("dead-system")

    sim.process(timeout_logic())
    sim.run()
    assert got == [5]


def test_farm_stripes_pages_over_devices():
    sim = Simulator()
    farm = DasdFarm(sim, DasdConfig(), rng(), n_devices=4)
    assert farm.device_for(0) is farm.devices[0]
    assert farm.device_for(5) is farm.devices[1]
    assert farm.device_for(7) is farm.devices[3]


def test_farm_requires_device():
    sim = Simulator()
    with pytest.raises(ValueError):
        DasdFarm(sim, DasdConfig(), rng(), n_devices=0)


# ------------------------------------------------------------ coupling links
def test_linkset_round_trip_time():
    sim = Simulator()
    cfg = LinkConfig(latency=5e-6, bandwidth=100e6)
    ls = LinkSet(sim, cfg)
    rt = []

    def noop_service():
        yield sim.timeout(4e-6)

    def work():
        link = ls.pick()
        dur = yield sim.process(link.occupy(256, 64, noop_service()))
        rt.append(dur)

    sim.process(work())
    sim.run()
    expected = 2 * 5e-6 + (256 + 64) / 100e6 + 4e-6
    assert rt[0] == pytest.approx(expected)


def test_linkset_picks_least_busy():
    sim = Simulator()
    ls = LinkSet(sim, LinkConfig(links_per_system=2, subchannels=1))
    first = ls.pick()
    # occupy first link's subchannel
    first.subchannels.request()
    assert ls.pick() is not first


def test_linkset_failover_and_outage():
    sim = Simulator()
    ls = LinkSet(sim, LinkConfig(links_per_system=2))
    ls.fail_link(0)
    assert ls.pick() is ls.links[1]
    ls.fail_link(1)
    assert not ls.operational
    with pytest.raises(LinkDownError):
        ls.pick()
    ls.repair_link(0)
    assert ls.operational


def test_link_bandwidth_affects_transfer():
    slow = LinkConfig(bandwidth=50e6)
    fast = LinkConfig(bandwidth=100e6)
    assert slow.transfer_time(4096) == pytest.approx(2 * fast.transfer_time(4096))


# ----------------------------------------------------------------- timer ----
def test_tod_clock_monotonic_with_negative_drift():
    sim = Simulator()
    timer = SysplexTimer(sim, sync_interval=1.0)
    clock = timer.attach(drift_ppm=-50.0)
    reads = []

    def reader():
        for _ in range(30):
            yield sim.timeout(0.1)
            reads.append(clock.read())

    sim.process(reader())
    sim.run(until=5)
    assert all(b >= a for a, b in zip(reads, reads[1:]))


def test_timer_bounds_cross_system_skew():
    sim = Simulator()
    timer = SysplexTimer(sim, sync_interval=0.5)
    timer.attach(drift_ppm=100.0)
    timer.attach(drift_ppm=-100.0)

    sim.run(until=10)
    # worst-case divergence is 200ppm over one 0.5s sync interval
    assert timer.max_skew() <= 200e-6 * 0.5 + 1e-12


def test_unsynced_clocks_would_diverge():
    """Sanity: without steering, the same drift produces much larger skew."""
    sim = Simulator()
    timer = SysplexTimer(sim, sync_interval=1e9)  # effectively never
    a = timer.attach(drift_ppm=100.0)
    b = timer.attach(drift_ppm=-100.0)

    sim.run(until=100)
    assert timer.max_skew() == pytest.approx(200e-6 * 100, rel=1e-6)


# -------------------------------------------------------------- system node --
def test_system_node_fail_is_idempotent():
    sim = Simulator()
    node = SystemNode(sim, SysplexConfig(), index=1)

    def later():
        yield sim.timeout(2.0)
        node.fail()
        yield sim.timeout(1.0)
        node.fail()  # idempotent: the first failure instant stands

    sim.process(later())
    sim.run()
    assert not node.alive
    assert node.cpu.offline
    assert node.failed_at == 2.0


def test_system_node_restart_hooks():
    sim = Simulator()
    node = SystemNode(sim, SysplexConfig(), index=2)
    calls = []
    node.on_restart(lambda n: calls.append("back"))
    node.fail()
    node.fence()
    node.restart()
    assert calls == ["back"]
    assert node.alive and not node.fenced


# -------------------------------------------------------- failure injector ---
def test_injector_crash_and_restart_schedule():
    sim = Simulator()
    node = SystemNode(sim, SysplexConfig(), index=0)
    inj = FailureInjector(sim)
    inj.planned_outage(node, at=5.0, duration=3.0)
    seen = []

    def observer():
        yield sim.timeout(6)
        seen.append(node.alive)
        yield sim.timeout(3)
        seen.append(node.alive)

    sim.process(observer())
    sim.run()
    assert seen == [False, True]
    assert [l for _, l in inj.log] == ["crash:SYS00", "restart:SYS00"]


def test_injector_rolling_maintenance_one_at_a_time():
    sim = Simulator()
    nodes = [SystemNode(sim, SysplexConfig(), index=i) for i in range(3)]
    inj = FailureInjector(sim)
    inj.rolling_maintenance(nodes, start=1.0, outage=2.0, gap=1.0)
    overlap = []

    def watch():
        while sim.now < 12:
            down = sum(1 for n in nodes if not n.alive)
            overlap.append(down)
            yield sim.timeout(0.25)

    sim.process(watch())
    sim.run(until=12)
    assert max(overlap) == 1  # never two systems down at once
    assert all(n.alive for n in nodes)
