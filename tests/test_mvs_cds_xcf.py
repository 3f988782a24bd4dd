"""Tests for couple data sets."""

import numpy as np

from repro.config import DasdConfig
from repro.hardware import DasdDevice
from repro.mvs import CoupleDataSet
from repro.simkernel import Simulator


def make_cds(sim, duplex=True):
    rng = np.random.default_rng(3)
    primary = DasdDevice(sim, DasdConfig(), rng, "cds1")
    alternate = DasdDevice(sim, DasdConfig(), rng, "cds2") if duplex else None
    return CoupleDataSet(sim, primary, alternate), primary, alternate


# ------------------------------------------------------------------ CDS ----
def test_cds_update_and_read():
    sim = Simulator()
    cds, _, _ = make_cds(sim)
    result = []

    def work():
        yield from cds.update("SYS00", "k", 42)
        table = yield from cds.read_all()
        result.append((sim.now, table["k"]))

    sim.process(work())
    sim.run()
    assert result[0][1] == 42
    assert result[0][0] > 0  # the I/O took real time


def test_cds_writes_are_serialized_by_reserve():
    sim = Simulator()
    cds, primary, _ = make_cds(sim)
    order, got = [], []

    def writer(name, value):
        yield from cds.update(name, "key", value)
        order.append(value)

    def reader():
        yield sim.timeout(1.0)
        got.append((yield from cds.read_all())["key"])

    sim.process(writer("SYS00", 1))
    sim.process(writer("SYS01", 2))
    sim.process(reader())
    sim.run()
    assert order == [1, 2]
    assert got == [2]  # the second writer's update landed last
    assert cds.writes == 2


def test_cds_duplexing_writes_alternate():
    sim = Simulator()
    cds, primary, alternate = make_cds(sim)

    def work():
        yield from cds.update("SYS00", "k", 1)

    sim.process(work())
    sim.run()
    assert primary.io_count == 1
    assert alternate.io_count == 1


def test_cds_stale_reserve_broken_by_timeout_logic():
    sim = Simulator()
    cds, primary, _ = make_cds(sim)
    cds.reserve_timeout = 2.0
    got = []

    def dead_system():
        ev = primary.reserve("SYS-DEAD")
        yield ev
        cds._reserve_taken_at["SYS-DEAD"] = sim.now
        # crashes while holding the reserve: never releases

    def healthy():
        yield sim.timeout(0.1)
        yield from cds.update("SYS00", "k", 1)
        got.append(sim.now)

    def sweeper():
        while not got:
            yield sim.timeout(1.0)
            cds.break_stale_reserves()

    sim.process(dead_system())
    sim.process(healthy())
    sim.process(sweeper())
    sim.run(until=30)
    assert got and got[0] >= 2.0  # blocked until timeout logic freed it


def test_cds_break_reserve_of_fenced_system():
    sim = Simulator()
    cds, primary, _ = make_cds(sim)

    def holder():
        yield primary.reserve("SYS-BAD")

    sim.process(holder())
    sim.run()
    cds.break_reserve_of("SYS-BAD")
    assert primary.reserved_by is None
