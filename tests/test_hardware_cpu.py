"""Tests for the CPU complex and MP-effect model."""

import pytest

from repro.config import CpuConfig
from repro.hardware import CpuComplex
from repro.simkernel import Simulator


def test_single_cpu_no_inflation():
    cfg = CpuConfig(n_cpus=1)
    assert cfg.inflation() == 1.0
    assert cfg.effective_engines() == 1.0


def test_inflation_monotone_in_n():
    cfg = CpuConfig()
    vals = [cfg.inflation(n) for n in range(1, 11)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_ten_way_effective_engines_in_calibrated_band():
    """Published S/390 MP ratios put a 10-way around 7.3-7.7 engines."""
    cfg = CpuConfig(n_cpus=10)
    assert 7.0 <= cfg.effective_engines() <= 7.9


def test_effective_engines_diminishing_increments():
    """Each added engine contributes less than the one before (Figure 3)."""
    cfg = CpuConfig()
    eff = [cfg.effective_engines(n) for n in range(1, 11)]
    increments = [b - a for a, b in zip(eff, eff[1:])]
    assert all(i2 < i1 for i1, i2 in zip(increments, increments[1:]))
    assert all(0 < i < 1 for i in increments)


def test_consume_takes_inflated_time():
    sim = Simulator()
    cpu = CpuComplex(sim, CpuConfig(n_cpus=4))
    done = []

    def work():
        yield from cpu.consume(1.0)
        done.append(sim.now)

    sim.process(work())
    sim.run()
    assert done[0] == pytest.approx(CpuConfig().inflation(4))


def test_consume_zero_is_noop():
    sim = Simulator()
    cpu = CpuComplex(sim, CpuConfig(n_cpus=1))
    done = []

    def work():
        yield from cpu.consume(0.0)
        yield from cpu.consume(-1.0)
        done.append(sim.now)
        yield sim.timeout(0)

    sim.process(work())
    sim.run()
    assert done == [0.0]


def test_engines_queue_when_saturated():
    sim = Simulator()
    cpu = CpuComplex(sim, CpuConfig(n_cpus=2))
    finish = []

    def work(tag):
        yield from cpu.consume(1.0)
        finish.append((tag, sim.now))

    for t in range(4):
        sim.process(work(t))
    sim.run()
    inflation = CpuConfig().inflation(2)
    # two run immediately, two wait for a release
    assert finish[0][1] == pytest.approx(inflation)
    assert finish[2][1] == pytest.approx(2 * inflation)


def test_speed_scales_service_time():
    sim = Simulator()
    cpu = CpuComplex(sim, CpuConfig(n_cpus=1, speed=2.0))
    done = []

    def work():
        yield from cpu.consume(1.0)
        done.append(sim.now)

    sim.process(work())
    sim.run()
    assert done[0] == pytest.approx(0.5)


def test_utilization_accounting():
    sim = Simulator()
    cpu = CpuComplex(sim, CpuConfig(n_cpus=2))

    def work():
        yield from cpu.consume(5.0 / CpuConfig().inflation(2))

    sim.process(work())
    sim.run(until=10)
    # one engine busy 5s of 10s over 2 engines = 0.25
    assert cpu.engines.utilization() == pytest.approx(0.25, rel=1e-6)


def test_busy_seconds_tracks_burn():
    sim = Simulator()
    cpu = CpuComplex(sim, CpuConfig(n_cpus=1))

    def work():
        yield from cpu.consume(2.0)

    sim.process(work())
    sim.run()
    assert cpu.busy_seconds == pytest.approx(2.0)
