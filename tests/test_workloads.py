"""Tests for workload generation: OLTP sampler/generator, traces, DSS."""

import numpy as np
import pytest

from repro.config import OltpConfig
from repro.simkernel import Simulator
from repro.workloads import (
    DemandTrace,
    OltpGenerator,
    PageSampler,
    rotating_hotspot_trace,
)


def rng():
    return np.random.default_rng(11)


# ------------------------------------------------------------- sampler ----
def test_sampler_draws_distinct_sorted_pages():
    s = PageSampler(1000, theta=0.8, rng=rng())
    pages = s.sample(16)
    assert len(pages) == 16
    assert len(set(pages)) == 16
    assert pages == sorted(pages)
    assert all(0 <= p < 1000 for p in pages)


def test_sampler_skew_concentrates_access():
    s = PageSampler(10_000, theta=0.9, rng=rng())
    counts = {}
    for _ in range(2000):
        for p in s.sample(4):
            counts[p] = counts.get(p, 0) + 1
    top = sorted(counts.values(), reverse=True)
    # the most popular page gets far more than the uniform share
    assert top[0] > 8 * (sum(top) / 10_000)


def test_sampler_uniform_when_theta_zero():
    s = PageSampler(1000, theta=0.0, rng=rng())
    counts = np.zeros(1000)
    for _ in range(3000):
        for p in s.sample(4):
            counts[p] += 1
    # no page dominates under uniform access
    assert counts.max() < 12 * counts.mean()


def test_sampler_hottest_prefix():
    s = PageSampler(100, theta=1.0, rng=rng())
    hot = s.hottest(10)
    assert len(hot) == 10
    assert len(set(hot)) == 10


def test_sampler_k_equal_n():
    s = PageSampler(8, theta=0.5, rng=rng())
    assert sorted(s.sample(8)) == list(range(8))


# ------------------------------------------------------------ generator ----
class _SinkRouter:
    def __init__(self):
        self.txns = []

    def route(self, txn):
        self.txns.append(txn)


def make_gen(partition_affinity=False, trace=None, n_systems=4):
    sim = Simulator()
    router = _SinkRouter()
    gen = OltpGenerator(
        sim, OltpConfig(), n_pages=8000, n_systems=n_systems, rng=rng(),
        router=router, trace=trace, partition_affinity=partition_affinity,
    )
    return sim, router, gen


def test_transaction_shape():
    sim, router, gen = make_gen()
    txn = gen.make_transaction(home=2)
    cfg = OltpConfig()
    assert len(txn.reads) == cfg.reads_per_txn
    assert len(txn.writes) == cfg.writes_per_txn
    assert not set(txn.reads) & set(txn.writes)
    assert txn.home == 2
    assert txn.reads == sorted(txn.reads)
    assert txn.writes == sorted(txn.writes)


def test_transaction_ids_unique():
    sim, router, gen = make_gen()
    ids = {gen.make_transaction(0).txn_id for _ in range(100)}
    assert len(ids) == 100


def test_open_loop_rate():
    sim, router, gen = make_gen()
    gen.start_open_loop(tps_per_system=100)
    sim.run(until=4)
    # 4 systems x 100 tps x 4 s = 1600 expected
    assert router.txns
    assert len(router.txns) == pytest.approx(1600, rel=0.15)


def test_open_loop_with_trace_shapes_arrivals():
    trace = DemandTrace(2, step=1.0, multipliers=[[2.0, 0.0], [0.0, 2.0]])
    sim, router, gen = make_gen(trace=trace, n_systems=2)
    gen.start_open_loop(tps_per_system=100)
    sim.run(until=1.0)
    homes_first = [t.home for t in router.txns]
    assert homes_first and all(h == 0 for h in homes_first)
    n_first = len(router.txns)
    sim.run(until=2.0)
    homes_second = [t.home for t in router.txns[n_first:]]
    assert homes_second and all(h == 1 for h in homes_second)


def test_closed_loop_waits_for_completion():
    sim, router, gen = make_gen()
    gen.start_closed_loop(terminals_per_system=2)
    sim.run(until=1.0)
    # nobody completes transactions, so each terminal submits exactly once
    assert len(router.txns) == 8
    # completing one lets its terminal continue
    router.txns[0].done.succeed(0.01)
    sim.run(until=1.1)
    assert len(router.txns) == 9


def test_partition_affinity_keeps_accesses_local():
    sim, router, gen = make_gen(partition_affinity=True)
    seg = 8000 // 4
    local = total = 0
    for _ in range(100):
        txn = gen.make_transaction(home=1)
        for p in txn.reads + txn.writes:
            total += 1
            if seg <= p < 2 * seg:
                local += 1
    assert local / total > 0.75  # ~90% by default remote_fraction=0.1


# ---------------------------------------------------------------- traces ----
def test_rotating_hotspot_constant_total():
    t = rotating_hotspot_trace(4, step=1.0, n_steps=8, spike_factor=3.0)
    for k in range(8):
        total = sum(t.multiplier(k + 0.5, i) for i in range(4))
        assert total == pytest.approx(4.0)
    # the hot stream rotates
    hot_at = [max(range(4), key=lambda i: t.multiplier(k + 0.5, i))
              for k in range(4)]
    assert hot_at == [0, 1, 2, 3]


def test_trace_validation():
    with pytest.raises(ValueError):
        DemandTrace(0, 1.0, [])
    with pytest.raises(ValueError):
        DemandTrace(2, 1.0, [[1.0]])  # wrong row width


def test_trace_clamps_past_end():
    t = DemandTrace(1, 1.0, [[2.0]])
    assert t.multiplier(99.0, 0) == 2.0
