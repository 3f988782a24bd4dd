"""Tests for the transaction-level tracing facility and its attribution."""

import math

import pytest

from repro import RunOptions
from repro.config import CpuConfig, DatabaseConfig, SysplexConfig
from repro.experiments.common import QUICK, scaled_config
from repro.runner import build_loaded_sysplex, run_oltp
from repro.simkernel import Simulator
from repro.sysplex import Sysplex
from repro.trace import STAGES, Tracer
from repro.trace_analysis import (
    CATEGORIES,
    attribute,
    attribution_delta,
    attribution_extras,
)


def small_cfg(n_systems=2, data_sharing=True, seed=11):
    return SysplexConfig(
        n_systems=n_systems,
        cpu=CpuConfig(n_cpus=1),
        data_sharing=data_sharing,
        n_cfs=1 if data_sharing else 0,
        db=DatabaseConfig(n_pages=20_000, buffer_pages=4_000),
        seed=seed,
    )


def traced_run(plex, seconds=0.5):
    plex.sim.run(until=0.2)
    plex.reset_measurement()
    plex.sim.run(until=0.2 + seconds)


# ------------------------------------------------------------- mechanics ----
def test_spans_nest_under_the_active_process():
    sim = Simulator()
    tr = Tracer(sim)

    def inner():
        idx = tr.begin("cf.sync")
        yield sim.timeout(0.25)
        tr.end(idx)

    def body():
        tr.bind(42, "SYS01")
        outer = tr.begin("lock")
        yield sim.timeout(0.5)
        yield from inner()
        tr.end(outer)
        tr.unbind()

    sim.process(body())
    sim.run()

    assert len(tr.spans) == 2
    lock, cf = tr.spans
    assert lock.category == "lock" and cf.category == "cf.sync"
    assert cf.parent == 0 and lock.parent == -1
    assert cf.depth == 1 and lock.depth == 0
    # the child's interval is contained in the parent's
    assert lock.start <= cf.start and cf.end <= lock.end
    assert lock.end - lock.start == pytest.approx(0.75)
    assert cf.end - cf.start == pytest.approx(0.25)
    # transaction context was inherited by both spans
    assert {s.txn_id for s in tr.spans} == {42}
    assert {s.system for s in tr.spans} == {"SYS01"}


def test_concurrent_processes_trace_independently():
    sim = Simulator()
    tr = Tracer(sim)

    def body(txn_id, delay):
        tr.bind(txn_id, "S")
        idx = tr.begin("lock")
        yield sim.timeout(delay)
        tr.end(idx)
        tr.unbind()

    sim.process(body(1, 0.3))
    sim.process(body(2, 0.7))
    sim.run()

    one = [s for s in tr.spans if s.txn_id == 1]
    two = [s for s in tr.spans if s.txn_id == 2]
    assert len(one) == 1 and len(two) == 1
    # interleaved processes must not nest under each other
    assert one[0].parent == -1 and two[0].parent == -1
    assert one[0].end - one[0].start == pytest.approx(0.3)
    assert two[0].end - two[0].start == pytest.approx(0.7)


def test_process_death_closes_dangling_spans():
    sim = Simulator()
    tr = Tracer(sim)

    def body():
        tr.begin("lock")
        yield sim.timeout(0.5)
        raise RuntimeError("killed mid-span")

    p = sim.process(body())
    p.defused()
    sim.run()

    assert all(s.end is not None for s in tr.spans)
    assert tr.spans[0].end == pytest.approx(0.5)


def test_disabled_tracing_creates_no_tracer_and_no_watchers():
    plex = Sysplex(small_cfg())
    assert plex.tracer is None
    assert plex.sim._process_watchers == []
    # every instrumented component got trace=None
    for inst in plex.instances.values():
        assert inst.tm.trace is None
        assert inst.db.trace is None
        assert inst.lockmgr.trace is None
        assert inst.buffers.trace is None
    for cf in plex.cfs:
        assert cf.trace is None


def test_enabled_tracing_records_spans_for_every_stage():
    plex = Sysplex(small_cfg(), RunOptions(tracing=True))
    from repro.workloads.oltp import OltpGenerator

    gen = OltpGenerator(
        plex.sim, plex.config.oltp, plex.config.db.n_pages,
        plex.config.n_systems, plex.streams.stream("oltp"),
        router=plex.router, tracer=plex.tracer,
    )
    gen.start_closed_loop(8)
    traced_run(plex)

    tr = plex.tracer
    assert tr.spans
    assert tr.counts["txn.generated"] == gen.generated
    seen = {s.category for s in tr.spans}
    for stage in ("dispatch", "lock", "coherency", "commit", "cpu"):
        assert stage in seen, f"no {stage} spans recorded"
    assert "cf.sync" in seen  # data sharing => CF round trips
    # at steady state no span leaks open past its transaction
    finished = {t[0] for t in tr.completed}
    assert all(s.end is not None
               for s in tr.spans if s.txn_id in finished)


# ----------------------------------------------------------- attribution ----
def test_attribution_sums_to_mean_response_time():
    result = run_oltp(small_cfg(), duration=0.5, warmup=0.2, options=RunOptions(tracing=True))
    ex = result.extras
    assert ex["trace.txns"] > 50
    pct_sum = sum(ex[f"trace.{c}_pct"] for c in CATEGORIES)
    assert pct_sum == pytest.approx(100.0, abs=2.0)
    us_sum = sum(ex[f"trace.{c}_us"] for c in CATEGORIES)
    assert us_sum == pytest.approx(ex["trace.rt_us"], rel=0.02)
    # residual (retry backoff, abort processing) stays a sliver
    assert abs(ex["trace.residual_us"]) < 0.02 * ex["trace.rt_us"]


def test_tracing_does_not_change_simulation_results():
    """The tracer only observes: under either profile a traced run
    processes the same kernel events and yields the same payload, less
    its ``trace.*`` extras, as the untraced run."""
    cfg = scaled_config(4, 1, seed=1)
    for profile in ("verify", "sweep"):
        off = run_oltp(cfg, options=RunOptions(profile=profile), **QUICK)
        on = run_oltp(cfg, options=RunOptions(profile=profile, tracing=True),
                      **QUICK)
        traced = on.to_dict()
        extras = traced["extras"]
        assert any(k.startswith("trace.") for k in extras), profile
        traced["extras"] = {k: v for k, v in extras.items()
                            if not k.startswith("trace.")}
        assert traced == off.to_dict(), profile
        assert on.sim_events == off.sim_events, profile


def test_traced_cf_failure_closes_every_span():
    """A CF failure kills commands in flight, in the collapsed frame as
    on the general path; every span they opened is closed once the
    offered work has drained."""
    cfg = SysplexConfig(
        n_systems=3, n_cfs=2, cpu=CpuConfig(n_cpus=1),
        db=DatabaseConfig(n_pages=12_000, buffer_pages=4_000), seed=5,
    )
    plex, gen = build_loaded_sysplex(
        cfg, options=RunOptions(tracing=True, terminals_per_system=0))

    def arrivals():
        for i in range(300):
            plex.router.route(gen.make_transaction(i % cfg.n_systems))
            yield plex.sim.timeout(2e-3)

    plex.sim.process(arrivals())
    plex.injector.at(0.3, "cf-fail:CF01", plex.cfs[0].fail)
    plex.sim.run(until=2.0)

    assert plex.metrics.counter("cf.failures").count == 1
    ports = [xes.port for inst in plex.instances.values()
             for xes in (inst.xes_lock, inst.xes_cache)]
    assert sum(p.fast_syncs for p in ports) > 0
    assert sum(inst.tm.failed_txns for inst in plex.instances.values()) > 0
    assert all(s.end is not None for s in plex.tracer.spans)


def test_attribution_empty_window():
    sim = Simulator()
    tr = Tracer(sim)
    a = attribute(tr)
    assert a.n_txns == 0
    assert math.isnan(a.response_mean)
    assert set(a.per_txn) == set(CATEGORIES)


def test_attribution_delta_and_formatting():
    base = run_oltp(
        small_cfg(1, data_sharing=False), duration=0.4, warmup=0.2,
        options=RunOptions(tracing=True),
    )
    two = run_oltp(small_cfg(2), duration=0.4, warmup=0.2, options=RunOptions(tracing=True))
    delta = attribution_delta(base.extras, two.extras)
    assert set(delta) == set(CATEGORIES) | {"total"}
    assert delta["total"] == pytest.approx(
        sum(delta[c] for c in CATEGORIES))
    # data sharing introduces coherency traffic where there was none
    assert delta["coherency"] > 0
    assert two.extras["trace.cf_ops_per_txn"] > 0
    assert base.extras["trace.cf_ops_per_txn"] == 0


def test_attribution_extras_keys_are_floats():
    result = run_oltp(small_cfg(), duration=0.3, warmup=0.2, options=RunOptions(tracing=True))
    for key, value in result.extras.items():
        if key.startswith("trace."):
            assert isinstance(value, float), key


def test_stage_categories_match_analysis_contract():
    # the analysis folds "cpu" into "other"; everything else is 1:1
    assert set(STAGES) - {"cpu"} == set(CATEGORIES) - {"other"}


def test_attribution_extras_window_filters_warmup():
    plex = Sysplex(small_cfg(), RunOptions(tracing=True))
    from repro.workloads.oltp import OltpGenerator

    gen = OltpGenerator(
        plex.sim, plex.config.oltp, plex.config.db.n_pages,
        plex.config.n_systems, plex.streams.stream("oltp"),
        router=plex.router, tracer=plex.tracer,
    )
    gen.start_closed_loop(8)
    traced_run(plex, seconds=0.4)

    windowed = attribution_extras(plex.tracer, start=0.2, end=plex.sim.now)
    everything = attribution_extras(plex.tracer, start=0.0, end=plex.sim.now)
    assert windowed["trace.txns"] < everything["trace.txns"]
    assert windowed["trace.txns"] > 0
