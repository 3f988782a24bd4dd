"""Chaos engine: seeded schedules, guardrails, serialization, determinism."""

from repro import ChaosConfig, ChaosEngine, FaultClassConfig, RunOptions
from repro.chaos import summarize_schedule
from repro.config import DatabaseConfig, SysplexConfig
from repro.metrics import RunResult
from repro.runner import build_loaded_sysplex
from repro.runspec import canonical_json


def small_cfg(n=3, **kw):
    return SysplexConfig(
        n_systems=n,
        db=DatabaseConfig(n_pages=8_000, buffer_pages=3_000),
        **kw,
    )


def quiet_plex(cfg):
    plex, _ = build_loaded_sysplex(
        cfg, options=RunOptions(terminals_per_system=0))
    return plex


FULL_CHAOS = ChaosConfig(
    start=0.5,
    horizon=4.0,
    systems=FaultClassConfig(mtbf=2.0, mttr=0.5, max_faults=2),
    cfs=FaultClassConfig(mtbf=4.0, mttr=0.5, max_faults=1),
    links=FaultClassConfig(mtbf=10.0, mttr=0.3, max_faults=1),
    dasd=FaultClassConfig(mtbf=15.0, mttr=0.4, max_faults=1),
    min_live_systems=1,
    min_live_cfs=1,
)


# ------------------------------------------------ config serialization ----
def test_fault_class_config_round_trips():
    fc = FaultClassConfig(mtbf=3.5, mttr=0.25, max_faults=7)
    assert FaultClassConfig.from_dict(fc.to_dict()) == fc


def test_chaos_config_round_trips_through_json():
    import json

    restored = ChaosConfig.from_dict(
        json.loads(json.dumps(FULL_CHAOS.to_dict())))
    assert restored == FULL_CHAOS


def test_none_classes_survive_round_trip():
    cfg = ChaosConfig(systems=FaultClassConfig(1.0, 0.1))
    restored = ChaosConfig.from_dict(cfg.to_dict())
    assert restored.cfs is None and restored.systems == cfg.systems


# ------------------------------------------------ schedule sampling ----
def test_same_seed_same_schedule():
    a = ChaosEngine(quiet_plex(small_cfg(seed=7)), FULL_CHAOS)
    b = ChaosEngine(quiet_plex(small_cfg(seed=7)), FULL_CHAOS)
    assert a.schedule_rows() == b.schedule_rows()
    assert a.schedule_rows()  # and it is not trivially empty


def test_different_seed_different_schedule():
    a = ChaosEngine(quiet_plex(small_cfg(seed=7)), FULL_CHAOS)
    b = ChaosEngine(quiet_plex(small_cfg(seed=8)), FULL_CHAOS)
    assert a.schedule_rows() != b.schedule_rows()


def test_every_fault_has_a_repair():
    eng = ChaosEngine(quiet_plex(small_cfg(seed=3)), FULL_CHAOS)
    kinds = summarize_schedule(eng.schedule_rows())
    assert kinds.get("crash", 0) == kinds.get("restart", 0)
    assert kinds.get("cf-fail", 0) == kinds.get("cf-repair", 0)
    assert kinds.get("link-fail", 0) == kinds.get("link-repair", 0)
    assert kinds.get("path-fail", 0) == kinds.get("path-repair", 0)


def test_faults_sampled_inside_window_repairs_may_overrun():
    eng = ChaosEngine(quiet_plex(small_cfg(seed=3)), FULL_CHAOS)
    for t, label in eng.schedule_rows():
        assert t >= FULL_CHAOS.start
        if not ("repair" in label or label.startswith("restart")):
            assert t < FULL_CHAOS.horizon


def test_schedule_rows_sorted():
    eng = ChaosEngine(quiet_plex(small_cfg(seed=3)), FULL_CHAOS)
    times = [t for t, _ in eng.schedule_rows()]
    assert times == sorted(times)


# ------------------------------------------------ arming + guardrails ----
def test_arm_twice_raises():
    import pytest

    eng = ChaosEngine(quiet_plex(small_cfg()), FULL_CHAOS)
    eng.arm()
    with pytest.raises(RuntimeError):
        eng.arm()


def test_min_live_systems_floor_suppresses_crashes():
    # crashes arrive much faster than repairs complete, so the floor of
    # 2 live systems must suppress at least one sampled crash
    cfg = ChaosConfig(
        start=0.0, horizon=2.0,
        systems=FaultClassConfig(mtbf=0.2, mttr=3.0, max_faults=2),
        min_live_systems=2,
    )
    plex = quiet_plex(small_cfg(seed=5))
    eng = ChaosEngine(plex, cfg)
    assert len([r for r in eng.schedule_rows()
                if r[1].startswith("crash")]) >= 2
    eng.arm()
    plex.sim.run(until=2.0)
    labels = [label for _, label in plex.injector.log_events()]
    assert any(label.startswith("chaos-skip:crash") for label in labels)
    assert sum(1 for n in plex.nodes if n.alive) >= 2


def test_outcomes_recorded_after_run():
    plex = quiet_plex(small_cfg(seed=5))
    eng = ChaosEngine(plex, FULL_CHAOS)
    assert all(row[2] == "pending" for row in eng.outcome_rows())
    eng.arm()
    last = max(t for t, _ in eng.schedule_rows())
    plex.sim.run(until=last + 0.01)
    outcomes = {row[2] for row in eng.outcome_rows()}
    assert "pending" not in outcomes
    assert "fired" in outcomes


def test_chaos_events_share_injector_timeline():
    plex = quiet_plex(small_cfg(seed=5))
    inst = plex.instances["SYS00"]
    links = inst.node.cf_links["CF01"]
    plex.injector.at(0.1, f"link-fail:{links.name}.0", lambda: links.fail_link(0))
    eng = ChaosEngine(plex, FULL_CHAOS)
    eng.arm()
    plex.sim.run(until=1.0)
    events = plex.injector.log_events()
    assert [0.1, "link-fail:SYS00-CF01.0"] in events  # scripted event
    times = [t for t, _ in events]
    assert times == sorted(times)  # one merged, ordered timeline


def test_summarize_schedule_counts_by_kind():
    rows = [[0.1, "crash:SYS00"], [0.2, "restart:SYS00"],
            [0.3, "chaos-skip:crash:SYS01"], [0.4, "cf-fail:CF01"]]
    assert summarize_schedule(rows) == {
        "crash": 1, "restart": 1, "skip": 1, "cf-fail": 1}


# ------------------------------------------------ RunResult round trip ----
def _result(**kw):
    return RunResult(label="x", duration=1.0, completed=10, throughput=10.0,
                     response_mean=0.01, response_p50=0.01, response_p90=0.01,
                     response_p95=0.01, response_p99=0.01, **kw)


def test_run_result_omits_empty_events():
    r = _result()
    assert "events" not in r.to_dict()
    assert RunResult.from_dict(r.to_dict()).events == []


def test_run_result_round_trips_events():
    r = _result(events=[[0.5, "crash:SYS00"], [1.0, "restart:SYS00"]])
    d = r.to_dict()
    assert d["events"] == [[0.5, "crash:SYS00"], [1.0, "restart:SYS00"]]
    assert RunResult.from_dict(d) == r


# ------------------------------------------------ payload determinism ----
def test_chaos_payload_is_deterministic():
    from repro.experiments.exp_chaos import chaos_spec, run_chaos_spec

    spec = chaos_spec(n_systems=2, seed=3, horizon=2.0, drain=1.0,
                      offered_tps_per_system=60.0)
    p1 = run_chaos_spec(spec)
    p2 = run_chaos_spec(spec)
    assert canonical_json(p1) == canonical_json(p2)
    assert p1["invariants"]["ok"], p1["invariants"]["violations"]
