"""Tests for the uncontended fast paths through the CF command stack.

The *byte-safe* fast paths (the lock-manager single-frame grant, the
buffer-manager ``try_get_local``) are pure machinery: they must change
*nothing* observable about a run — not the event timing, not the RNG
draw order, not a single statistic.  The *collapsed* execution
(``profile="sweep"``: event merging + scalar resource holds) trades byte
identity with ``verify`` for speed and must stay statistically neutral.
These tests pin both contracts — the full 22-point golden grid against
the pre-refactor payload hashes under ``verify``, and the same grid plus
a subchannel-contended point against recorded ``sweep`` hashes and
exact kernel event counts — gate the events-per-transaction cost metric,
check the robustness/chaos configurations stay off the collapsed frame
entirely, and check a traced run stays on it.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.config import CfConfig
from repro.executor import _payload_from
from repro.experiments.common import QUICK, scaled_config
from repro.experiments.fig3_scalability import fig3_specs
from repro.experiments.tab1_overhead import tab1_specs
from repro.options import RunOptions
from repro.runner import build_loaded_sysplex, run_oltp
from repro.runspec import canonical_json
from repro.simkernel import Simulator

#: events_per_committed_txn measured for the Table-1 base quick point
#: (1 system, no data sharing, seed 1) under the golden verify profile
#: when the fast paths landed.  The count is deterministic for a fixed
#: seed; growth means new event machinery crept onto the
#: per-transaction path.
TAB1_BASE_EVENTS_PER_TXN = 60.5

GOLDEN_GRID = Path(__file__).parent / "data" / "golden_grid.json"
GOLDEN_DUPLEX = Path(__file__).parent / "data" / "golden_duplex.json"
GOLDEN_SMALLPOOL = Path(__file__).parent / "data" / "golden_smallpool.json"
GOLDEN_SWEEP = Path(__file__).parent / "data" / "golden_sweep.json"
GOLDEN_PREWARM_CALLERS = (Path(__file__).parent / "data"
                          / "golden_prewarm_callers.json")
GOLDEN_BASELINES = Path(__file__).parent / "data" / "golden_baselines.json"


def _run(cfg, duration=0.25, warmup=0.15, options=None,
         label="fastpath-test"):
    """run_oltp, but keeping the sysplex so tests can inspect the ports."""
    plex, _gen = build_loaded_sysplex(cfg, options=options or RunOptions())
    plex.sim.run(until=warmup)
    plex.reset_measurement()
    plex.sim.run(until=warmup + duration)
    return plex, plex.collect(label)


def _ports(plex):
    for inst in plex.instances.values():
        for xes in (inst.xes_lock, inst.xes_cache, inst.xes_list):
            if xes is not None and hasattr(xes, "port"):
                yield xes.port


# ------------------------------------------------------- collapse trade ----
def test_collapsed_mode_statistically_neutral():
    """The sweep profile merges events (not byte-safe at saturation) but
    must stay statistically indistinguishable from the golden path."""
    cfg = scaled_config(4, 1, seed=1)

    _, res_default = _run(cfg, options=RunOptions(profile="verify"))
    plex_col, res_col = _run(cfg, options=RunOptions(profile="sweep"))

    assert sum(p.fast_syncs for p in _ports(plex_col)) > 0
    assert res_col.completed == pytest.approx(res_default.completed, rel=0.05)
    assert res_col.response_mean == pytest.approx(
        res_default.response_mean, rel=0.10)


def test_collapse_cuts_events_for_the_same_outcome():
    """Collapse is the sweep profile's whole point: materially fewer
    calendar events for a statistically identical run."""
    cfg = scaled_config(2, 1, seed=1)
    plex_v, _ = _run(cfg, options=RunOptions(profile="verify"))
    plex_s, _ = _run(cfg, options=RunOptions(profile="sweep"))
    assert plex_s.sim.events_processed < 0.8 * plex_v.sim.events_processed


# ------------------------------------------------------------- cost gate ----
def test_events_per_committed_txn_no_regression():
    cfg = scaled_config(1, 1, data_sharing=False, seed=1)
    verify = run_oltp(cfg, duration=QUICK["duration"],
                      warmup=QUICK["warmup"],
                      options=RunOptions(profile="verify"))
    assert verify.sim_events > 0
    assert verify.completed > 0
    assert verify.events_per_committed_txn <= 1.10 * TAB1_BASE_EVENTS_PER_TXN
    # the sweep default must only ever *cut* per-transaction machinery
    sweep = run_oltp(cfg, duration=QUICK["duration"],
                     warmup=QUICK["warmup"],
                     options=RunOptions(profile="sweep"))
    assert sweep.events_per_committed_txn < verify.events_per_committed_txn


def test_sim_events_excluded_from_payloads():
    """The machine-cost counter must never leak into golden payloads."""
    cfg = scaled_config(1, 1, data_sharing=False, seed=1)
    result = run_oltp(cfg, duration=0.1, warmup=0.05)
    assert result.sim_events > 0
    assert "sim_events" not in result.to_dict()


# ------------------------------------------------------------ golden grid ----
def _grid_specs():
    return {s.label: s for s in fig3_specs() + tab1_specs()}


def _result_sha(result):
    payload = json.loads(canonical_json(_payload_from(result)))
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest(), payload


def _payload_sha(spec):
    return _result_sha(spec.run())


#: Default byte-identity coverage: one point per grid family (TCMP,
#: small/medium plex, the non-sharing base, the DS-overhead pairs) keeps
#: the test under ~15 s.  Set ``REPRO_FULL_GRID=1`` to check all 22
#: points (~80 s per profile) — the CI golden-grid job does.
_SUBSET = ("base-1cpu", "tcmp-4", "tcmp-10", "plex-1", "plex-4", "plex-8",
           "1-system no-DS", "2-system DS", "8-system DS")


def test_verify_profile_reproduces_golden_grid():
    """The verify profile is byte-identical to pre-refactor main."""
    fixture = json.loads(GOLDEN_GRID.read_text())
    golden = {p["label"]: p for p in fixture["points"]}
    labels = (list(golden) if os.environ.get("REPRO_FULL_GRID")
              else list(_SUBSET))
    specs = _grid_specs()
    for label in labels:
        sha, _payload = _payload_sha(specs[label].replace(profile="verify"))
        assert sha == golden[label]["payload_sha256"], label


def test_verify_profile_reproduces_golden_duplex():
    """The duplexed-write protocol is itself byte-pinned: a duplexed
    chaos run under the verify profile reproduces its golden payload
    hash (the simplex grid above already pins duplex="none")."""
    from repro.experiments.exp_chaos import chaos_spec

    fixture = json.loads(GOLDEN_DUPLEX.read_text())
    for point in fixture["points"]:
        spec = chaos_spec(seed=1, duplex="all", horizon=1.5, drain=1.0,
                          window=0.5).replace(profile="verify")
        assert spec.label == point["label"]
        sha, payload = _payload_sha(spec)
        assert sha == point["payload_sha256"], point["label"]
        assert payload["data"]["summary"]["completed"] == point["completed"]


def test_small_pool_nonsharing_reproduces_golden():
    """The steal past a dirty LRU head is byte-pinned: no grid point
    reaches one, so a 1,500-buffer non-sharing point whose cold end
    turns all-dirty replays its golden payload hash."""
    from dataclasses import replace

    from repro.runspec import RunSpec

    fixture = json.loads(GOLDEN_SMALLPOOL.read_text())
    for point in fixture["points"]:
        base = scaled_config(1, 1, data_sharing=False, seed=point["seed"])
        config = replace(base, db=replace(
            base.db, buffer_pages=point["buffer_pages"]))
        spec = RunSpec(config=config, duration=point["duration"],
                       warmup=point["warmup"], options=RunOptions(),
                       label=point["label"])
        sha, payload = _payload_sha(spec)
        assert sha == point["payload_sha256"], point["label"]
        assert payload["data"]["completed"] == point["completed"]


def test_sweep_default_statistically_neutral_vs_golden():
    """Collapse-by-default: sweep payloads stay within statistical
    tolerance of the golden fixtures.  The deltas are exact per-seed
    numbers (both paths are deterministic), not machine noise; the worst
    observed throughput delta across the 22-point grid is 6.7%."""
    specs = _grid_specs()
    fixture = json.loads(GOLDEN_GRID.read_text())
    golden = {p["label"]: p for p in fixture["points"]}
    for label in ("tcmp-4", "plex-4", "2-system DS"):
        payload = json.loads(canonical_json(
            _payload_from(specs[label].replace(profile="sweep").run())))
        data = payload["data"]
        g = golden[label]
        assert data["completed"] == pytest.approx(
            g["completed"], rel=0.10), label
        assert data["response_mean"] == pytest.approx(
            g["response_mean"], rel=0.25), label


def test_sweep_profile_reproduces_golden_sweep():
    """The default sweep profile is byte-pinned too: the grid subset (all
    22 points with ``REPRO_FULL_GRID=1``) replays its recorded payloads
    and kernel event counts.  The traced tab1 points pin the same count
    as their untraced twins: tracing adds no event."""
    fixture = json.loads(GOLDEN_SWEEP.read_text())
    golden = {p["label"]: p for p in fixture["points"]}
    specs = _grid_specs()
    labels = (list(specs) if os.environ.get("REPRO_FULL_GRID")
              else list(_SUBSET))
    for label in labels:
        result = specs[label].replace(profile="sweep").run()
        sha, _payload = _result_sha(result)
        assert sha == golden[label]["payload_sha256"], label
        assert result.sim_events == golden[label]["sim_events"], label


def test_sweep_subchannel_fallback_reproduces_golden():
    """Six engines per system contend for the subchannels, so some sync
    commands leave the collapsed frame for the general path mid-command;
    that handoff replays its recorded payload and fallback count."""
    point = json.loads(GOLDEN_SWEEP.read_text())["points"][-1]
    cfg = scaled_config(point["n_systems"], point["n_cpus"],
                        seed=point["seed"])
    plex, result = _run(cfg, duration=point["duration"],
                        warmup=point["warmup"], options=RunOptions(),
                        label=point["label"])
    sha, _payload = _result_sha(result)
    assert sha == point["payload_sha256"]
    assert result.sim_events == point["sim_events"]
    ports = list(_ports(plex))
    syncs = sum(p.sync_ops for p in ports)
    assert syncs == point["sync_ops"]
    assert syncs - sum(p.fast_syncs for p in ports) \
        == point["subchannel_fallbacks"]


def test_prewarm_callers_reproduce_golden():
    """The experiment runners that prewarm pools themselves are
    byte-pinned: a balancing sysplex (one hot list for every member), the
    balancing partitioned cluster (one hot list per owner) and the growth
    partitioned cluster (one hot list for every owner, no CF) replay
    their recorded payloads."""
    from repro.experiments.exp_balancing import balancing_specs
    from repro.experiments.exp_growth import growth_specs

    specs = {
        "exp_balancing": {s.label: s for s in balancing_specs(
            n_systems=4, duration=0.3, warmup=0.1, seed=1)},
        "exp_growth": {s.label: s for s in growth_specs(
            n_initial=3, window=0.05, seed=1)},
    }
    fixture = json.loads(GOLDEN_PREWARM_CALLERS.read_text())
    for point in fixture["points"]:
        spec = specs[point["experiment"]][point["label"]]
        sha, payload = _payload_sha(spec)
        assert sha == point["payload_sha256"], point["label"]
        for key in ("completed", "lost_txns"):
            if key in point:
                assert payload["data"][key] == point[key], point["label"]


def test_balancing_sysplex_runs_its_spec_profile():
    """An EXP-BAL sysplex case runs the profile its spec names: sweep
    collapses events, so the same case under verify processes more."""
    from repro.experiments.exp_balancing import balancing_specs

    spec = next(s for s in balancing_specs(n_systems=2, duration=0.1,
                                           warmup=0.05, seed=1)
                if s.label == "sysplex-wlm")
    sweep = spec.replace(profile="sweep").run()
    verify = spec.replace(profile="verify").run()
    assert sweep.completed > 0
    assert sweep.sim_events < verify.sim_events


def _baseline_spec(point):
    """Rebuild one golden baseline point: the experiment's own spec with
    the point's contention overrides (a smaller database, a sharper skew,
    a faster deadlock sweep) applied to its config."""
    from dataclasses import replace

    from repro.config import OltpConfig
    from repro.experiments.exp_balancing import balancing_specs
    from repro.experiments.exp_coherency import coherency_specs

    n, seed = point["n_systems"], point["seed"]
    window = {"duration": point["duration"], "warmup": point["warmup"],
              "seed": seed}
    if point["experiment"] == "exp_coherency":
        spec = coherency_specs(sweep=(n,), **window)[1]
    else:
        spec = next(s for s in balancing_specs(n_systems=n, **window)
                    if s.label == "partitioned")
    overrides = point.get("overrides")
    if overrides:
        config = scaled_config(
            n, data_sharing=False, seed=seed,
            pages_per_engine=overrides["pages_per_engine"],
            oltp=OltpConfig(zipf_theta=overrides["zipf_theta"]))
        config = replace(config, db=replace(
            config.db, deadlock_interval=overrides["deadlock_interval"]))
        spec = replace(spec, config=config)
    return spec


def test_baselines_reproduce_golden():
    """The two baseline clusters are byte-pinned: broadcast coherency at
    two sizes, a contended broadcast point that retries deadlocks, a
    partitioned point that function-ships and runs two-phase commit, and
    a contended partitioned point whose deadlock retries run out."""
    fixture = json.loads(GOLDEN_BASELINES.read_text())
    for point in fixture["points"]:
        sha, payload = _payload_sha(_baseline_spec(point))
        assert sha == point["payload_sha256"], point["name"]
        data = payload["data"]
        assert data["completed"] == point["completed"], point["name"]
        for key, value in point["extras"].items():
            assert data["extras"][key] == value, (point["name"], key)


# ------------------------------------------------------ robustness gating ----
def test_request_timeout_disables_fast_path():
    """Chaos/robustness runs (request_timeout set) need the general path's
    retry/ICC machinery — the collapse gate stays off even under sweep."""
    cfg = scaled_config(2, 1, seed=1,
                        cf=CfConfig(request_timeout=0.005))
    plex, result = _run(cfg, duration=0.15, warmup=0.1,
                        options=RunOptions(profile="sweep"))
    ports = list(_ports(plex))
    assert ports and all(not p._collapse for p in ports)
    assert all(p.fast_syncs == 0 for p in ports)
    assert sum(p.sync_ops for p in ports) > 0
    assert result.completed > 0


def test_tracing_keeps_the_collapsed_frame():
    """The tracer only observes: a traced sweep run keeps the collapse
    gate on every port and completes sync commands in the collapsed
    frame, which records the ``cf.sync``/``cf.service`` spans itself."""
    cfg = scaled_config(2, 1, seed=1)
    plex, _ = _run(cfg, duration=0.1, warmup=0.05,
                   options=RunOptions(profile="sweep", tracing=True))
    ports = list(_ports(plex))
    assert ports and all(p._collapse for p in ports)
    assert sum(p.fast_syncs for p in ports) > 0
    seen = {s.category for s in plex.tracer.spans}
    assert {"cf.sync", "cf.service"} <= seen


def test_verify_profile_keeps_the_collapse_gate_off():
    """verify runs every CF command on the general path: no port
    collapses and ``fast_syncs`` reads 0."""
    cfg = scaled_config(2, 1, seed=1)
    plex, _ = _run(cfg, duration=0.1, warmup=0.05,
                   options=RunOptions(profile="verify"))
    ports = list(_ports(plex))
    assert ports and all(not p._collapse for p in ports)
    assert all(p.fast_syncs == 0 for p in ports)
    assert sum(p.sync_ops for p in ports) > 0


# ------------------------------------------------------ kernel primitives ----
def test_timeout_at_matches_relative_chain():
    sim = Simulator()
    seen = []

    def p():
        yield sim.timeout(0.25)
        seen.append(sim.now)
        yield sim.timeout_at(0.75, "x")
        seen.append(sim.now)

    sim.process(p(), name="p")
    sim.run()
    assert seen == [0.25, 0.75]
    with pytest.raises(ValueError):
        sim.timeout_at(sim.now - 1.0)
