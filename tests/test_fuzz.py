"""Fuzzer: feature map, mutation/shrink determinism, oracles, CLI."""

import random
from dataclasses import replace as dc_replace
from types import SimpleNamespace

import pytest

import repro.experiments.__main__ as exp_main
from repro.adversaries import adversary_spec, base_spec, edit_config
from repro.fuzz import (
    DIMENSIONS,
    GEOMETRY,
    _bucket,
    features,
    fuzz,
    main,
    mutate,
    outcome_key,
    replay,
    seed_specs,
    shrink,
)
from repro.invariants import InvariantChecker
from repro.runspec import RunSpec


# ------------------------------------------------ feature map ----
def test_bucket_edges():
    assert _bucket(0.0) == "b0"
    assert _bucket(0.05) == "b1"
    assert _bucket(1.0) == "b4"  # bisect_right: the edge itself rounds up
    assert _bucket(10_000) == "b10"


def test_bucket_monotonic():
    values = [0.0, 0.01, 0.2, 0.7, 1.5, 3.0, 7.0, 20.0, 60.0, 500.0, 2000.0]
    buckets = [int(_bucket(v)[1:]) for v in values]
    assert buckets == sorted(buckets)


def _payload():
    return {
        "invariants": {"branches": {"retained:none": 3}, "violations": []},
        "degraded": [[0.5, "cf-request-timeout:CF00"]],
        "outcomes": [
            [1.2, "crash:SYS00", "fired"],
            [1.4, "sick:SYS01", "skipped"],
        ],
        "summary": {
            "completed": 100,
            "lost": 0,
            "rebuilds_started": 1,
            "pathology": {
                "lock_waits": 50,
                "deadlocks": 0,
                "xi_signals": 200,
                "false_contention_rate": 0.0,
                "castout_backlog": 0,
                "cache_full": 0,
                "retained_locks": 0,
                "sick_systems": 1,
                "partitioned": 0,
            },
        },
    }


def test_features_cover_branches_events_and_buckets():
    f = features(_payload())
    assert "branch:retained:none" in f
    assert "degraded:cf-request-timeout" in f
    assert "chaos:crash:fired" in f
    assert "chaos:sick:skipped" in f
    assert "waits:" + _bucket(0.5) in f  # 50 waits / 100 txns
    assert "xi:" + _bucket(2.0) in f
    assert "sick:1" in f


def test_violations_become_features():
    p = _payload()
    p["invariants"]["violations"] = [{"name": "lock-safety", "detail": "x"}]
    assert "violation:lock-safety" in features(p)


# ------------------------------------------------ dimensions + mutation ----
def test_dimensions_get_set_roundtrip():
    spec = base_spec(seed=1, **GEOMETRY)
    for dim in DIMENSIONS:
        value = next(c for c in dim.choices if c != dim.get(spec))
        changed = dim.set(spec, value)
        assert dim.get(changed) == value, dim.name
        assert changed.content_hash() != spec.content_hash(), dim.name


def test_mutate_is_deterministic_in_the_rng():
    spec = base_spec(seed=1, **GEOMETRY)
    a, ops_a = mutate(spec, random.Random(7))
    b, ops_b = mutate(spec, random.Random(7))
    assert ops_a == ops_b
    assert a.content_hash() == b.content_hash()
    assert ops_a  # at least one op applied


def test_seed_specs_distinct():
    specs = seed_specs(seed=0)
    assert len(specs) == 9  # base + 7 adversaries + chaos soak
    assert len({s.content_hash() for s in specs}) == len(specs)


# ------------------------------------------------ campaign determinism ----
def test_campaign_is_a_pure_function_of_budget_and_seed():
    seeds = [base_spec(seed=1, **GEOMETRY)]
    a = fuzz(budget=2, seed=0, quiet=True, seeds=seeds)
    b = fuzz(budget=2, seed=0, quiet=True, seeds=seeds)
    assert a.to_dict() == b.to_dict()
    assert a.ok
    assert a.stats["corpus"] >= 1


# ------------------------------------------------ planted bug -> shrink ----
def _plant_bug(monkeypatch):
    """Weaken the checker: coarse lock tables become an invariant bug."""
    real = InvariantChecker._check_lock_safety

    def planted(self):
        real(self)
        if self.plex.config.cf.lock_table_entries < 1024:
            self._record("planted-bug", "coarse lock table (planted)")

    monkeypatch.setattr(InvariantChecker, "_check_lock_safety", planted)


def test_planted_bug_is_found_shrunk_and_replayable(tmp_path, monkeypatch):
    _plant_bug(monkeypatch)
    seeds = [adversary_spec("false_contention", seed=1, **GEOMETRY)]
    result = fuzz(budget=0, seed=0, out=tmp_path, quiet=True, seeds=seeds)
    assert not result.ok
    [failure] = result.failures
    assert failure["key"] == "invariant:planted-bug"

    # shrunk to the single guilty dimension: everything else is base
    minimal = RunSpec.from_dict(failure["spec"])
    base = base_spec(seed=1, **GEOMETRY)
    diffs = [d.name for d in DIMENSIONS if d.get(minimal) != d.get(base)]
    assert diffs == ["cf.lock_table_entries"]
    assert minimal.config.cf.lock_table_entries == 64

    # the repro file on disk is a loadable spec and still trips the oracle
    assert (tmp_path / "corpus.json").is_file()
    assert (tmp_path / "coverage.json").is_file()
    [path] = sorted((tmp_path / "failures").glob("*.json"))
    spec = RunSpec.from_json(path.read_text())
    assert spec.content_hash() == failure["spec_hash"]
    assert replay(path, quiet=True) == 0


def test_shrinker_is_deterministic(monkeypatch):
    _plant_bug(monkeypatch)
    spec = adversary_spec("false_contention", seed=1, **GEOMETRY)
    spec = edit_config(spec, db={"n_pages": 600})
    spec = spec.replace(config=dc_replace(spec.config, n_dasd=16))
    m1, r1 = shrink(spec, "invariant:planted-bug", seed=0)
    m2, r2 = shrink(spec, "invariant:planted-bug", seed=0)
    assert m1.to_dict() == m2.to_dict()
    assert r1 == r2
    key, _payload, _detail = outcome_key(m1)
    assert key == "invariant:planted-bug"  # the minimal spec still fails


# ------------------------------------------------ replay CLI ----
def test_replay_cli_on_a_clean_bare_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(base_spec(seed=1, **GEOMETRY).to_json())
    assert main(["--replay", str(path), "--quiet"]) == 0


# ------------------------------------------------ --expect-no-misses ----
# the CI warm-cache assertion (experiments-smoke) the workflows rely on


def _fake_experiment(miss):
    def main(quick, seed, execution):
        if miss:
            execution.cache.misses += 1

    return SimpleNamespace(__name__="repro.experiments.exp_fake", main=main)


def test_expect_no_misses_passes_on_warm_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(exp_main, "ALL", (_fake_experiment(miss=False),))
    exp_main.main(
        ["--filter", "fake", "--cache-dir", str(tmp_path), "--expect-no-misses"]
    )


def test_expect_no_misses_fails_on_a_cold_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(exp_main, "ALL", (_fake_experiment(miss=True),))
    with pytest.raises(SystemExit, match="cache missed"):
        exp_main.main(
            [
                "--filter",
                "fake",
                "--cache-dir",
                str(tmp_path),
                "--expect-no-misses",
            ]
        )


def test_expect_no_misses_requires_the_cache():
    with pytest.raises(SystemExit, match="needs the cache"):
        exp_main.main(["--filter", "tab1", "--no-cache", "--expect-no-misses"])


# ---------------------------------------------------- execution axis ----
def test_profile_is_a_fuzz_dimension():
    dims = {d.name: d for d in DIMENSIONS}
    assert dims["options.profile"].choices == ("sweep", "verify")
