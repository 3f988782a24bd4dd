"""Tests for the RunSpec layer and the parallel sweep executor."""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.config import CpuConfig, DatabaseConfig, SysplexConfig
from repro import runner
from repro.distrib import worker
from repro.executor import (
    ResultCache,
    WorkQueueBackend,
    execute,
    execute_iter,
    run_task,
)
from repro.metrics import RunResult
from repro.runner import run_oltp
from repro.runspec import SCHEMA_VERSION, RunSpec, canonical_json

ROOT = Path(__file__).resolve().parent.parent


def small_cfg(n_systems=2, data_sharing=True, seed=11):
    return SysplexConfig(
        n_systems=n_systems,
        cpu=CpuConfig(n_cpus=1),
        data_sharing=data_sharing,
        n_cfs=1 if data_sharing else 0,
        db=DatabaseConfig(n_pages=20_000, buffer_pages=4_000),
        seed=seed,
    )


def small_spec(**overrides):
    kw = dict(config=small_cfg(), duration=0.25, warmup=0.15)
    kw.update(overrides)
    return RunSpec(**kw)


# ---------------------------------------------------------- serialization ----
def test_runspec_round_trips_through_dict():
    spec = small_spec(label="rt", params={"a": 1, "b": [1, 2]})
    again = RunSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.config == spec.config
    assert again.content_hash() == spec.content_hash()


def test_runspec_dict_is_json_serializable():
    spec = small_spec()
    json.loads(canonical_json(spec.to_dict()))


def test_runresult_round_trips_through_dict():
    result = run_oltp(small_cfg(), duration=0.2, warmup=0.1)
    again = RunResult.from_dict(result.to_dict())
    assert again == result


def test_sysplex_config_round_trips_subconfigs():
    cfg = small_cfg()
    again = SysplexConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert isinstance(again.cpu, CpuConfig)
    assert isinstance(again.db, DatabaseConfig)


# --------------------------------------------------------------- identity ----
def test_content_hash_is_stable_for_equal_specs():
    assert small_spec().content_hash() == small_spec().content_hash()


def test_content_hash_changes_with_any_field():
    base = small_spec()
    assert base.replace(duration=0.3).content_hash() != base.content_hash()
    assert base.replace(tracing=True).content_hash() != base.content_hash()
    other_cfg = small_spec(config=small_cfg(seed=12))
    assert other_cfg.content_hash() != base.content_hash()


def test_content_hash_is_stable_across_processes():
    spec = small_spec(label="xproc", params={"k": 3})
    prog = (
        "from tests.test_runspec_executor import small_spec;"
        "print(small_spec(label='xproc', params={'k': 3}).content_hash())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + "."
    out = subprocess.run(
        [sys.executable, "-c", prog], capture_output=True, text=True,
        env=env, check=True,
    )
    assert out.stdout.strip() == spec.content_hash()


# -------------------------------------------------------- runner dispatch ----
def test_default_runner_matches_run_oltp():
    direct = run_oltp(small_cfg(), duration=0.25, warmup=0.15)
    via_spec = execute([small_spec()])[0]
    assert via_spec.completed == direct.completed
    assert via_spec.throughput == pytest.approx(direct.throughput)


def test_unknown_runner_is_an_error():
    with pytest.raises((ValueError, ModuleNotFoundError)):
        small_spec(runner="no-such-alias").run()


def probe_runner(spec):
    return {"label": spec.label, "n": spec.params["n"] * 2}


def test_scenario_runner_returns_plain_data():
    spec = RunSpec(runner="tests.test_runspec_executor:probe_runner",
                   label="probe", params={"n": 21})
    assert execute([spec]) == [{"label": "probe", "n": 42}]


def test_run_task_frees_the_finished_simulation(monkeypatch):
    """run_oltp pauses the cycle collector over a run and a finished
    sysplex is cyclic garbage, so run_task collects it before returning:
    it must not stay resident through the next point's run."""
    built = []
    build = runner.build_loaded_sysplex

    def spy(*args, **kwargs):
        plex, gen = build(*args, **kwargs)
        built.append(weakref.ref(plex))
        return plex, gen

    monkeypatch.setattr(runner, "build_loaded_sysplex", spy)
    payload = run_task(small_spec().to_dict())
    assert payload["kind"] == "runresult"
    assert len(built) == 1 and built[0]() is None


def test_run_task_freeze_pins_no_point_garbage():
    """A work-queue worker freezes what survives each point's
    collection, so every object a point leaves behind must be freed
    before that freeze, or each point would pin its leftovers for good.
    Tracked plus frozen objects stay flat from one micro point to the
    next through the worker's per-task call."""
    from repro.campaign import build_grid

    specs = build_grid("micro", 9, seed=0)

    def census():
        return len(gc.get_objects()) + gc.get_freeze_count()

    for spec in specs[:3]:  # one point of each size warms the imports
        worker._run_and_freeze(spec.to_dict())
    before = census()
    for spec in specs[3:]:
        worker._run_and_freeze(spec.to_dict())
    assert census() - before <= 20 * len(specs[3:])


class _Node:
    pass


def test_in_process_execution_leaves_the_callers_garbage_collectable():
    """The in-process path must not freeze the caller's heap: a cycle
    alive while a sweep runs is collected once the caller drops it."""
    node = _Node()
    node.self = node
    ref = weakref.ref(node)
    execute([RunSpec(runner="tests.test_runspec_executor:probe_runner",
                     params={"n": 1})])
    del node
    gc.collect()
    assert ref() is None


# ------------------------------------------------------------ determinism ----
def test_in_process_workqueue_and_cache_hit_are_identical(tmp_path):
    specs = [small_spec(), small_spec(config=small_cfg(seed=12))]
    cache = ResultCache(tmp_path / "rc")

    serial = execute(specs)
    parallel = execute(specs, cache=cache,
                       backend=WorkQueueBackend(workers=2, pythonpath=[ROOT]))
    assert cache.misses == 2 and cache.hits == 0
    hits = execute(specs, cache=cache)
    assert cache.hits == 2

    for a, b, c in zip(serial, parallel, hits):
        assert a.to_dict() == b.to_dict() == c.to_dict()
        assert isinstance(a, RunResult)


def test_results_keep_spec_order(tmp_path):
    specs = [
        RunSpec(runner="tests.test_runspec_executor:probe_runner",
                label=f"s{i}", params={"n": i})
        for i in range(5)
    ]
    got = execute(specs, cache=ResultCache(tmp_path / "rc"),
                  backend=WorkQueueBackend(workers=2, pythonpath=[ROOT]))
    assert [r["n"] for r in got] == [0, 2, 4, 6, 8]


# ------------------------------------------------------------------ cache ----
def test_cache_files_are_self_describing(tmp_path):
    cache = ResultCache(tmp_path / "rc")
    spec = RunSpec(runner="tests.test_runspec_executor:probe_runner",
                   label="audit", params={"n": 1})
    execute([spec], cache=cache)
    entry = json.loads(cache.path_for(spec).read_text())
    assert entry["schema"] == SCHEMA_VERSION
    assert entry["hash"] == spec.content_hash()
    assert entry["spec"]["label"] == "audit"
    assert entry["payload"]["kind"] == "json"


def test_corrupt_and_stale_cache_entries_read_as_misses(tmp_path):
    cache = ResultCache(tmp_path / "rc")
    spec = RunSpec(runner="tests.test_runspec_executor:probe_runner",
                   params={"n": 1})
    execute([spec], cache=cache)

    cache.path_for(spec).write_text("{not json")
    fresh = ResultCache(tmp_path / "rc")
    assert fresh.get(spec) is None and fresh.misses == 1

    execute([spec], cache=fresh)
    entry = json.loads(cache.path_for(spec).read_text())
    entry["schema"] = SCHEMA_VERSION + 1
    cache.path_for(spec).write_text(json.dumps(entry))
    stale = ResultCache(tmp_path / "rc")
    assert stale.get(spec) is None


def test_completion_reports_cache_state(tmp_path):
    cache = ResultCache(tmp_path / "rc")
    spec = RunSpec(runner="tests.test_runspec_executor:probe_runner",
                   params={"n": 7})
    seen = [(c.index, c.result["n"], c.cached)
            for _ in range(2) for c in execute_iter([spec], cache=cache)]
    assert seen == [(0, 14, False), (0, 14, True)]


def test_progress_false_means_no_progress(capsys):
    spec = RunSpec(runner="tests.test_runspec_executor:probe_runner",
                   params={"n": 3})
    assert execute([spec], progress=False) == [{"label": None, "n": 6}]
    assert capsys.readouterr().err == ""


# -------------------------------------------------------------------- csv ----
def test_print_rows_archives_csv(tmp_path, capsys):
    from repro.experiments.common import print_rows

    rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": None}]
    path = tmp_path / "out" / "table.csv"
    print_rows("T", rows, ["a", "b"], csv_path=path)
    capsys.readouterr()
    lines = path.read_text().strip().splitlines()
    assert lines == ["a,b", "1,2.5", "3,"]
