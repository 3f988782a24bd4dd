"""Tests for the redesigned execution API.

The :class:`~repro.experiments.common.Execution` value object,
sweep-level :class:`~repro.executor.Progress` reporting, and the
``repro.run()`` sweep routing.
"""

import io
from pathlib import Path

import pytest

import repro
from repro.executor import Progress, ResultCache, WorkQueueBackend
from repro.experiments.common import Execution, sweep
from repro.runspec import RunSpec

RUNNER = "tests.test_execution_api:echo_runner"


def echo_runner(spec):
    return {"n": spec.params["n"] * 2, "profile": spec.profile}


def echo_specs(n=3):
    return [RunSpec(runner=RUNNER, label=f"e{i}", params={"n": i})
            for i in range(n)]


# ------------------------------------------------------------- Execution ----
def test_execution_defaults_are_plain_in_process():
    ex = Execution()
    assert ex.backend is None and ex.cache is None
    assert ex.csv_dir is None and ex.progress is False and ex.profile is None
    assert ex.parallelism() == 1


def test_execution_is_frozen_and_replace_copies():
    ex = Execution(progress=True)
    with pytest.raises(AttributeError):
        ex.progress = False
    assert ex.replace(progress=False).progress is False
    assert ex.progress is True


def test_execution_normalizes_csv_dir():
    ex = Execution(csv_dir="out/csv")
    assert ex.csv_dir == Path("out/csv")


def test_execution_parallelism_follows_the_backend():
    ex = Execution(backend=WorkQueueBackend(workers=6))
    assert ex.parallelism() == 6


# ----------------------------------------------------------------- sweep ----
def test_sweep_threads_the_execution_cache(tmp_path):
    specs = echo_specs()
    cache = ResultCache(tmp_path / "rc")
    ex = Execution(cache=cache)
    out = sweep(specs, execution=ex)
    assert out == [s.run() for s in specs]
    assert cache.misses == len(specs)
    sweep(specs, execution=ex)
    assert cache.hits == len(specs)


def test_sweep_forces_the_execution_profile():
    out = sweep(echo_specs(1), execution=Execution(profile="verify"))
    assert out[0]["profile"] == "verify"
    out = sweep(echo_specs(1), execution=Execution())
    assert out[0]["profile"] == "sweep"  # the spec's own default


def test_sweep_kwargs_override_the_execution(tmp_path):
    ex = Execution(cache=ResultCache(tmp_path / "rc"))
    sweep(echo_specs(1), execution=ex, cache=None)  # forced cache-off
    assert ex.cache.misses == 0 and ex.cache.hits == 0


def test_sweep_without_execution_uses_plain_defaults():
    assert sweep(echo_specs(2)) == [s.run() for s in echo_specs(2)]


# -------------------------------------------------------------- Progress ----
def test_progress_counts_hits_and_smooths_cost():
    p = Progress(total=4, parallelism=2, clock=lambda: 0.0)
    spec = echo_specs(1)[0]
    p.update(spec, cached=True, seconds=0.0)
    assert p.cache_hits == 1 and p.ewma_seconds is None
    assert p.eta_seconds() is None  # no computed point yet
    p.update(spec, cached=False, seconds=2.0)
    assert p.ewma_seconds == 2.0
    p.update(spec, cached=False, seconds=4.0)
    assert p.ewma_seconds == pytest.approx(
        Progress.ALPHA * 4.0 + (1 - Progress.ALPHA) * 2.0)
    # 1 point left, pipelined over 2 workers
    assert p.eta_seconds() == pytest.approx(p.ewma_seconds / 2)


def test_progress_eta_is_zero_when_done():
    p = Progress(total=1, clock=lambda: 0.0)
    p.update(echo_specs(1)[0], cached=False, seconds=1.0)
    assert p.eta_seconds() == 0.0


def test_progress_renders_lines_and_summary():
    stream = io.StringIO()
    p = Progress(total=2, stream=stream, clock=lambda: 0.0)
    p.update(echo_specs(1)[0], cached=True, seconds=0.0)
    p.update(echo_specs(1)[0], cached=False, seconds=1.5)
    lines = stream.getvalue().splitlines()
    assert "[1/2 cache  hits 1" in lines[0] and "e0" in lines[0]
    assert "1.5s/pt" in lines[1] and "eta 0s" in lines[1]
    assert p.summary() == "2/2 points in 0s (1 cache hits)"


def test_progress_label_falls_back_to_runner_and_hash():
    spec = RunSpec(runner=RUNNER, params={"n": 1})  # no label
    line = Progress(total=1).line(spec, cached=False, seconds=0.1)
    assert RUNNER in line and spec.short_hash() in line


# ------------------------------------------------------ repro.run sweeps ----
def test_run_routes_spec_sequences_through_execute():
    specs = echo_specs(3)
    assert repro.run(specs) == [s.run() for s in specs]


def test_run_sweep_rejects_mixed_sequences():
    with pytest.raises(TypeError, match="sequence of RunSpec"):
        repro.run([echo_specs(1)[0], "not-a-spec"])


def test_run_sweep_passes_execute_kwargs(tmp_path):
    specs = echo_specs(2)
    cache = ResultCache(tmp_path / "rc")
    repro.run(specs, cache=cache)
    assert cache.misses == 2
    assert repro.run(specs, cache=cache) == [s.run() for s in specs]
    assert cache.hits == 2
