"""Tests for the metrics module and experiment-harness helpers."""

import math

import pytest

from repro.metrics import RunResult
from repro.experiments.common import QUICK, print_rows, scaled_config
from repro.simkernel import MetricSet, Simulator, Tally


def make_result(**kw):
    defaults = dict(
        label="x", duration=1.0, completed=100, throughput=100.0,
        response_mean=0.01, response_p50=0.01, response_p90=0.02,
        response_p95=0.03, response_p99=0.05,
        cpu_utilization={"SYS00": 0.5, "SYS01": 0.9},
    )
    defaults.update(kw)
    return RunResult(**defaults)


# ------------------------------------------------------------- results ----
def test_runresult_mean_and_spread():
    r = make_result()
    assert r.mean_utilization == pytest.approx(0.7)
    assert r.utilization_spread == pytest.approx(0.4)


def test_runresult_empty_utilization():
    r = make_result(cpu_utilization={})
    assert r.mean_utilization == 0.0
    assert r.utilization_spread == 0.0


def test_runresult_row_renders():
    row = make_result().row()
    assert "100.0 tps" in row
    assert "p95" in row


# ------------------------------------------------------------ monitors ----
def test_tally_statistics():
    t = Tally()
    for v in (1.0, 2.0, 3.0, 4.0):
        t.record(v)
    assert t.n == 4
    assert t.mean == pytest.approx(2.5)
    assert t.maximum == 4.0
    assert t.percentile(50) == pytest.approx(2.5)
    t.reset()
    assert t.n == 0
    assert math.isnan(t.mean)


def test_metricset_lazy_creation_and_snapshot():
    sim = Simulator()
    m = MetricSet(sim)
    m.counter("a").add(3)
    m.tally("b").record(1.5)
    assert m.counters["a"].count == 3
    assert m.tallies["b"].mean == 1.5
    assert m.counter("a") is m.counter("a")
    assert m.tally("b") is m.tally("b")


# ---------------------------------------------------- experiment common ----
def test_scaled_config_scales_db_and_dasd():
    c2 = scaled_config(2)
    c8 = scaled_config(8)
    assert c8.db.n_pages == 4 * c2.db.n_pages
    assert c8.n_dasd == 4 * c2.n_dasd
    assert c2.data_sharing and c2.n_cfs == 1


def test_scaled_config_non_sharing():
    c = scaled_config(1, 1, data_sharing=False)
    assert not c.data_sharing
    assert c.n_cfs == 0


def test_scaled_config_overrides_pass_through():
    from repro.config import ArmConfig

    c = scaled_config(2, arm=ArmConfig(restart_time=9.0), seed=5)
    assert c.arm.restart_time == 9.0
    assert c.seed == 5


def test_print_rows_renders_table(capsys):
    print_rows("T", [{"a": 1, "b": 2.5}, {"a": 10, "b": None}], ["a", "b"])
    out = capsys.readouterr().out
    assert "== T ==" in out
    assert "2.500" in out
    assert "-" in out  # None rendering


def test_quick_settings_sane():
    assert 0 < QUICK["duration"] <= 2
    assert 0 < QUICK["warmup"] <= 2


def test_cli_runs_every_experiment_with_a_main():
    # an experiment module the package exports but the CLI's ALL leaves
    # out is skipped by `python -m repro.experiments` and unreachable
    # through --filter
    import repro.experiments as experiments
    from repro.experiments.__main__ import ALL

    with_main = {
        name for name in experiments.__all__
        if hasattr(getattr(experiments, name), "main")
    }
    assert with_main == {mod.__name__.rsplit(".", 1)[-1] for mod in ALL}
