"""Tests for the public API surface: repro.run and RunOptions."""

import pytest

import repro
from repro import (
    CpuConfig,
    DatabaseConfig,
    RunOptions,
    RunSpec,
    SysplexConfig,
    run,
    run_oltp,
)
from repro.options import OPTION_FIELDS
from repro.runner import build_loaded_sysplex


def small_cfg(n_systems=2, seed=11):
    return SysplexConfig(
        n_systems=n_systems,
        cpu=CpuConfig(n_cpus=1),
        db=DatabaseConfig(n_pages=20_000, buffer_pages=4_000),
        seed=seed,
    )


# -------------------------------------------------------------- RunOptions ----
def test_run_options_defaults_and_replace():
    opts = RunOptions()
    assert opts.mode == "closed"
    assert opts.router_policy == "threshold"
    assert opts.monitoring and not opts.tracing
    changed = opts.replace(tracing=True, mode="open")
    assert changed.tracing and changed.mode == "open"
    assert not opts.tracing  # frozen: original untouched


def test_run_options_rejects_unknown_mode():
    with pytest.raises(ValueError):
        RunOptions(mode="sideways")


def test_run_options_dict_round_trip():
    opts = RunOptions(mode="open", offered_tps_per_system=42.0,
                      terminals_per_system=7, tracing=True)
    again = RunOptions.from_dict(opts.to_dict())
    assert again == opts
    assert set(opts.to_dict()) == OPTION_FIELDS


def test_run_options_from_dict_maps_retired_execution_keys():
    """Options saved with the retired per-knob overrides still load: the
    calendar choice is dropped and a collapse override becomes its
    profile."""
    assert (RunOptions.from_dict({"scheduler": "calendar", "collapse": False})
            == RunOptions(profile="verify"))
    assert RunOptions.from_dict({"collapse": None}) == RunOptions()
    assert (RunOptions.from_dict({"profile": "verify", "collapse": True})
            == RunOptions(profile="sweep"))


# --------------------------------------------------- RunSpec folds options ----
def test_runspec_round_trips_options():
    spec = RunSpec(config=small_cfg(), duration=0.2, warmup=0.1,
                   options=RunOptions(tracing=True, router_policy="wlm"))
    again = RunSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.options == spec.options
    assert again.content_hash() == spec.content_hash()


def test_runspec_options_affect_content_hash():
    base = RunSpec(config=small_cfg(), duration=0.2, warmup=0.1)
    for field in ("tracing", "monitoring"):
        changed = base.replace(**{field: not getattr(base.options, field)})
        assert changed.content_hash() != base.content_hash(), field
    assert (base.replace(router_policy="wlm").content_hash()
            != base.content_hash())


def test_runspec_exposes_option_properties():
    spec = RunSpec(options=RunOptions(mode="open", terminals_per_system=3))
    assert spec.mode == "open"
    assert spec.terminals_per_system == 3
    assert spec.router_policy == spec.options.router_policy


def test_runspec_replace_routes_option_fields():
    base = RunSpec(config=small_cfg())
    spec = base.replace(tracing=True, duration=0.5)
    assert spec.options.tracing and spec.duration == 0.5
    assert spec.options.router_policy == base.options.router_policy


def test_runspec_from_dict_accepts_legacy_flat_options():
    # schema-v1 dicts carried drive options as flat spec keys
    d = RunSpec(config=small_cfg()).to_dict()
    del d["options"]
    d["tracing"] = True
    d["mode"] = "open"
    spec = RunSpec.from_dict(d)
    assert spec.options.tracing and spec.options.mode == "open"


# -------------------------------------------------------------- run facade ----
def test_run_accepts_config_and_spec_identically():
    cfg = small_cfg()
    via_cfg = run(cfg, duration=0.2, warmup=0.1)
    via_spec = run(RunSpec(config=cfg, duration=0.2, warmup=0.1))
    assert via_cfg.completed == via_spec.completed
    assert via_cfg.throughput == via_spec.throughput


def test_run_applies_options_and_overrides_to_spec():
    spec = RunSpec(config=small_cfg(), duration=0.2, warmup=0.1)
    traced = run(spec, options=RunOptions(tracing=True))
    assert any(k.startswith("trace.") for k in traced.extras)
    plain = run(spec, tracing=False)
    assert not any(k.startswith("trace.") for k in plain.extras)
    assert traced.completed == plain.completed


def test_run_rejects_other_types():
    with pytest.raises(TypeError):
        run({"n_systems": 2})


def test_public_surface_is_importable():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


# ----------------------------------------------- loose kwargs are removed ----
def test_loose_kwargs_removed():
    """The pre-1.1 loose keyword style (deprecated in 1.1, removed in
    2.0) is now a plain TypeError: drive parameters travel only as a
    RunOptions bundle."""
    with pytest.raises(TypeError):
        run_oltp(small_cfg(), duration=0.2, warmup=0.1, router_policy="wlm")
    with pytest.raises(TypeError):
        build_loaded_sysplex(small_cfg(), mode="closed",
                             terminals_per_system=2)
    with pytest.raises(TypeError):
        run_oltp(small_cfg(), durations=0.2)
