"""Tests for the campaign driver: grids, manifest resume, triage."""

import json

import pytest

from repro.campaign import (
    GRIDS,
    MANIFEST_NAME,
    SUMMARY_NAME,
    Manifest,
    build_grid,
    main,
    run_campaign,
    triage,
)
from repro.runspec import RunSpec

RUNNER = "tests.test_campaign:tiny_runner"
BOOM = "tests.test_campaign:sometimes_boom_runner"


def tiny_runner(spec):
    return {"label": spec.label, "n": spec.params["n"]}


def sometimes_boom_runner(spec):
    if spec.params.get("boom"):
        raise ValueError("boom")
    return {"n": spec.params["n"]}


def tiny_specs(n, boom=()):
    return [RunSpec(runner=BOOM, label=f"t{i}",
                    params={"n": i, "boom": i in boom})
            for i in range(n)]


# ------------------------------------------------------------- grids ----
def test_grids_are_deterministic():
    for grid in GRIDS:
        a = [s.content_hash() for s in build_grid(grid, 9, seed=3)]
        b = [s.content_hash() for s in build_grid(grid, 9, seed=3)]
        assert a == b, grid
        assert len(a) == 9, grid


def test_grids_differ_by_seed():
    a = {s.content_hash() for s in build_grid("fuzz", 8, seed=0)}
    b = {s.content_hash() for s in build_grid("fuzz", 8, seed=1)}
    assert a != b


def test_unknown_grid_rejected():
    with pytest.raises(ValueError, match="unknown grid"):
        build_grid("nope", 5)
    with pytest.raises(ValueError, match="points"):
        build_grid("micro", 0)


# ----------------------------------------------------------- manifest ----
def test_manifest_round_trip(tmp_path):
    m = Manifest(tmp_path / MANIFEST_NAME)
    m.mark("aa" * 16, "done", 1.5, label="p0")
    m.mark("bb" * 16, "failed", 0.2, label="p1", error="ValueError: x")
    m.mark("bb" * 16, "done", 0.3, label="p1")  # retry wins

    again = Manifest(tmp_path / MANIFEST_NAME)
    assert again.status_of("aa" * 16) == "done"
    assert again.status_of("bb" * 16) == "done"
    assert again.counts() == {"done": 2}


def test_manifest_tolerates_torn_tail(tmp_path):
    path = tmp_path / MANIFEST_NAME
    m = Manifest(path)
    m.mark("cc" * 16, "done", 1.0)
    with path.open("a") as fh:
        fh.write('{"hash": "dd", "status": "do')  # killed mid-write
    again = Manifest(path)
    assert again.counts() == {"done": 1}
    assert again.status_of("dd") is None


def test_triage_groups_by_first_line():
    recs = [{"hash": "a", "label": "x", "error": "ValueError: boom\n..."},
            {"hash": "b", "label": "y", "error": "ValueError: boom"},
            {"hash": "c", "label": "z", "error": "KeyError: 'q'"}]
    groups = triage(recs)
    assert [g["count"] for g in groups] == [2, 1]
    assert groups[0]["error"].startswith("ValueError: boom")


# ------------------------------------------------------------ driver ----
def test_campaign_runs_and_resumes(tmp_path):
    specs = tiny_specs(5)
    root = tmp_path / "camp"
    summary = run_campaign(specs, root,
                           cache=str(tmp_path / "cache"), stream=None)
    assert summary["complete"] is True
    assert summary["done_this_run"] == 5
    assert summary["failed_this_run"] == 0
    assert (root / MANIFEST_NAME).exists()
    assert json.loads((root / SUMMARY_NAME).read_text())["complete"] is True

    # resume: nothing to do, nothing recomputed
    again = run_campaign(specs, root,
                         cache=str(tmp_path / "cache"), stream=None)
    assert again["skipped_from_manifest"] == 5
    assert again["ran"] == 0
    assert again["complete"] is True


def test_campaign_partial_manifest_resumes_without_recompute(tmp_path):
    """Killing the driver mid-run must lose and duplicate nothing."""
    specs = tiny_specs(6)
    root = tmp_path / "camp"
    # simulate a killed run: half the points already in the manifest
    m = Manifest(root / MANIFEST_NAME)
    for spec in specs[:3]:
        m.mark(spec.content_hash(), "done", 0.1, label=spec.label)

    summary = run_campaign(specs, root,
                           cache=str(tmp_path / "cache"), stream=None)
    assert summary["skipped_from_manifest"] == 3
    assert summary["ran"] == 3
    assert summary["complete"] is True
    # every hash appears exactly once as done — no duplicated points
    done = [r for r in Manifest(root / MANIFEST_NAME).records.values()
            if r["status"] == "done"]
    assert len(done) == 6


def test_campaign_failures_yield_triage_and_retry(tmp_path):
    specs = tiny_specs(4, boom={1, 3})
    root = tmp_path / "camp"
    summary = run_campaign(specs, root,
                           cache=str(tmp_path / "cache"), stream=None)
    assert summary["complete"] is False
    assert summary["done_this_run"] == 2
    assert summary["failed_this_run"] == 2
    assert summary["triage"][0]["count"] == 2
    assert "ValueError: boom" in summary["triage"][0]["error"]

    # failed points are skipped when retries are off...
    skip = run_campaign(specs, root, retry_failed=False,
                        cache=str(tmp_path / "cache"), stream=None)
    assert skip["ran"] == 0
    assert skip["skipped_from_manifest"] == 4
    # ...and retried (failing again, deterministically) by default
    retry = run_campaign(specs, root,
                         cache=str(tmp_path / "cache"), stream=None)
    assert retry["ran"] == 2
    assert retry["failed_this_run"] == 2


def test_campaign_complete_counts_only_this_grids_points(tmp_path):
    """Another grid's done points in the same directory do not make
    this grid's failures complete."""
    root = tmp_path / "camp"
    other = [RunSpec(runner=RUNNER, label=f"o{i}", params={"n": i})
             for i in range(6)]
    assert run_campaign(other, root, cache=None, stream=None)["complete"]

    summary = run_campaign(tiny_specs(4, boom={1, 3}), root, cache=None,
                           stream=None)
    assert summary["manifest"] == {"done": 8, "failed": 2}
    assert summary["failed_this_run"] == 2
    assert summary["complete"] is False


def test_campaign_triage_counts_only_this_grids_failures(tmp_path):
    """Another grid's failed points in the same directory stay out of
    this grid's triage, in the summary and under ``--status``."""
    root = tmp_path / "camp"
    failed = run_campaign(tiny_specs(4, boom={1, 3}), root, cache=None,
                          stream=None)
    assert failed["triage"][0]["count"] == 2

    ok = [RunSpec(runner=RUNNER, label=f"o{i}", params={"n": i})
          for i in range(3)]
    summary = run_campaign(ok, root, cache=None, stream=None)
    assert summary["complete"] is True
    assert summary["failed_this_run"] == 0
    assert summary["triage"] == []
    assert json.loads((root / SUMMARY_NAME).read_text())["triage"] == []


def test_cli_status_triages_only_this_grid(tmp_path, capsys):
    root = tmp_path / "camp"
    run_campaign(tiny_specs(4, boom={1, 3}), root, cache=None, stream=None)
    assert main(["--grid", "micro", "--points", "2", "--dir", str(root),
                 "--status"]) == 0
    out = capsys.readouterr().out
    assert "2 failed" in out
    assert "  triage:" not in out


def test_campaign_dedups_repeated_points(tmp_path):
    spec = tiny_specs(1)[0]
    summary = run_campaign([spec, spec, spec], tmp_path / "camp",
                           cache=str(tmp_path / "cache"), stream=None)
    assert summary["points"] == 3
    assert summary["unique_points"] == 1
    assert summary["ran"] == 1
    assert summary["complete"] is True


def test_campaign_fresh_discards_manifest(tmp_path):
    specs = tiny_specs(2)
    root = tmp_path / "camp"
    run_campaign(specs, root, cache=str(tmp_path / "cache"),
                 stream=None)
    redo = run_campaign(specs, root, fresh=True,
                        cache=str(tmp_path / "cache"), stream=None)
    assert redo["skipped_from_manifest"] == 0
    assert redo["ran"] == 2
    assert redo["cache_hits"] == 2, "fresh manifest still reuses the cache"


# --------------------------------------------------------------- CLI ----
def test_cli_micro_grid_and_status(tmp_path, capsys):
    root = tmp_path / "camp"
    rc = main(["--grid", "micro", "--points", "2", "--dir", str(root),
               "--cache", str(tmp_path / "cache"), "--no-progress"])
    assert rc == 0
    assert (root / SUMMARY_NAME).exists()

    rc = main(["--grid", "micro", "--points", "2", "--dir", str(root),
               "--status"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 done" in out
