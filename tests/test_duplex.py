"""Tests for system-managed CF structure duplexing (paper §3.3 / §2.5).

The duplexed-write protocol, the SFM switch-vs-rebuild policy, the
background re-duplex loop, and the failover determinism contract: a
duplexed chaos run is byte-identical across every executor backend, and
a duplex switch recovers measurably faster than a structure rebuild of
the same failure.
"""

from pathlib import Path

from repro import RunOptions
from repro.config import CfConfig, DatabaseConfig, SfmConfig, SysplexConfig
from repro.executor import WorkQueueBackend, execute
from repro.experiments.exp_chaos import chaos_spec
from repro.experiments.exp_duplex import duplex_spec, run_duplex_spec
from repro.invariants import InvariantChecker
from repro.runner import build_loaded_sysplex
from repro.runspec import canonical_json

ROOT = Path(__file__).resolve().parent.parent

STRUCTURES = ("IRLMLOCK1", "GBP0", "WORKQ1")


def duplex_cfg(n_systems=3, duplex="all", **kw):
    return SysplexConfig(
        n_systems=n_systems,
        n_cfs=2,
        cf=CfConfig(duplex=duplex),
        db=DatabaseConfig(n_pages=12_000, buffer_pages=4_000),
        **kw,
    )


def loaded(duplex="all", terminals=4, **kw):
    return build_loaded_sysplex(
        duplex_cfg(duplex=duplex, **kw),
        options=RunOptions(terminals_per_system=terminals),
    )


# ------------------------------------------------------------- wiring ----
def test_duplex_none_builds_no_pairs():
    plex, gen = loaded(duplex="none")
    assert plex.xes.duplex_pairs == {}
    for inst in plex.instances.values():
        for xes in (inst.xes_lock, inst.xes_cache, inst.xes_list):
            assert getattr(xes, "pair", None) is None


def test_duplex_all_wires_secondary_instances():
    plex, gen = loaded()
    assert sorted(plex.xes.duplex_pairs) == sorted(STRUCTURES)
    for pair in plex.xes.duplex_pairs.values():
        assert pair.active
        assert pair.secondary.facility is not pair.primary.facility
        for conn in pair.connections:
            # conn_id parity keeps the shared vector wiring identical
            assert conn.connector.conn_id == conn.sec_connector.conn_id


def test_partial_policy_duplexes_only_that_class():
    plex, gen = loaded(duplex="lock")
    assert list(plex.xes.duplex_pairs) == ["IRLMLOCK1"]


# ------------------------------------------------- duplexed writes ----
def test_mutations_keep_instances_byte_identical():
    plex, gen = loaded()
    plex.sim.run(until=0.5)
    compared = 0
    for pair in plex.xes.duplex_pairs.values():
        if pair.inflight:
            continue  # mid-protocol at the stop instant: not comparable
        assert pair.primary.duplex_state() == pair.secondary.duplex_state()
        compared += 1
    assert compared, "every pair was mid-flight at the stop instant"


def test_invariant_checker_covers_duplex_branches():
    plex, gen = loaded()
    checker = InvariantChecker(plex, interval=0.05)
    plex.sim.run(until=0.5)
    assert checker.branches.get("duplex:consistent", 0) > 0
    assert checker.ok, checker.violations


# ------------------------------------------------ break and re-duplex ----
def test_drop_secondary_breaks_cleanly_and_reduplexes():
    plex, gen = loaded()
    plex.sim.run(until=0.3)
    pair = plex.xes.duplex_pairs["IRLMLOCK1"]
    c0 = plex.metrics.counter("txn.completed").count
    pair.drop_secondary("test")
    assert pair.secondary is None and not pair.active
    plex.sim.run(until=0.6)
    # work kept completing simplex and the break hit the record
    assert plex.metrics.counter("txn.completed").count > c0
    assert plex.metrics.counter("duplex.breaks").count == 1
    assert any(label.startswith("duplex-simplex:IRLMLOCK1")
               for _t, label in plex.degraded_events)
    # the background loop re-established a fresh secondary
    plex.sim.run(until=1.5)
    assert pair.secondary is not None and pair.active
    assert plex.metrics.counter("duplex.reestablished").count == 1
    assert pair.primary.duplex_state() == pair.secondary.duplex_state()


# ------------------------------------------------------- switch path ----
def test_cf_failure_takes_the_switch_path():
    plex, gen = loaded()
    plex.sim.run(until=0.3)
    failing = plex.xes.duplex_pairs["IRLMLOCK1"].primary.facility
    surviving = next(c for c in plex.cfs if c is not failing)
    c0 = plex.metrics.counter("txn.completed").count
    failing.fail()
    plex.sim.run(until=1.5)

    assert plex.metrics.counter("cf.switches").count == len(STRUCTURES)
    assert plex.metrics.counter("cf.rebuilds_started").count == 0
    for name in STRUCTURES:
        st = plex.xes.find(name)
        assert st is not None and not st.lost
        assert st.facility is surviving
    assert plex.metrics.counter("txn.completed").count > c0
    # the castout engine survived the switch (a fresh drainer exists)
    assert any(inst.castout is not None and inst.castout.active
               for inst in plex.instances.values())
    incidents = plex.sfm.incidents
    switch_rows = [i for i in incidents if i["kind"] == "switch"]
    assert sorted(i["structure"] for i in switch_rows) == sorted(STRUCTURES)
    for row in switch_rows:
        assert row["detected_at"] >= row["failed_at"]
        assert row["resumed_at"] >= row["detected_at"]
        assert row["recovery_ms"] >= 0.0 and row["slo_ms"] > 0


def test_simplex_pair_falls_back_to_rebuild():
    plex, gen = loaded(sfm=SfmConfig(reestablish_delay=30.0))
    plex.sim.run(until=0.3)
    for pair in plex.xes.duplex_pairs.values():
        pair.drop_secondary("test")
    failing = plex.xes.find("IRLMLOCK1").facility
    surviving = next(c for c in plex.cfs if c is not failing)
    failing.fail()
    plex.sim.run(until=1.5)

    # both instances were gone: every structure took the rebuild path
    # and stopped being duplexed for the rest of the run
    assert plex.xes.duplex_pairs == {}
    assert plex.metrics.counter("cf.switches").count == 0
    assert plex.metrics.counter("cf.rebuilds").count == len(STRUCTURES)
    for name in STRUCTURES:
        st = plex.xes.find(name)
        assert st is not None and not st.lost
        assert st.facility is surviving
    kinds = {i["kind"] for i in plex.sfm.incidents if i["kind"] != "reestablish"}
    assert kinds == {"rebuild"}


# ---------------------------------------------------- the MTTR claim ----
def test_switch_recovers_faster_than_rebuild():
    """The identical CF failure, simplex vs. duplexed: the duplex switch
    must beat the structure rebuild on measured recovery time."""
    simplex = run_duplex_spec(duplex_spec(duplex="none"))["summary"]
    duplexed = run_duplex_spec(duplex_spec(duplex="all"))["summary"]
    assert simplex["rebuilds"] >= 1 and simplex["switches"] == 0
    assert duplexed["switches"] == len(STRUCTURES)
    assert duplexed["rebuilds"] == 0
    assert duplexed["recovery_ms_max"] > 0.0
    assert duplexed["recovery_ms_max"] < simplex["recovery_ms_max"]
    # the duplexed plex also keeps serving after the failure
    assert duplexed["post_tput"] > 0.5 * simplex["post_tput"]


# ------------------------------------------- failover determinism ----
def test_duplexed_chaos_is_byte_identical_across_backends():
    """The determinism contract under duplexing: the same duplexed chaos
    run in-process and through the work-queue server agrees to the
    byte."""
    spec = chaos_spec(seed=5, duplex="all",
                      horizon=1.5, drain=1.0, window=0.5)
    serial = execute([spec])
    queued = execute(
        [spec],
        backend=WorkQueueBackend(workers=2, pythonpath=[ROOT],
                                 startup_timeout=30.0),
    )
    a, c = serial[0], queued[0]
    assert canonical_json(a) == canonical_json(c)
    assert a["invariants"]["violations"] == []
    assert a["summary"]["pathology"]["duplex_pairs"] == len(STRUCTURES)
