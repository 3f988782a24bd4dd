"""Tests for VSAM record-level sharing (paper §5.2's in-development
exploiter)."""

import pytest

from repro.subsystems.vsam import VsamCatalog, VsamDataset, VsamRls


def make_rls(mp, index=0, granularity="record", catalog=None):
    from repro.hardware import DasdDevice
    from repro.subsystems import LogManager

    if catalog is None:
        catalog = VsamCatalog(first_page=1_000_000)
        catalog.define("ACCTS", max_cis=500, records_per_ci=10)
    import numpy as np

    dev = DasdDevice(mp.sim, mp.config.dasd, np.random.default_rng(index),
                     f"vlog{index}")
    log = LogManager(mp.sim, mp.nodes[index], mp.config.db, dev)
    rls = VsamRls(mp.sim, mp.nodes[index], catalog,
                  mp.lockmgrs[index], mp.buffermgrs[index], log,
                  lock_granularity=granularity)
    return rls, catalog


# -------------------------------------------------------------- dataset ----
def test_dataset_placement_and_splits():
    ds = VsamDataset("X", base_page=0, max_cis=100, records_per_ci=4)
    for k in range(4):
        ci, split = ds.place_new_record(k)
        assert not split
    assert {ds.ci_for(k) for k in range(4)} == {0}
    ci, split = ds.place_new_record(4)  # fifth record: CI splits
    assert split
    assert {ds.ci_for(k) for k in range(5)} == {0, 1}
    assert ds.ci_splits == 1
    # every record still findable, membership consistent
    for k in range(5):
        ci = ds.ci_for(k)
        assert k in ds._ci_members[ci]


def test_dataset_split_preserves_key_clustering():
    ds = VsamDataset("X", base_page=0, max_cis=100, records_per_ci=4)
    for k in (10, 20, 30, 40, 25):  # 25 inserts into a full CI
        ds.place_new_record(k)
    # after the split the upper keys live together
    ci_hi = ds.ci_for(40)
    ci_lo = ds.ci_for(10)
    assert ci_hi != ci_lo
    assert ds.ci_for(30) == ci_hi


def test_dataset_duplicate_key_rejected():
    ds = VsamDataset("X", base_page=0, max_cis=10)
    ds.place_new_record(1)
    with pytest.raises(KeyError):
        ds.place_new_record(1)


def test_catalog_allocates_disjoint_page_ranges():
    cat = VsamCatalog(first_page=100)
    a = cat.define("A", max_cis=50)
    b = cat.define("B", max_cis=50)
    assert a.base_page == 100
    assert b.base_page == 150
    with pytest.raises(ValueError):
        cat.define("A", max_cis=10)


# ------------------------------------------------------------------ RLS ----
def test_rls_crud_cycle(miniplex):
    mp = miniplex
    rls, cat = make_rls(mp)
    results = []

    def work():
        r = yield from rls.get(1, "ACCTS", 42)
        results.append(("miss", r))
        yield from rls.put(1, "ACCTS", 42)
        yield from rls.commit(1)
        r = yield from rls.get(2, "ACCTS", 42)
        results.append(("hit", r))
        yield from rls.put(2, "ACCTS", 42)  # update
        yield from rls.commit(2)
        r = yield from rls.get(3, "ACCTS", 42)
        results.append(("updated", r))
        yield from rls.commit(3)

    mp.run(work())
    assert results == [("miss", None), ("hit", 1), ("updated", 2)]
    assert rls.commits == 3


def test_rls_commit_releases_locks(miniplex):
    mp = miniplex
    rls, cat = make_rls(mp)

    def work():
        yield from rls.put(1, "ACCTS", 7)
        owner = (mp.nodes[0].name, "vsam", 1)
        assert rls.locks.held.get(owner)
        yield from rls.commit(1)
        assert owner not in rls.locks.held

    mp.run(work())
    mp.space.check_invariant()
    assert not mp.space._resources


def test_rls_record_locks_allow_same_ci_concurrency(miniplex):
    """Two systems updating different records in one CI proceed
    concurrently under record-level locking."""
    mp = miniplex
    cat = VsamCatalog(first_page=1_000_000)
    cat.define("ACCTS", max_cis=100, records_per_ci=10)
    rls0, _ = make_rls(mp, 0, catalog=cat)
    rls1, _ = make_rls(mp, 1, catalog=cat)
    order = []

    def seed():
        yield from rls0.put(0, "ACCTS", 1)
        yield from rls0.put(0, "ACCTS", 2)
        yield from rls0.commit(0)

    def writer(rls, txn, key, hold):
        yield from rls.put(txn, "ACCTS", key)
        order.append((f"got-{key}", mp.sim.now))
        yield mp.sim.timeout(hold)
        yield from rls.commit(txn)

    mp.run(seed(), until=1.0)
    mp.run(writer(rls0, 10, 1, 0.05), writer(rls1, 11, 2, 0.05), until=2.0)
    # both acquired without waiting for each other's commit
    t1 = next(t for tag, t in order if tag == "got-1")
    t2 = next(t for tag, t in order if tag == "got-2")
    assert abs(t1 - t2) < 0.04  # concurrent, not serialized


def test_rls_ci_locks_serialize_same_ci(miniplex):
    """The pre-RLS granularity: CI-level locks serialize those updates."""
    mp = miniplex
    cat = VsamCatalog(first_page=1_000_000)
    cat.define("ACCTS", max_cis=100, records_per_ci=10)
    rls0, _ = make_rls(mp, 0, granularity="ci", catalog=cat)
    rls1, _ = make_rls(mp, 1, granularity="ci", catalog=cat)
    order = []

    def seed():
        yield from rls0.put(0, "ACCTS", 1)
        yield from rls0.put(0, "ACCTS", 2)
        yield from rls0.commit(0)

    def writer(rls, txn, key, hold):
        yield from rls.put(txn, "ACCTS", key)
        order.append((f"got-{key}", mp.sim.now))
        yield mp.sim.timeout(hold)
        yield from rls.commit(txn)

    mp.run(seed(), until=1.0)
    mp.run(writer(rls0, 10, 1, 0.05), writer(rls1, 11, 2, 0.05), until=2.0)
    t1 = next(t for tag, t in order if tag == "got-1")
    t2 = next(t for tag, t in order if tag == "got-2")
    assert abs(t1 - t2) >= 0.05  # second waited for the first's commit


def test_rls_updates_are_coherent_across_systems(miniplex):
    """A record updated on one system is seen current on the other (the
    CI buffer cross-invalidation path)."""
    mp = miniplex
    cat = VsamCatalog(first_page=1_000_000)
    cat.define("ACCTS", max_cis=100, records_per_ci=10)
    rls0, _ = make_rls(mp, 0, catalog=cat)
    rls1, _ = make_rls(mp, 1, catalog=cat)
    versions = []

    def scenario():
        yield from rls0.put(1, "ACCTS", 5)
        yield from rls0.commit(1)
        v = yield from rls1.get(2, "ACCTS", 5)
        versions.append(v)
        yield from rls1.commit(2)
        yield from rls0.put(3, "ACCTS", 5)
        yield from rls0.commit(3)
        v = yield from rls1.get(4, "ACCTS", 5)
        versions.append(v)
        yield from rls1.commit(4)

    mp.run(scenario(), until=5.0)
    assert versions == [1, 2]


def test_rls_backout_releases_without_commit(miniplex):
    mp = miniplex
    rls, cat = make_rls(mp)

    def work():
        yield from rls.put(1, "ACCTS", 9)
        yield from rls.backout(1)

    mp.run(work())
    assert not mp.space._resources
    assert rls.commits == 0


def test_rls_insert_split_touches_sibling(miniplex):
    mp = miniplex
    cat = VsamCatalog(first_page=1_000_000)
    ds = cat.define("ACCTS", max_cis=100, records_per_ci=4)
    rls, _ = make_rls(mp, catalog=cat)

    def work():
        for k in range(5):  # fifth insert splits
            yield from rls.put(1, "ACCTS", k)
        yield from rls.commit(1)

    mp.run(work())
    assert ds.ci_splits == 1
    assert {ds.ci_for(k) for k in range(5)} == {0, 1}
