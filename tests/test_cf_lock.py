"""Tests for the CF lock structure (paper §3.3.1)."""

import pytest

from repro.cf import LockMode, LockStructure, StructureFailedError


@pytest.fixture
def struct():
    return LockStructure("LOCK1", n_entries=1 << 16)


@pytest.fixture
def conns(struct):
    return [struct.connect(f"SYS{i:02d}") for i in range(3)]


def test_requires_entries():
    with pytest.raises(ValueError):
        LockStructure("BAD", n_entries=0)


def test_exclusive_grant_then_conflict(struct, conns):
    a, b, _ = conns
    r1 = struct.request(a, "res1", LockMode.EXCL)
    assert r1.granted
    r2 = struct.request(b, "res1", LockMode.EXCL)
    assert not r2.granted
    assert r2.holders == (a.conn_id,)
    assert r2.real_conflict  # same name: real contention


def test_shared_locks_compatible_across_systems(struct, conns):
    a, b, c = conns
    assert struct.request(a, "res1", LockMode.SHR).granted
    assert struct.request(b, "res1", LockMode.SHR).granted
    assert struct.request(c, "res1", LockMode.SHR).granted


def test_shr_blocks_excl(struct, conns):
    a, b, _ = conns
    assert struct.request(a, "res1", LockMode.SHR).granted
    r = struct.request(b, "res1", LockMode.EXCL)
    assert not r.granted and r.real_conflict


def test_excl_blocks_shr(struct, conns):
    a, b, _ = conns
    assert struct.request(a, "res1", LockMode.EXCL).granted
    r = struct.request(b, "res1", LockMode.SHR)
    assert not r.granted and r.real_conflict


def test_same_connector_reentrant(struct, conns):
    """One system's lock manager holds many locks under one hash class;
    its own interest never conflicts with itself at the CF level."""
    a = conns[0]
    assert struct.request(a, "res1", LockMode.EXCL).granted
    assert struct.request(a, "res1", LockMode.EXCL).granted
    assert struct.request(a, "res1", LockMode.SHR).granted


def test_release_restores_grantability(struct, conns):
    a, b, _ = conns
    struct.request(a, "res1", LockMode.EXCL)
    struct.release(a, "res1", LockMode.EXCL)
    assert struct.request(b, "res1", LockMode.EXCL).granted


def test_release_is_counted(struct, conns):
    """Two grants to the same connector need two releases."""
    a, b, _ = conns
    struct.request(a, "res1", LockMode.EXCL)
    struct.request(a, "res1", LockMode.EXCL)
    struct.release(a, "res1", LockMode.EXCL)
    assert not struct.request(b, "res1", LockMode.EXCL).granted
    struct.release(a, "res1", LockMode.EXCL)
    assert struct.request(b, "res1", LockMode.EXCL).granted


def test_release_unheld_is_noop(struct, conns):
    struct.release(conns[0], "never-held", LockMode.EXCL)  # must not raise


def test_false_contention_on_hash_collision():
    """With a single-entry table every pair of names collides: contention
    on *different* names must be classified as false."""
    st = LockStructure("TINY", n_entries=1)
    a = st.connect("SYS00")
    b = st.connect("SYS01")
    assert st.request(a, "resA", LockMode.EXCL).granted
    r = st.request(b, "resB", LockMode.EXCL)
    assert not r.granted
    assert not r.real_conflict  # different names: false contention
    assert st.false_contention == 1
    assert st.real_contention == 0


def test_false_contention_rate_decreases_with_table_size(conns):
    """Paper: efficient hashing keeps false contention to a minimum —
    bigger tables must produce (weakly) fewer collisions."""
    rates = []
    for bits in (4, 8, 14):
        st = LockStructure("S", n_entries=1 << bits)
        a = st.connect("A")
        b = st.connect("B")
        for i in range(300):
            st.request(a, f"a{i}", LockMode.EXCL)
        for i in range(300):
            st.request(b, f"b{i}", LockMode.EXCL)
        rates.append(st.false_contention_rate())
    assert rates[0] > rates[2]
    assert rates[2] < 0.05


def test_record_data_survives_disconnect(struct, conns):
    """Persistent lock info must survive connector death (fast lock
    recovery, paper §3.3.1)."""
    a, b, _ = conns
    struct.request(a, "res1", LockMode.EXCL)
    struct.write_record(a, "res1", {"txn": 42})
    cid = a.conn_id
    struct.disconnect(a)  # system died
    # interest is gone but the record remains for the recovering peer
    assert struct.request(b, "res1", LockMode.EXCL).granted
    assert struct.records_of(cid) == {"res1": {"txn": 42}}
    struct.purge_records(cid)
    assert struct.records_of(cid) == {}


def test_delete_record(struct, conns):
    a = conns[0]
    struct.write_record(a, "r", {"x": 1})
    struct.delete_record(a, "r")
    assert struct.records_of(a.conn_id) == {}


def test_disconnect_purges_interest(struct, conns):
    a, b, _ = conns
    struct.request(a, "res1", LockMode.EXCL)
    struct.disconnect(a)
    assert struct.request(b, "res1", LockMode.EXCL).granted
    assert len(struct._table) == 1


def test_empty_entries_are_garbage_collected(struct, conns):
    a = conns[0]
    struct.request(a, "res1", LockMode.EXCL)
    assert len(struct._table) == 1
    struct.release(a, "res1", LockMode.EXCL)
    assert len(struct._table) == 0


def test_structure_failure_raises(struct, conns):
    struct.on_facility_failed()
    with pytest.raises(StructureFailedError):
        struct.request(conns[0], "r", LockMode.SHR)


def test_loss_callbacks_fire_on_facility_failure():
    st = LockStructure("L", n_entries=16)
    called = []
    st.connect("SYS00", on_loss=lambda: called.append("a"))
    st.connect("SYS01", on_loss=lambda: called.append("b"))
    st.on_facility_failed()
    assert sorted(called) == ["a", "b"]


def test_entry_of_is_deterministic(struct):
    assert struct.entry_of("page:123") == struct.entry_of("page:123")
    assert struct.entry_of(("db", 5)) == struct.entry_of(("db", 5))
