"""Tests for the CF cache structure and buffer coherency (paper §3.3.2)."""

import pytest

from repro.cf import CacheFullError, CacheStructure, LocalVector


@pytest.fixture
def cache():
    return CacheStructure("CACHE1", data_elements=8, directory_entries=32)


@pytest.fixture
def conns(cache):
    return [cache.connect(f"SYS{i:02d}") for i in range(3)]


def test_capacity_required():
    with pytest.raises(ValueError):
        CacheStructure("BAD", data_elements=0, directory_entries=1)


def test_first_read_is_miss(cache, conns):
    a = conns[0]
    status, version = cache.register_and_read(a, "pg1", bit_index=0)
    assert status == "miss" and version == 0
    assert cache.vector_of(a).test(0) is True  # registered + valid


def test_read_after_write_hits_cf_cache(cache, conns):
    """Second-level cache role: peer refresh from CF memory, not DASD."""
    a, b, _ = conns
    cache.register_and_read(a, "pg1", 0)
    cache.write_and_invalidate(a, "pg1")
    status, version = cache.register_and_read(b, "pg1", 5)
    assert status == "hit" and version == 1


def test_write_invalidates_other_registrants_only(cache, conns):
    a, b, c = conns
    cache.register_and_read(a, "pg1", 0)
    cache.register_and_read(b, "pg1", 1)
    cache.register_and_read(c, "pg1", 2)
    n = cache.write_and_invalidate(b, "pg1")
    assert n == 2  # a and c, not the writer
    assert cache.vector_of(a).test(0) is False
    assert cache.vector_of(b).test(1) is True  # writer's own copy stays valid
    assert cache.vector_of(c).test(2) is False


def test_invalidated_reader_reregisters_and_sees_latest(cache, conns):
    a, b, _ = conns
    cache.register_and_read(a, "pg1", 0)
    cache.write_and_invalidate(b, "pg1")
    assert cache.vector_of(a).test(0) is False
    status, version = cache.register_and_read(a, "pg1", 0)
    assert version == cache.version_of("pg1")
    cache.check_coherency()


def test_unregistered_writer_sends_no_signal_to_self(cache, conns):
    a = conns[0]
    n = cache.write_and_invalidate(a, "pgX")
    assert n == 0
    assert cache.version_of("pgX") == 1


def test_versions_monotonic(cache, conns):
    a = conns[0]
    for i in range(5):
        cache.write_and_invalidate(a, "pg1")
    assert cache.version_of("pg1") == 5


def test_unregister_stops_invalidation(cache, conns):
    a, b, _ = conns
    cache.register_and_read(a, "pg1", 0)
    cache.unregister(a, "pg1")
    n = cache.write_and_invalidate(b, "pg1")
    assert n == 0


def test_coherency_invariant_random_ops(cache, conns):
    """After any interleaving, no valid bit refers to a stale version."""
    a, b, c = conns
    pages = ["p0", "p1", "p2"]
    ops = [
        (cache.register_and_read, a, "p0", 0),
        (cache.register_and_read, b, "p0", 0),
        (cache.write_and_invalidate, c, "p0"),
        (cache.register_and_read, c, "p1", 1),
        (cache.write_and_invalidate, a, "p1"),
        (cache.write_and_invalidate, b, "p0"),
        (cache.register_and_read, a, "p2", 2),
        (cache.write_and_invalidate, c, "p2"),
    ]
    for op, conn, page, *rest in ops:
        if op.__name__ == "register_and_read":
            op(conn, page, rest[0])
        else:
            op(conn, page)
        cache.check_coherency()


def test_lru_eviction_prefers_unchanged():
    cache = CacheStructure("C", data_elements=2, directory_entries=100)
    a = cache.connect("SYS00")
    cache.write_and_invalidate(a, "dirty", changed=True)
    cache.write_and_invalidate(a, "clean", changed=False)
    cache.write_and_invalidate(a, "new", changed=False)  # forces eviction
    assert cache.data_in_use == 2
    # the changed block must still be there (cannot be lost before castout)
    assert cache.castout("dirty") == 1


def test_cache_full_when_everything_changed():
    cache = CacheStructure("C", data_elements=2, directory_entries=100)
    a = cache.connect("SYS00")
    cache.write_and_invalidate(a, "d1", changed=True)
    cache.write_and_invalidate(a, "d2", changed=True)
    with pytest.raises(CacheFullError):
        cache.write_and_invalidate(a, "d3", changed=True)


def test_castout_cycle(cache, conns):
    a = conns[0]
    cache.write_and_invalidate(a, "pg1", changed=True)
    version = cache.castout("pg1")
    assert version == 1
    cache.castout_complete("pg1", version)
    assert cache.castout("pg1") is None  # no longer changed
    assert cache.castouts == 1


def test_castout_respects_intervening_write(cache, conns):
    """A write between castout-read and completion keeps the block dirty."""
    a = conns[0]
    cache.write_and_invalidate(a, "pg1", changed=True)
    version = cache.castout("pg1")
    cache.write_and_invalidate(a, "pg1", changed=True)  # newer version
    cache.castout_complete("pg1", version)
    assert cache.castout("pg1") == 2  # still changed at the new version


def test_changed_blocks_listing(cache, conns):
    a = conns[0]
    cache.write_and_invalidate(a, "x", changed=True)
    cache.write_and_invalidate(a, "y", changed=False)
    cache.write_and_invalidate(a, "z", changed=True)
    assert set(cache.changed_blocks()) == {"x", "z"}


def test_directory_reclaim_invalidates_registrants():
    cache = CacheStructure("C", data_elements=4, directory_entries=2)
    a = cache.connect("SYS00")
    cache.register_and_read(a, "p1", 0)  # dataless directory entry
    cache.register_and_read(a, "p2", 1)
    cache.register_and_read(a, "p3", 2)  # forces reclaim of p1
    assert cache.reclaims == 1
    assert cache.vector_of(a).test(0) is False  # p1's bit invalidated
    assert cache.vector_of(a).test(2) is True


def test_purge_connector_removes_registrations(cache, conns):
    a, b, _ = conns
    cache.register_and_read(a, "pg1", 0)
    cache.disconnect(a)
    assert cache.write_and_invalidate(b, "pg1") == 0  # nobody left to XI


def test_local_vector_counts():
    v = LocalVector()
    v.set_valid(3)
    assert v.test(3) is True
    v.invalidate(3)
    assert v.invalidations == 1
    assert v.test(3) is False
    assert v.tests == 2


def test_hit_rate_statistics(cache, conns):
    a, b, _ = conns
    cache.register_and_read(a, "p", 0)          # miss
    cache.write_and_invalidate(a, "p")
    cache.register_and_read(b, "p", 0)          # hit
    assert cache.reads == 2 and cache.read_hits == 1


# ---------------------------------------------------- bulk prewarm ----
def _built_cache(directory_entries):
    """A cache with a mixed directory: a changed block with data, a
    cast-out (clean) block with data, and dataless registrations of two
    connectors, so prewarm meets every kind of existing entry."""
    cache = CacheStructure("C", data_elements=8,
                           directory_entries=directory_entries)
    a, b = cache.connect("SYS00"), cache.connect("SYS01")
    cache.register_and_read(b, "old0", 7)
    cache.register_and_read(a, "changed", 1)
    cache.write_and_invalidate(b, "changed")
    cache.register_and_read(b, "old1", 2)
    cache.write_and_invalidate(a, "castout")
    cache.castout_complete("castout", cache.castout("castout"))
    cache.register_and_read(a, "old2", 4)
    cache.write_and_invalidate(a, "changed2")
    return cache, a, b


def _cache_state(cache):
    """Everything a register_and_read leaves behind, read through the
    public state: the directory rows in LRU order and the changed list
    (``duplex_state``), the vectors and the statistics."""
    return {
        "dir": cache.duplex_state(),
        "vectors": {cid: (v._bits, v.invalidations)
                    for cid, v in cache.vectors.items()},
        "stats": (cache.reads, cache.read_hits, cache.reclaims,
                  cache.xi_signals, cache.data_in_use),
    }


#: (connector indices, [(name, bit), ...]) batches, applied in order
PREWARM_BATCHES = [
    # duplicates, existing entries (changed with data, cast out, dataless,
    # a peer's), new names, and bits out of order that grow the vector
    ((0,), [("new0", 11), ("changed", 5), ("new0", 12), ("castout", 0),
            ("old0", 3), ("new1", 9), ("changed2", 20), ("changed", 6)]),
    # a second connector, on names the first just registered
    ((1,), [("new1", 0), ("changed", 1), ("new2", 30), ("old2", 8)]),
    # one batch for every connector, the fresh third one included, as a
    # sysplex's warm start registers it: names each holds, a peer's, new
    # ones and a duplicate
    ((1, 2, 0), [("new3", 2), ("changed", 4), ("old1", 6), ("new3", 7),
                 ("new0", 13), ("new4", 40)]),
]


@pytest.mark.parametrize("directory_entries", [100, 8])
def test_prewarm_many_matches_register_and_read(directory_entries):
    """prewarm_many leaves the exact state and statistics of one
    register_and_read per pair, for each of the batch's connections in
    turn.  With 8 directory entries the directory is full before the
    first new name, so new entries reclaim dataless ones (this batch's
    included) and invalidate their bits."""
    bulk, *bulk_conns = _built_cache(directory_entries)
    each, *each_conns = _built_cache(directory_entries)
    bulk_conns.append(bulk.connect("SYS02"))
    each_conns.append(each.connect("SYS02"))
    assert _cache_state(bulk) == _cache_state(each)
    for indices, pairs in PREWARM_BATCHES:
        names, bits = zip(*pairs)
        bulk.prewarm_many([bulk_conns[i] for i in indices], names, bits)
        for i in indices:
            for name, bit in pairs:
                each.register_and_read(each_conns[i], name, bit)
        assert _cache_state(bulk) == _cache_state(each)
    if directory_entries == 8:
        assert bulk.reclaims > 0 and bulk.xi_signals > 0
    assert bulk.read_hits > 0
    # an empty batch, or one for no connection, is a no-op
    bulk.prewarm_many(bulk_conns, (), ())
    bulk.prewarm_many((), ("new0",), (1,))
    assert _cache_state(bulk) == _cache_state(each)
