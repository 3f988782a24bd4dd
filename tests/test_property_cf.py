"""Property-based tests (hypothesis) on the CF structures' invariants."""

from collections import OrderedDict
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.cf import (
    CacheFullError,
    CacheStructure,
    LocalVector,
    ListEntry,
    ListStructure,
    LockMode,
    LockStructure,
)

# ---------------------------------------------------------------- lock ----

lock_ops = st.lists(
    st.tuples(
        st.sampled_from(["request", "release"]),
        st.integers(0, 3),                      # connector
        st.integers(0, 5),                      # resource name id
        st.sampled_from([LockMode.SHR, LockMode.EXCL]),
    ),
    max_size=60,
)


@given(lock_ops)
@settings(max_examples=120, deadline=None)
def test_lock_table_never_grants_incompatible(ops):
    """No interleaving of requests/releases produces two different
    connectors holding the same *hash class* incompatibly."""
    st_ = LockStructure("P", n_entries=8)  # tiny: collisions guaranteed
    conns = [st_.connect(f"SYS{i:02d}") for i in range(4)]
    granted = {}  # (conn_id, name, mode) -> count

    for op, c, n, mode in ops:
        name = f"res{n}"
        if op == "request":
            r = st_.request(conns[c], name, mode)
            if r.granted:
                key = (c, name, mode)
                granted[key] = granted.get(key, 0) + 1
        else:
            key = (c, name, mode)
            if granted.get(key):
                st_.release(conns[c], name, mode)
                granted[key] -= 1

        # invariant: per hash class, EXCL interest from one connector
        # excludes any interest from another
        for idx, entry in st_._table.items():
            excl_holders = {
                cid for cid, names in entry.holds.items()
                if any(cnt[1] > 0 for cnt in names.values())
            }
            if excl_holders:
                assert len(entry.holds) == 1, (
                    f"entry {idx}: EXCL {excl_holders} with "
                    f"{set(entry.holds)}"
                )


@given(lock_ops)
@settings(max_examples=60, deadline=None)
def test_lock_table_counts_never_negative(ops):
    st_ = LockStructure("P", n_entries=4)
    conns = [st_.connect(f"SYS{i:02d}") for i in range(4)]
    for op, c, n, mode in ops:
        name = f"res{n}"
        if op == "request":
            st_.request(conns[c], name, mode)
        else:
            st_.release(conns[c], name, mode)
        for entry in st_._table.values():
            for names in entry.holds.values():
                for shr, excl in names.values():
                    assert shr >= 0 and excl >= 0


# ---------------------------------------------------------------- cache ----

cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "unregister"]),
        st.integers(0, 2),   # connector
        st.integers(0, 4),   # page
    ),
    max_size=60,
)


@given(cache_ops)
@settings(max_examples=120, deadline=None)
def test_cache_coherency_invariant(ops):
    """A valid local bit always refers to the latest version — under any
    interleaving of reads, writes, and unregisters."""
    cache = CacheStructure("P", data_elements=4, directory_entries=16)
    conns = [cache.connect(f"SYS{i:02d}") for i in range(3)]
    for op, c, p in ops:
        page = f"pg{p}"
        if op == "read":
            cache.register_and_read(conns[c], page, bit_index=p)
        elif op == "write":
            try:
                cache.write_and_invalidate(conns[c], page)
            except Exception:
                # cache full of changed data is a legal outcome here
                continue
        else:
            cache.unregister(conns[c], page)
        cache.check_coherency()


@given(cache_ops)
@settings(max_examples=60, deadline=None)
def test_cache_versions_monotonic(ops):
    cache = CacheStructure("P", data_elements=8, directory_entries=32)
    conns = [cache.connect(f"SYS{i:02d}") for i in range(3)]
    seen = {}
    for op, c, p in ops:
        page = f"pg{p}"
        if op == "write":
            try:
                cache.write_and_invalidate(conns[c], page)
            except Exception:
                continue
        v = cache.version_of(page)
        assert v >= seen.get(page, 0)
        seen[page] = v


# ------------------------------------------- cache, differential model ----
class _RefEntry:
    """One block of the reference directory: the per-entry layout."""

    def __init__(self):
        self.registrants = {}  # conn_id -> vector bit
        self.version = 0
        self.has_data = False
        self.changed = False
        self.seen = {}  # conn_id -> last version read or written


class _RefCache:
    """A per-entry cache directory, kept small and obvious: one object
    per block holding its registrants and seen versions.  The structure
    under test must match it command for command."""

    def __init__(self, data_elements, directory_entries, facility):
        self.data_elements = data_elements
        self.directory_entries = directory_entries
        self.facility = facility
        self.dir = OrderedDict()
        self.changed = OrderedDict()
        self.data_count = 0
        self.vectors = {}
        self.reads = self.read_hits = self.writes = 0
        self.xi_signals = self.reclaims = self.castouts = 0

    def _signal(self, cid, bit):
        vector = self.vectors.get(cid)
        if vector is None:
            return 0
        self.facility.signal(lambda: vector.invalidate(bit))
        return 1

    def _entry(self, name):
        if name not in self.dir:
            if len(self.dir) >= self.directory_entries:
                self._reclaim()
            self.dir[name] = _RefEntry()
        return self.dir[name]

    def _touch(self, name):
        self.dir.move_to_end(name)
        if self.dir[name].changed:
            self.changed[name] = None
            self.changed.move_to_end(name)

    def _reclaim(self):
        for name, entry in self.dir.items():
            if not entry.has_data:
                for cid, bit in entry.registrants.items():
                    self.xi_signals += self._signal(cid, bit)
                del self.dir[name]
                self.reclaims += 1
                return
        raise CacheFullError("directory full of changed data")

    def _make_room(self):
        if self.data_count < self.data_elements:
            return
        for entry in self.dir.values():
            if entry.has_data and not entry.changed:
                entry.has_data = False
                self.data_count -= 1
                return
        raise CacheFullError("data elements full of changed data")

    def register_and_read(self, cid, name, bit):
        self.reads += 1
        entry = self._entry(name)
        entry.registrants[cid] = bit
        entry.seen[cid] = entry.version
        self.vectors[cid].set_valid(bit)
        self._touch(name)
        if entry.has_data:
            self.read_hits += 1
            return ("hit", entry.version)
        return ("miss", entry.version)

    def write_and_invalidate(self, cid, name, store, changed):
        self.writes += 1
        entry = self._entry(name)
        if store and not entry.has_data:
            self._make_room()
        entry.version += 1
        if store:
            if not entry.has_data:
                entry.has_data = True
                self.data_count += 1
            entry.changed = entry.changed or changed
        entry.seen[cid] = entry.version
        self._touch(name)
        n = 0
        for other, bit in list(entry.registrants.items()):
            if other != cid:
                del entry.registrants[other]
                entry.seen.pop(other, None)
                n += self._signal(other, bit)
        self.xi_signals += n
        return n

    def unregister(self, cid, name):
        entry = self.dir.get(name)
        if entry is not None:
            entry.registrants.pop(cid, None)
            entry.seen.pop(cid, None)

    def castout(self, name):
        entry = self.dir.get(name)
        return entry.version if entry is not None and entry.changed else None

    def castout_complete(self, name, version):
        entry = self.dir.get(name)
        if entry is not None and entry.version == version:
            entry.changed = False
            self.changed.pop(name, None)
            self.castouts += 1

    def disconnect(self, cid):
        for entry in self.dir.values():
            entry.registrants.pop(cid, None)
            entry.seen.pop(cid, None)
        self.vectors.pop(cid, None)

    def clone(self, active):
        twin = _RefCache(self.data_elements, self.directory_entries,
                         self.facility)
        for name, entry in self.dir.items():
            mine = twin.dir[name] = _RefEntry()
            mine.registrants = dict(entry.registrants)
            mine.seen = dict(entry.seen)
            mine.version = entry.version
            mine.has_data = entry.has_data
            mine.changed = entry.changed
        twin.changed = OrderedDict(self.changed)
        twin.data_count = self.data_count
        twin.vectors = {cid: self.vectors[cid] for cid in active}
        return twin

    def check_coherency(self):
        for name, entry in self.dir.items():
            for cid, bit in entry.registrants.items():
                bits = self.vectors[cid]._bits if cid in self.vectors else []
                if bit < len(bits) and bits[bit]:
                    assert entry.seen[cid] == entry.version, name

    def duplex_state(self):
        return (
            "cache",
            [(str(name), dict(e.registrants), e.version, e.has_data,
              e.changed, dict(e.seen)) for name, e in self.dir.items()],
            [str(n) for n in self.changed],
        )


class _Facility:
    """Stands in for the CF: queues every signal until :meth:`deliver`."""

    failed = False

    def __init__(self):
        self.sim = SimpleNamespace(now=0.0, call_at=self._call_at)
        self.config = SimpleNamespace(signal_latency=1.0)
        self.signals_sent = 0
        self.pending = []

    def _call_at(self, when, apply):
        self.pending.append(apply)

    def signal(self, apply):
        self.signals_sent += 1
        self.pending.append(apply)

    def deliver(self):
        pending, self.pending = self.pending, []
        for apply in pending:
            apply()


class _Vector(LocalVector):
    """A local vector that logs which (connection, bit) each XI hit."""

    def __init__(self, cid, log):
        super().__init__()
        self.cid = cid
        self.log = log

    def invalidate(self, index):
        self.log.append((self.cid, index))
        super().invalidate(index)


def _outcome(call):
    try:
        return call()
    except CacheFullError:
        return CacheFullError


def _observed(cache, fac, xi_log):
    fac.deliver()
    targets = sorted(xi_log)
    xi_log.clear()
    cache.check_coherency()
    return (
        cache.duplex_state(),
        targets,
        {cid: (v._bits, v.invalidations)
         for cid, v in sorted(cache.vectors.items())},
        (cache.reads, cache.read_hits, cache.writes, cache.xi_signals,
         cache.reclaims, cache.castouts, fac.signals_sent),
    )


directory_ops = st.lists(
    st.tuples(
        # reads and writes weighted up, so changed blocks pile up
        st.sampled_from(["read", "read", "write", "write", "write",
                         "unregister", "castout", "complete", "prewarm",
                         "prewarm", "connect", "disconnect", "clone"]),
        st.integers(0, 4),                      # connector
        st.integers(0, 3),                      # page
        st.integers(0, 7),                      # vector bit
        st.booleans(),                          # store / stale castout
        st.booleans(),                          # changed
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)),
                 min_size=1, max_size=5),       # a prewarm batch
        st.lists(st.integers(0, 4), max_size=3),  # its other connectors
    ),
    max_size=50,
)


@given(st.sampled_from([(1, 2), (2, 3), (3, 4)]), directory_ops)
# two changed blocks, then a prewarm of the older one: the changed list
# must follow it to the LRU tail
@example((2, 3), [("write", 0, 0, 0, True, True, [(0, 0)], []),
                  ("write", 0, 1, 0, True, True, [(0, 0)], []),
                  ("prewarm", 1, 0, 0, False, False, [(0, 2)], [])])
# one batch for three connectors that overflows the directory: each
# connector's pass reclaims entries the one before it registered
@example((1, 2), [("prewarm", 0, 0, 0, False, False,
                   [(0, 1), (1, 2), (2, 3)], [1, 2])])
@settings(max_examples=300, deadline=None)
def test_cache_directory_matches_per_entry_model(sizes, ops):
    """The inverted directory behaves exactly like a per-entry one: after
    every command the directory rows (LRU order), the XI targets, the
    vectors and the counters agree, and both pass the coherency check.
    Tiny capacities make directory reclaim and data eviction routine."""
    data_elements, directory_entries = sizes
    cache = CacheStructure("P", data_elements, directory_entries)
    cache.facility = fac = _Facility()
    ref = _RefCache(data_elements, directory_entries, _Facility())
    log, ref_log = [], []
    conns, active = [], []

    def connect():
        conn = cache.connect(f"SYS{len(conns):02d}")
        cache.vectors[conn.conn_id] = _Vector(conn.conn_id, log)
        ref.vectors[conn.conn_id] = _Vector(conn.conn_id, ref_log)
        conns.append(conn)
        active.append(conn.conn_id)

    for _ in range(3):
        connect()
    for op, c, p, bit, flag, changed, batch, peers in ops:
        conn = conns[c % len(conns)]
        cid, page = conn.conn_id, f"pg{p}"
        live = cid in active
        if op == "read" and live:
            got = _outcome(lambda: cache.register_and_read(conn, page, bit))
            want = _outcome(lambda: ref.register_and_read(cid, page, bit))
            assert got == want
        elif op == "prewarm" and live:
            # one batch names several connections: the reference
            # registers it for each of them in turn
            batch_conns = [other for other in dict.fromkeys(
                conns[k % len(conns)] for k in [c, *peers])
                if other.conn_id in active]
            names = [f"pg{q}" for q, _b in batch]
            bits = [b for _q, b in batch]
            got = _outcome(lambda: cache.prewarm_many(batch_conns, names,
                                                      bits))
            want = _outcome(lambda: [ref.register_and_read(other.conn_id,
                                                           n, b)
                                     for other in batch_conns
                                     for n, b in zip(names, bits)])
            assert (got is CacheFullError) == (want is CacheFullError)
        elif op == "write":
            got = _outcome(lambda: cache.write_and_invalidate(
                conn, page, store=flag, changed=changed))
            want = _outcome(lambda: ref.write_and_invalidate(
                cid, page, flag, changed))
            assert got == want
        elif op == "unregister":
            cache.unregister(conn, page)
            ref.unregister(cid, page)
        elif op == "castout":
            assert cache.castout(page) == ref.castout(page)
        elif op == "complete":
            version = cache.version_of(page) - flag
            cache.castout_complete(page, version)
            ref.castout_complete(page, version)
        elif op == "connect" and len(conns) < 6:
            connect()
        elif op == "disconnect" and live:
            cache.disconnect(conn)
            ref.disconnect(cid)
            active.remove(cid)
        elif op == "clone":
            twin = CacheStructure("S", data_elements, directory_entries)
            twin.facility = fac
            twin.clone_state_from(cache)
            for other in conns:
                if other.conn_id in active:
                    twin.connect(other.system_name, conn_id=other.conn_id)
                    twin.vectors[other.conn_id] = cache.vectors[other.conn_id]
            assert twin.duplex_state() == cache.duplex_state()
            cache, ref = twin, ref.clone(active)
        assert (_observed(cache, fac, log)
                == _observed(ref, ref.facility, ref_log))


# ---------------------------------------------------------------- list ----

list_ops = st.lists(
    st.tuples(
        st.sampled_from(["push_fifo", "push_lifo", "push_keyed", "pop",
                         "move", "delete_head"]),
        st.integers(0, 1),   # connector
        st.integers(0, 2),   # header
        st.integers(0, 9),   # key/data
    ),
    max_size=80,
)


@given(list_ops)
@settings(max_examples=120, deadline=None)
def test_list_entries_conserved(ops):
    """Pushes minus pops/deletes equals the structure population; moves
    conserve entries; keyed lists stay sorted."""
    ls = ListStructure("P", n_headers=3)
    conns = [ls.connect(f"SYS{i:02d}") for i in range(2)]
    pushed = popped = 0
    for op, c, h, k in ops:
        if op.startswith("push"):
            where = op.split("_")[1]
            ls.push(conns[c], h, ListEntry(key=k, data=k), where=where)
            pushed += 1
        elif op == "pop":
            if ls.pop(conns[c], h) is not None:
                popped += 1
        elif op == "move":
            entries = ls.read(h)
            if entries:
                ls.move(conns[c], h, (h + 1) % 3, entries[0].entry_id)
        elif op == "delete_head":
            entries = ls.read(h)
            if entries and ls.delete(conns[c], h, entries[0].entry_id):
                popped += 1
        assert ls.total_entries == pushed - popped
        assert ls.total_entries == sum(ls.length(i) for i in range(3))


@given(st.lists(st.integers(0, 100), max_size=40))
@settings(max_examples=80, deadline=None)
def test_keyed_list_always_sorted(keys):
    ls = ListStructure("P", n_headers=1)
    conn = ls.connect("SYS00")
    for k in keys:
        ls.push(conn, 0, ListEntry(key=k), where="keyed")
        got = [e.key for e in ls.read(0)]
        assert got == sorted(got)
