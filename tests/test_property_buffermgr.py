"""Differential property test (hypothesis) of the buffer steal.

The buffer manager finds its steal victim through a clean-page index (an
LRU-stamp map plus a lazily invalidated min-heap) once the cold end of
the LRU chain turns dirty.  The policy it must keep is the plain walk:
the victim is the oldest clean page in LRU order, and when every pooled
page is dirty the pool grows by one buffer whose slot follows the
highest one.  :class:`ScanModel` is that walk over an ordered dict.
Random operation sequences on a tiny pool must leave the real manager
and the model with the same pooled pages, in the same LRU order, with
the same slots and dirty bits — which pins the stolen victim and the
extension slot after every step.  A pool warm-started together with a
peer keeps its untouched warm pages in a separate segment; the same
model, prewarmed alike, must describe it as its warm segment drains.
"""

from collections import OrderedDict

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.subsystems import BufferManager

from conftest import MiniPlex

N_BUFFERS = 4
N_PAGES = 8


class ScanModel:
    """The steal policy as a walk of the LRU chain."""

    def __init__(self, n_buffers: int, data_sharing: bool):
        self.n_buffers = n_buffers
        self.data_sharing = data_sharing
        self.pool = OrderedDict()  # page -> [slot, dirty]
        self.free = list(range(n_buffers))

    def read(self, page) -> None:
        if page in self.pool:
            self.pool.move_to_end(page)
            return
        if self.free:
            slot = self.free.pop()
        else:
            victim = next((p for p, (_slot, dirty) in self.pool.items()
                           if not dirty), None)
            if victim is None:
                slot = self.n_buffers + len(self.pool)
            else:
                slot = self.pool.pop(victim)[0]
        self.pool[page] = [slot, False]

    def mark_dirty(self, page) -> None:
        self.pool[page][1] = True
        self.pool.move_to_end(page)

    def commit_writes(self, pages) -> None:
        if not self.data_sharing:
            return
        for page in pages:
            if page in self.pool:
                self.pool[page][1] = False

    def flush_deferred(self, limit: int) -> int:
        batch = [p for p, (_slot, dirty) in self.pool.items() if dirty][:limit]
        for page in batch:
            self.pool[page][1] = False
        return len(batch)

    def prewarm(self, pages) -> int:
        loaded = 0
        for page in pages:
            if not self.free or page in self.pool:
                continue
            self.pool[page] = [self.free.pop(), False]
            loaded += 1
        return loaded

    def state(self):
        return [(p, slot, dirty) for p, (slot, dirty) in self.pool.items()]


def _state(bm: BufferManager):
    return [(p, slot, p in bm._dirty) for p, slot in bm.lru_items()]


def _pages(bm: BufferManager):
    """The pooled pages in LRU order."""
    return [p for p, _slot in bm.lru_items()]


pages = st.integers(0, N_PAGES - 1)
# reads and updates outnumber the rest, so the cold end of the chain
# turns dirty and later steals must skip over it
ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), pages),
        st.tuples(st.just("read"), pages),
        st.tuples(st.just("read"), pages),
        st.tuples(st.just("dirty"), pages),
        st.tuples(st.just("update"), st.integers(0, N_BUFFERS - 1)),
        st.tuples(st.just("commit"),
                  st.lists(st.integers(0, N_BUFFERS), max_size=3)),
        st.tuples(st.just("flush"), st.integers(0, 3)),
        st.tuples(st.just("prewarm"), st.lists(pages, max_size=3)),
    ),
    min_size=20,
    max_size=120,
)
#: fills the pool, then steals past a dirty head, so the clean-page index
#: exists before the random operations start
INDEXED = ([("read", p) for p in range(N_BUFFERS)] + [("update", 0)]
           + [("read", p) for p in range(1, N_BUFFERS)]
           + [("read", N_BUFFERS)])


#: the warm start's pages, in prewarm order (not page order)
WARM = [5, 1, 7, 2]


def _check_against_scan(ops, data_sharing: bool, indexed: bool,
                        warm: bool = False) -> None:
    mp = MiniPlex(n_systems=2 if warm else 1)
    mp.config.db.buffer_pages = N_BUFFERS

    def manager(i):
        xes = mp.buffermgrs[i].xes if data_sharing else None
        return BufferManager(mp.sim, mp.nodes[i], mp.config.db, mp.farm,
                             xes=xes)

    bm = manager(0)
    model = ScanModel(N_BUFFERS, data_sharing)
    if warm:
        # warmed together with a peer: this pool's warm segment is a copy
        # of a shared start, and its pages are untouched warm pages
        peer = manager(1)
        assert bm.prewarm(WARM, peers=[peer]) == model.prewarm(WARM)
        assert _state(bm) == _state(peer) == model.state()
        assert not bm._pool
        start = model.state()

    def step(gen):
        return mp.sim.run(until=mp.sim.process(gen))

    def read(page):
        # the transaction path: plain-call hit, else the process step
        if bm.try_get_local(page) is None:
            yield from bm.get_page(page)

    if indexed:
        ops = INDEXED + ops
    for op, arg in ops:
        if op == "read":
            step(read(arg))
            model.read(arg)
        elif op == "dirty":
            if arg not in model.pool:
                with pytest.raises(KeyError):
                    bm.mark_dirty(arg)
                continue
            bm.mark_dirty(arg)
            model.mark_dirty(arg)
        elif op == "update":  # an update of the arg-th pooled page
            if not model.pool:
                continue
            page = list(model.pool)[arg % len(model.pool)]
            bm.mark_dirty(page)
            model.mark_dirty(page)
        elif op == "commit":  # the pages at these LRU positions, or absent
            chain = list(model.pool)
            batch = [chain[i] if i < len(chain) else N_PAGES + i
                     for i in arg]
            step(bm.commit_writes(batch))
            model.commit_writes(batch)
        elif op == "flush":
            assert step(bm.flush_deferred(limit=arg)) == \
                model.flush_deferred(arg)
        else:
            assert bm.prewarm(arg) == model.prewarm(arg)
        assert _state(bm) == model.state(), (op, arg)
        # dirty is never stolen, and never warm
        assert bm._dirty <= set(bm._pool), (op, arg)
    if indexed:
        assert bm._stamps is not None
    if warm:
        assert _state(peer) == start  # the peer's pool is its own


@given(ops, st.booleans())
@settings(max_examples=150, deadline=None)
def test_nonsharing_steal_matches_lru_scan(ops, indexed):
    _check_against_scan(ops, data_sharing=False, indexed=indexed)


@given(ops, st.booleans())
# a page updated after a younger one was touched, then cleaned at commit
# behind a dirty head: unless the update re-stamped it, the index would
# take it for the older of the two clean pages and steal it
@example(ops=[("read", 2), ("dirty", 3), ("commit", [3]), ("read", 5)],
         indexed=True)
@settings(max_examples=150, deadline=None)
def test_data_sharing_steal_matches_lru_scan(ops, indexed):
    """Data sharing cleans at commit, but an aborted update leaves its
    page dirty, so a dirty LRU head can be met there too."""
    _check_against_scan(ops, data_sharing=True, indexed=indexed)


#: dirties a warm page, drains the warm segment by steals, then steals
#: past the dirty head that leaves
DRAIN = [("dirty", 1), ("read", 0), ("read", 3), ("read", 4), ("read", 6)]


@given(ops, st.booleans())
@example(ops=DRAIN, data_sharing=False)
@example(ops=DRAIN, data_sharing=True)
# the warm segment half drained (its first compaction) with the
# coldest warm page touched, then drained by steals
@example(ops=[("read", 5), ("read", 0), ("read", 3), ("read", 4),
              ("read", 6)], data_sharing=False)
@settings(max_examples=150, deadline=None)
def test_warm_start_steal_matches_lru_scan(ops, data_sharing):
    """A pool warm-started with a peer: steals take the warm segment's
    coldest page first, touches move warm pages to the hot chain, and
    once the segment drains a steal skips a dirty head, all as the scan
    over the one LRU chain would; the peer's pool never moves."""
    _check_against_scan(ops, data_sharing=data_sharing, indexed=False,
                        warm=True)


def test_index_is_built_only_on_a_dirty_head():
    """Until a steal meets a dirty LRU head no buffer pays for the
    clean-page index; after one the victim skips the dirty run."""
    mp = MiniPlex(n_systems=1)
    mp.config.db.buffer_pages = 3
    bm = BufferManager(mp.sim, mp.nodes[0], mp.config.db, mp.farm, xes=None)

    def work():
        for page in (1, 2, 3, 4):  # 4 steals the clean head, page 1
            yield from bm.get_page(page)
        assert bm._stamps is None
        bm.mark_dirty(2)
        yield from bm.get_page(3)
        yield from bm.get_page(4)
        assert _pages(bm) == [2, 3, 4]
        assert bm._stamps is None
        yield from bm.get_page(5)  # head 2 is dirty: steal 3
        assert bm._stamps is not None
        assert _pages(bm) == [2, 4, 5]
        bm.mark_dirty(4)
        bm.mark_dirty(5)
        yield from bm.get_page(6)  # all dirty: extend by one buffer
        slots = dict(bm.lru_items())
        assert [slots[p] for p in (2, 4, 5, 6)] == [1, 2, 0, 6]

    mp.sim.run(until=mp.sim.process(work()))


def test_a_page_being_read_in_is_never_stolen():
    """A miss pins its page until the read ends: a concurrent miss that
    meets a dirty LRU head grows the pool rather than steal it, and once
    the read ends the page is back in the clean-page index as the
    oldest clean victim."""
    mp = MiniPlex(n_systems=1)
    mp.config.db.buffer_pages = 3
    bm = BufferManager(mp.sim, mp.nodes[0], mp.config.db, mp.farm, xes=None)
    sim = mp.sim

    def warm():
        for page in (1, 2, 3):
            yield from bm.get_page(page)
        bm.mark_dirty(1)
        bm.mark_dirty(2)

    sim.run(until=sim.process(warm()))
    first = sim.process(bm.get_page(4))  # steals the clean head, page 3
    second = sim.process(bm.get_page(5))  # dirty head, 4 is being read
    sim.run(until=sim.all_of([first, second]))
    assert _pages(bm) == [1, 2, 4, 5]
    slots = dict(bm.lru_items())
    assert slots[5] == 3 + 3  # extension slot: the pool grew by one
    assert not bm._reading
    sim.run(until=sim.process(bm.get_page(6)))
    assert _pages(bm) == [1, 2, 5, 6]  # 4 was the oldest clean page


def test_a_page_being_refreshed_is_never_stolen():
    """A cross-invalidated page is pinned while its refresh is in flight,
    as a miss is while its read is: two misses that start meanwhile
    steal around it (the second grows the pool), and when the refresh is
    in the page is pooled, and each pooled page is registered in the CF
    directory at its own slot."""
    mp = MiniPlex(n_systems=2)
    mp.config.db.buffer_pages = 2
    bm = BufferManager(mp.sim, mp.nodes[0], mp.config.db, mp.farm,
                       xes=mp.buffermgrs[0].xes)
    peer = mp.buffermgrs[1]
    sim = mp.sim

    def warm():
        yield from bm.get_page(1)
        yield from bm.get_page(2)
        yield from peer.get_page(1)
        peer.mark_dirty(1)
        yield from peer.commit_writes([1])  # cross-invalidates bm's copy
        yield sim.timeout(1e-3)

    sim.run(until=sim.process(warm()))
    assert _pages(bm) == [1, 2] and not bm.is_valid(1)
    refresh = sim.process(bm.get_page(1))  # 1 to the MRU end, refreshing
    first = sim.process(bm.get_page(3))  # steals the clean head, page 2
    second = sim.process(bm.get_page(4))  # head 1 is being refreshed
    sim.run(until=sim.all_of([refresh, first, second]))
    assert refresh.value == "cf"
    assert _pages(bm) == [1, 3, 4]
    slots = dict(bm.lru_items())
    assert slots[4] == 2 + 2  # extension slot: the pool grew by one
    assert bm.cache._regs[bm.xes.connector.conn_id] == slots
    assert bm.is_valid(1) and not bm._reading
