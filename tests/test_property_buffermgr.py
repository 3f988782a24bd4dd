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
extension slot after every step.
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
    return [(p, slot, p in bm._dirty) for p, slot in bm._pool.items()]


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


def _check_against_scan(ops, data_sharing: bool, indexed: bool) -> None:
    mp = MiniPlex(n_systems=1)
    mp.config.db.buffer_pages = N_BUFFERS
    xes = mp.buffermgrs[0].xes if data_sharing else None
    bm = BufferManager(mp.sim, mp.nodes[0], mp.config.db, mp.farm, xes=xes)
    model = ScanModel(N_BUFFERS, data_sharing)

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
        assert bm._dirty <= set(bm._pool), (op, arg)  # dirty is never stolen
    if indexed:
        assert bm._stamps is not None


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
        assert list(bm._pool) == [2, 3, 4]
        assert bm._stamps is None
        yield from bm.get_page(5)  # head 2 is dirty: steal 3
        assert bm._stamps is not None
        assert list(bm._pool) == [2, 4, 5]
        bm.mark_dirty(4)
        bm.mark_dirty(5)
        yield from bm.get_page(6)  # all dirty: extend by one buffer
        assert [bm._pool[p] for p in (2, 4, 5, 6)] == [1, 2, 0, 6]

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
    assert list(bm._pool) == [1, 2, 4, 5]
    assert bm._pool[5] == 3 + 3  # extension slot: the pool grew by one
    assert not bm._reading
    sim.run(until=sim.process(bm.get_page(6)))
    assert list(bm._pool) == [1, 2, 5, 6]  # 4 was the oldest clean page

