"""The warm segment of a warm-started buffer pool.

A pool prewarmed while empty keeps the pages nothing has touched since
in a plain ``dict`` beside its ``OrderedDict`` hot chain, and every member
warmed together starts from a copy of one such dict and reads one shared
order list.  These tests hold the split to what it is for: members never
share mutable pool state, a pool of ints costs the cycle collector
nothing, and a segment that empties leaves no table behind.
"""

import gc
import sys

from repro.config import DatabaseConfig
from repro.subsystems import BufferManager

from conftest import MiniPlex

N_BUFFERS = 64
#: the warm start, in prewarm order (not page order)
PAGES = [(7 * i) % 101 for i in range(N_BUFFERS)]


def _members(n, data_sharing=True):
    """``n`` empty managers of ``N_BUFFERS`` buffers on one miniplex."""
    mp = MiniPlex(n_systems=n)
    config = DatabaseConfig(buffer_pages=N_BUFFERS)
    members = [
        BufferManager(
            mp.sim,
            mp.nodes[i],
            config,
            mp.farm,
            xes=mp.buffermgrs[i].xes if data_sharing else None,
        )
        for i in range(n)
    ]
    return mp, members


def _snapshot(bm):
    return list(bm.lru_items()), sorted(bm._dirty), bm._free


def _warm_start(n, data_sharing=True):
    mp, members = _members(n, data_sharing)
    first, *peers = members
    assert first.prewarm(PAGES, peers=peers) == N_BUFFERS
    return mp, members


def _churn(mp, bm):
    """Touch, dirty and steal in ``bm``: warm pages move to its hot chain,
    misses steal its coldest warm pages."""

    def work():
        for page in PAGES[::5]:
            yield from bm.get_page(page)
        bm.mark_dirty(PAGES[3])
        for page in range(200, 230):
            yield from bm.get_page(page)

    mp.run(work())


def test_mutating_one_member_leaves_every_other_unchanged():
    mp, members = _warm_start(4)
    # one order list, read by all; one warm dict each
    shared = members[0]._warm_order
    assert all(bm._warm_order is shared for bm in members)
    assert len({id(bm._warm) for bm in members}) == 4
    order = list(shared)
    before = [_snapshot(bm) for bm in members]
    assert all(snap == before[0] for snap in before)
    for i, bm in enumerate(members):
        _churn(mp, bm)
        after = _snapshot(bm)
        assert after != before[i]
        before[i] = after
        assert [_snapshot(other) for other in members] == before
    assert shared == order  # read past, never written


def test_a_warm_pool_of_ints_is_not_tracked_by_the_cycle_collector():
    _mp, members = _warm_start(3)
    for bm in members:
        assert bm._warm and all(type(page) is int for page in bm._warm)
        assert not gc.is_tracked(bm._warm)


def test_a_drained_warm_segment_leaves_no_table_behind():
    """Steals drain the warm segment; it is rebuilt smaller each time
    half of it is gone, and once empty it is an empty dict and an empty
    order list, whatever the peers still hold."""
    mp, (bm, peer) = _warm_start(2, data_sharing=False)
    full = sys.getsizeof(bm._warm)
    sizes = []

    def work():
        for page in range(200, 200 + N_BUFFERS):
            yield from bm.get_page(page)
            sizes.append(sys.getsizeof(bm._warm))

    mp.run(work())
    assert not bm._warm and not bm._warm_order
    assert sys.getsizeof(bm._warm) == sys.getsizeof({})
    assert sizes == sorted(sizes, reverse=True) and sizes[0] <= full
    assert sizes[N_BUFFERS // 2] < full  # rebuilt once half was stolen
    assert [page for page, _slot in bm.lru_items()] == list(range(200, 264))
    assert len(peer._warm) == N_BUFFERS and peer._warm_order == PAGES


def test_a_pool_warmed_alone_keeps_one_chain():
    """With no peer to copy to, a warm start loads the hot chain, in the
    same LRU order and slots a shared warm start gives each member."""
    _, (alone,) = _members(1)
    _, (first, peer) = _warm_start(2)
    assert alone.prewarm(PAGES) == N_BUFFERS
    assert not alone._warm and not alone._warm_order
    assert list(alone._pool.items()) == list(first.lru_items())
    assert _snapshot(alone) == _snapshot(first) == _snapshot(peer)
