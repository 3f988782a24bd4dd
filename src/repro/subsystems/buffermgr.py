"""Database buffer manager over the CF cache structure.

The paper's §3.3.2 walk-through, implemented end to end:

* Bringing a page into a local buffer **registers interest** with the CF
  (one sync command), tying the buffer slot to a local-vector bit.
* Re-using a cached page costs only the **local bit test** (the new CPU
  instruction — no CF trip).  If the bit was flipped by a
  cross-invalidate, the manager re-registers and refreshes, ideally from
  the CF's global cache ("high-speed local buffer refresh") and only
  otherwise from DASD.
* Committing updates **writes the changed page to the CF and
  cross-invalidates** peers in one CPU-synchronous command whose
  completion covers signal delivery.
* A **castout engine** drains changed blocks from the CF to DASD in the
  background (the CF is a store-in second-level cache, not the home
  location).

In non-data-sharing mode (the paper's single-system base case) the same
manager runs with no CF connection: pure local LRU pool plus a deferred
writer, which is what makes the §4 "cost of data sharing" comparison
apples-to-apples.

The members of a sysplex warm-start together: each pool keeps the pages
nothing has touched since the warm start in a plain ``dict`` (the warm
segment) and only the pages touched or loaded since in the
``OrderedDict`` LRU chain (the hot chain).  Every member starts with the
same warm state, and a plain dict copies an order of magnitude faster
than an ``OrderedDict``, takes less than half its memory and, holding
only ints, is not tracked by the cycle collector.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from itertools import chain, count, islice
from typing import (Dict, Generator, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from ..cf.cache import CacheStructure
from ..config import DatabaseConfig
from ..hardware.dasd import DasdFarm
from ..mvs.xes import XesConnection
from ..simkernel import Simulator
from ..trace import traced

__all__ = ["BufferManager", "CastoutEngine"]

PAGE_BYTES = 4096


class BufferManager:
    """One database-manager instance's local buffer pool.

    The pool is a map from page to buffer slot, in LRU order with the
    cold end first; the slot is the page's local-vector bit in data
    sharing.  It is held in two parts, and the LRU order is the warm
    segment followed by the hot chain:

    * the **warm segment** (``_warm``, a plain dict) holds the pages a
      shared warm start (:meth:`prewarm` of empty pools with peers)
      loaded that nothing has touched since, in prewarm order.
      ``_warm_order`` lists them in that order (shared read-only by
      every member warmed together) and ``_warm_at`` is this pool's
      cursor into it: the coldest warm page is the first one at or
      after the cursor still in ``_warm``.
    * the **hot chain** (``_pool``, an ``OrderedDict``) holds every page
      touched or loaded since.  Touching a warm page moves it to the hot
      chain's MRU end.

    A warm page is clean, unpinned and untouched since the warm start,
    so a steal takes the coldest warm page while there is one, and only
    then looks at the hot chain.  Pages with unexternalized updates are
    in one dirty set; a dirty page is never stolen, so the dirty set is a
    subset of the hot chain's pages.  Nor is a page whose read is still
    in flight (a miss, or the refresh of a cross-invalidated buffer): its
    reader may update it the moment the read ends.

    The free slots are ``0 .. _free - 1``, handed out from the top down.
    """

    def __init__(self, sim: Simulator, node, config: DatabaseConfig,
                 farm: DasdFarm, xes: Optional[XesConnection] = None,
                 trace=None):
        self.sim = sim
        self.node = node
        self.config = config
        self.farm = farm
        self.xes = xes  # None => non-data-sharing
        self.trace = trace  # Tracer or None (zero-cost when disabled)
        self._pool: "OrderedDict[object, int]" = OrderedDict()
        self._warm: Dict[object, int] = {}
        self._warm_order: Sequence[object] = ()
        self._warm_at = 0
        #: compact the warm segment once it holds this many pages or fewer
        self._warm_floor = 0
        self._dirty: Set[object] = set()
        #: pooled pages whose read is in flight, with how many reads each
        #: (never stolen)
        self._reading: Dict[object, int] = {}
        self._free = config.buffer_pages
        # clean-page index (see _oldest_clean): LRU stamps of the hot
        # chain's pages and a min-heap of (stamp, page) over the clean
        # ones.  Built on the first steal that meets a dirty LRU head,
        # which no warm page can be; until then it is None and no page
        # pays for it.
        self._stamps: Optional[Dict[object, int]] = None
        self._clean_heap: List[Tuple[int, object]] = []
        self._tick = count()
        # statistics
        self.local_hits = 0
        self.coherency_misses = 0
        self.cf_refreshes = 0
        self.dasd_reads = 0
        self.pages_written = 0

    @property
    def data_sharing(self) -> bool:
        return self.xes is not None

    @property
    def cache(self) -> Optional[CacheStructure]:
        return self.xes.structure if self.xes else None  # type: ignore

    # -- read path -----------------------------------------------------------
    def try_get_local(self, page: object) -> Optional[str]:
        """Plain-call fast path: ``"local"`` iff ``page`` is a clean local
        hit, else ``None`` with **no side effects** — the caller falls back
        to :meth:`get_page`, which redoes the lookup identically.

        A local hit costs only the vector-bit test (the paper's new CPU
        instruction) and touches no event machinery, so callers on the
        transaction inner loop skip building a generator for the common
        case entirely.
        """
        slot = self._pool.get(page)
        warm = slot is None
        if warm:
            slot = self._warm.get(page)
            if slot is None:
                return None
        xes = self.xes
        if xes is not None:
            if not xes.connector.active:
                return None  # let get_page raise SystemDown as before
            if not xes.structure.vector_of(xes.connector).test(slot):
                return None  # cross-invalidated: get_page pays the refresh
        if warm:
            self._touch(page)
        else:
            # _touch(page) for a hot page, inlined on the transaction
            # inner loop
            self._pool.move_to_end(page)
            if self._stamps is not None:
                self._stamps[page] = next(self._tick)
        self.local_hits += 1
        return "local"

    def get_page(self, page: object) -> Generator:
        """Process step: make ``page`` current in a local buffer.

        The caller must already hold a lock covering the page.  Returns
        'local' | 'cf' | 'dasd' describing where the data came from.
        """
        if self.data_sharing and not self.xes.connector.active:
            from ..hardware.cpu import SystemDown

            raise SystemDown(self.node.name)
        # after try_get_local nearly every call is a miss (a pooled page
        # here was cross-invalidated), so only a hit pays for _touch
        slot = self._pool.get(page)
        if slot is None and self._warm:
            slot = self._warm.get(page)
        if slot is not None:
            self._touch(page)
            if not self.data_sharing:
                self.local_hits += 1
                return "local"
            # coherency check: local vector bit test, no CF access
            vector = self.cache.vector_of(self.xes.connector)
            if vector.test(slot):
                self.local_hits += 1
                return "local"
            # cross-invalidated since we last touched it: pin the page
            # until the refresh is in, as a miss pins it until its read is
            self.coherency_misses += 1
            self._pin(page)
            try:
                source = yield from self._register_and_fill(page, slot, None)
            finally:
                self._unpin(page)
            return source

        # true miss: steal the LRU buffer, and pin the page until its
        # data is in (the caller may dirty it the moment the read ends)
        slot, old_name = self._allocate(page)
        self._pin(page)
        try:
            if not self.data_sharing:
                yield from traced(self.trace, "io", self.farm.read_page(page))
                self.dasd_reads += 1
                return "dasd"
            source = yield from self._register_and_fill(page, slot, old_name)
        finally:
            self._unpin(page)
        return source

    def _allocate(self, page: object) -> Tuple[int, Optional[object]]:
        """Find a slot for ``page``; returns (slot, stolen_page_or_None).

        The victim is the oldest clean page in LRU order; when every
        pooled page is dirty the pool grows by one buffer instead.
        """
        old_name = None
        if self._free:
            self._free -= 1
            slot = self._free
        elif self._warm:
            victim_page, slot = self._steal_warm()
            old_name = victim_page if self.data_sharing else None
        else:
            pool = self._pool
            victim_page, slot = pool.popitem(last=False)
            if victim_page in self._dirty or victim_page in self._reading:
                # in non-sharing mode the deferred writer owns dirty pages,
                # and a page being read in is about to be used: push it
                # back and steal the oldest clean, unpinned one
                pool[victim_page] = slot
                pool.move_to_end(victim_page, last=False)
                victim_page = self._oldest_clean()
                if victim_page is None:
                    # everything dirty: temporarily extend the pool
                    slot = self.config.buffer_pages + len(pool)
                    return self._insert(page, slot), None
                slot = pool.pop(victim_page)
            if self._stamps is not None:
                del self._stamps[victim_page]
            old_name = victim_page if self.data_sharing else None
        return self._insert(page, slot), old_name

    def _insert(self, page: object, slot: int) -> int:
        """Pool ``page``, clean, in ``slot`` at the MRU end; returns the
        slot."""
        self._pool[page] = slot
        stamps = self._stamps
        if stamps is not None:
            stamp = stamps[page] = next(self._tick)
            self._index_clean(stamp, page)
        return slot

    def _pin(self, page: object) -> None:
        """A read of pooled ``page`` starts: it may not be stolen until
        the read ends.  Two transactions may read one page at once (a
        refresh beside a miss, or two refreshes), so pins are counted."""
        reading = self._reading
        reading[page] = reading.get(page, 0) + 1

    def _unpin(self, page: object) -> None:
        """A read of ``page`` ended: once no other is in flight it may be
        stolen again, so a clean pooled page goes back into the clean-page
        index, which :meth:`_oldest_clean` may have dropped it from
        meanwhile."""
        reading = self._reading
        pins = reading[page]
        if pins > 1:
            reading[page] = pins - 1
            return
        del reading[page]
        stamps = self._stamps
        if stamps is not None and page in stamps and page not in self._dirty:
            self._index_clean(stamps[page], page)

    def _touch(self, page: object) -> Optional[int]:
        """Move a pooled page to the MRU end of the LRU chain and return
        its slot; None (and no change) if ``page`` is not pooled."""
        pool = self._pool
        slot = pool.get(page)
        if slot is not None:
            pool.move_to_end(page)
        else:
            warm = self._warm
            if page not in warm:
                return None
            slot = pool[page] = warm.pop(page)
            self._warm_shrunk()
        if self._stamps is not None:
            self._stamps[page] = next(self._tick)
        return slot

    # -- warm segment ----------------------------------------------------------
    def _steal_warm(self) -> Tuple[object, int]:
        """Take the coldest warm page out of the pool; returns (page,
        slot).  The pages the cursor passes over were touched since the
        warm start and are in the hot chain, so each is passed once."""
        order, warm = self._warm_order, self._warm
        at = self._warm_at
        while order[at] not in warm:
            at += 1
        page = order[at]
        self._warm_at = at + 1
        slot = warm.pop(page)
        self._warm_shrunk()
        return page, slot

    def _warm_shrunk(self) -> None:
        """A page left the warm segment.  A dict keeps a deleted entry's
        room until it is rebuilt, so once half its pages are gone the
        segment is rebuilt from the live ones, with its own order list and
        the cursor at its start; a drained segment leaves an empty dict
        and an empty list."""
        warm = self._warm
        if len(warm) <= self._warm_floor:
            self._set_warm(dict(warm), list(warm))

    def _set_warm(self, warm: Dict[object, int],
                  order: Sequence[object]) -> None:
        """Make ``warm``, in ``order``, the warm segment with the cursor at
        its start: at a warm start, or when the segment is rebuilt."""
        self._warm = warm
        self._warm_order = order
        self._warm_at = 0
        self._warm_floor = len(warm) // 2

    def lru_items(self) -> Iterator[Tuple[object, int]]:
        """The pooled pages with their slots, in LRU order (cold end
        first): the warm segment in prewarm order, then the hot chain."""
        return chain(self._warm.items(), self._pool.items())

    # -- clean-page index ------------------------------------------------------
    # The hot chain's order is its LRU order; once the index exists every
    # move to the MRU end takes the next stamp, so stamps rise along the
    # chain.  Every clean page of the chain has at least one heap entry
    # whose stamp is at most its current stamp: an entry goes stale when
    # its page is touched, dirtied or stolen, and stale entries are dropped
    # or re-filed only when they reach the top of the heap.  So a steal
    # costs O(log pool) amortized, not a walk of the dirty run at the cold
    # end.  The index is built only once the warm segment is empty (a
    # steal meets a dirty head only then), and a pool never warms again.
    def _index_pool(self) -> None:
        """(Re)build the index from the hot chain: the chain is already
        in stamp order, so the clean entries form a sorted list, which is
        a valid heap without a sort.  Also compacts a heap that has grown
        past twice the pool."""
        pool, dirty = self._pool, self._dirty
        self._stamps = dict(zip(pool, count()))
        self._clean_heap = [(stamp, page) for stamp, page in enumerate(pool)
                            if page not in dirty]
        self._tick = count(len(pool))

    def _index_clean(self, stamp: int, page: object) -> None:
        heap = self._clean_heap
        heapq.heappush(heap, (stamp, page))
        if len(heap) > 2 * len(self._pool):
            self._index_pool()

    def _oldest_clean(self) -> Optional[object]:
        """The oldest clean page in LRU order that is not being read in,
        or None if there is none.

        Pops the page's own heap entry; the caller steals the page."""
        if self._stamps is None:
            self._index_pool()
        stamps, heap, dirty = self._stamps, self._clean_heap, self._dirty
        reading = self._reading
        while heap:
            stamp, page = heap[0]
            current = stamps.get(page)
            if current is None or page in dirty or page in reading:
                # stolen, dirty or pinned: its next clean transition (or
                # the end of its read) re-files it
                heapq.heappop(heap)
            elif current != stamp:
                # touched since filed: re-file it at its current age
                heapq.heapreplace(heap, (current, page))
            else:
                heapq.heappop(heap)
                return page
        return None

    def _register_and_fill(self, page: object, slot: int,
                           buf_old_name: Optional[object]) -> Generator:
        """One CF command: (name-replacement) registration + optional read."""
        # registration mutates the directory, so a duplexed secondary
        # must see it too (the shared vector bit is only set once)
        def fn(s, c):
            if buf_old_name is not None:
                s.unregister(c, buf_old_name)
            return s.register_and_read(c, page, slot)

        # the response carries the 4K block only on a CF hit
        will_hit = self.cache.has_data(page)
        status, _version = yield from self.xes.sync(
            fn, write=True,
            in_bytes=PAGE_BYTES if will_hit else 64, data=will_hit
        )
        if status == "hit":
            self.cf_refreshes += 1
            return "cf"
        yield from traced(self.trace, "io", self.farm.read_page(page))
        self.dasd_reads += 1
        return "dasd"

    # -- write path ------------------------------------------------------------
    def mark_dirty(self, page: object) -> None:
        """Record a local update (the caller holds an EXCL lock)."""
        if self._touch(page) is None:
            raise KeyError(f"page {page!r} not in pool — read before write")
        self._dirty.add(page)

    def mark_clean(self, page: object) -> None:
        """The one dirty→clean transition: ``page`` is externalized (CF
        write at commit, or deferred DASD write).  A dirty page is never
        stolen, so ``page`` is still pooled, in the slot it was dirtied
        in."""
        self._dirty.discard(page)
        if self._stamps is not None:
            self._index_clean(self._stamps[page], page)

    def commit_writes(self, pages) -> Generator:
        """Process step: externalize a transaction's changed pages.

        Data sharing: write each page to the CF with cross-invalidation,
        CPU-synchronously (paper: the updater can "release its
        serialization on the shared data block" right after).  Non-sharing:
        nothing synchronous — the deferred writer will flush.
        """
        if not self.data_sharing:
            return  # pages stay dirty for the deferred writer
        dirty = self._dirty
        for page in pages:
            if page not in dirty:
                continue
            yield from self.xes.sync(
                lambda s, c, p=page: s.write_and_invalidate(c, p),
                write=True,
                out_bytes=PAGE_BYTES,
                data=True,
                signal_wait=True,
            )
            self.pages_written += 1
            self.mark_clean(page)

    def dirty_pages(self) -> List[object]:
        """The dirty pages, in LRU order (all in the hot chain)."""
        dirty = self._dirty
        return [p for p in self._pool if p in dirty]

    def flush_deferred(self, limit: int = 64) -> Generator:
        """Process step: non-sharing deferred write of the ``limit``
        oldest dirty pages in LRU order."""
        # Only the first ``limit`` dirty pages are collected, not the whole
        # pool's.  That writes exactly what a full snapshot would: without
        # a CF nothing but this writer cleans a dirty page, and a dirty page
        # is never stolen, so every page collected here is still pooled and
        # dirty when its turn comes and none is ever skipped.  A warm page
        # is clean, so only the hot chain is walked.
        dirty = self._dirty
        batch = list(islice((p for p in self._pool if p in dirty), limit))
        for page in batch:
            self.mark_clean(page)
            yield from self.farm.write_page(page, priority=5)
            self.pages_written += 1
        return len(batch)

    def prewarm(self, pages, peers: Sequence["BufferManager"] = ()) -> int:
        """Seed this pool, then each of ``peers``' pools, with ``pages`` at
        zero simulated cost; returns how many this pool loaded.

        Benchmark setup only: stands in for the hours of production running
        that precede any steady-state measurement.  In each pool the first
        distinct pages not already pooled take the free slots, in the
        order and with the slots that one costed read each would give
        them, and register interest in the CF directory exactly as those
        reads would.  No pool has stolen yet while it has a free slot, so
        there is no clean-page index to file them in.

        An empty pool warmed together with peers loads the pages into its
        warm segment, which each peer copies.  A pool warmed alone loads
        them at the MRU end of its hot chain, as does a pool that already
        holds pages: with no copy to save, a lone pool keeps the one
        chain.  Either way the LRU order is the one the reads would leave.

        The final state and statistics are those of one call per manager,
        this one first and then the peers in order.  A sysplex's members
        start alike, though, so the warm state is built once: this pool
        (empty) is filled, every peer (each empty, with the free slots
        this pool started with) gets a ``dict.copy()`` of its warm segment,
        the same order list to read and the same free-slot count, and the
        loaded pages are registered in one
        :meth:`CacheStructure.prewarm_many` call per structure instance
        (both instances of a duplexed structure).
        """
        pool, warm = self._pool, self._warm
        assert not (peers and (pool or warm)), \
            "peers copy an empty pool's start"
        free = self._free
        loaded = [p for p in dict.fromkeys(pages)
                  if p not in pool and p not in warm]
        del loaded[free:]
        # the slots the free-slot countdown hands out, one per page
        self._free = cut = free - len(loaded)
        slots = range(free - 1, cut - 1, -1)
        if pool or warm or not peers:
            pool.update(zip(loaded, slots))
        elif loaded:
            warm = dict(zip(loaded, slots))
            self._set_warm(warm, loaded)
        for peer in peers:
            assert not (peer._pool or peer._warm) and peer._free == free, \
                "a peer starts empty, with this pool's free slots"
            peer._free = cut
            peer._set_warm(warm.copy(), loaded)
        instances: Dict[CacheStructure, List] = {}
        for bm in (self, *peers):
            if loaded and bm.data_sharing:
                for structure, conn in bm.xes.instances():
                    instances.setdefault(structure, []).append(conn)
        for structure, conns in instances.items():
            structure.prewarm_many(conns, loaded, slots)
        return len(loaded)

    def contains(self, page: object) -> bool:
        return page in self._pool or page in self._warm

    def is_valid(self, page: object) -> bool:
        """Local coherency state of a pooled page (diagnostic)."""
        slot = self._pool.get(page)
        if slot is None:
            slot = self._warm.get(page)
            if slot is None:
                return False
        if not self.data_sharing:
            return True
        return self.cache.vector_of(self.xes.connector).test(slot)


class CastoutEngine:
    """Background drain of changed CF blocks to DASD (castout ownership)."""

    def __init__(self, sim: Simulator, xes: XesConnection, farm: DasdFarm,
                 interval: float = 0.05, batch: int = 64):
        self.sim = sim
        self.xes = xes
        self.farm = farm
        self.interval = interval
        self.batch = batch
        self.active = True
        self.pages_cast = 0
        self._proc = sim.process(self._loop(), name="castout")

    def stop(self) -> None:
        self.active = False

    def _loop(self):
        try:
            yield from self._drain_loop()
        except Exception:
            pass  # hosting system or CF died: a peer takes over
        finally:
            # a returned loop is a dead engine either way — ``active``
            # False is how recovery paths know a new drainer is needed
            self.active = False

    def _drain_loop(self):
        """Drain in castout-class batches: one CF read command fetches up
        to ``batch`` changed blocks (DB2 castout reads are multi-page),
        the DASD writes overlap across devices, and one command resets
        the changed bits — so per-page CPU stays in the microseconds."""
        backlog = False
        while self.active:
            if not backlog:
                yield self.sim.timeout(self.interval)
            if not self.active or not self.xes.operational:
                return
            if not self.xes.node.alive:
                return
            # re-resolve each round: a duplex switch rebinds the
            # connection's structure in place mid-run
            names = self.xes.structure.changed_blocks(self.batch)
            # keep draining back-to-back while a backlog exists; idle on
            # the interval only when caught up
            backlog = len(names) >= self.batch
            if not names:
                continue

            versions = yield from self.xes.async_(
                lambda s, c: {n: s.castout(n) for n in names},
                in_bytes=PAGE_BYTES * len(names),
                data=True,
                service_factor=max(1.0, 0.25 * len(names)),
            )
            writes = [
                self.sim.process(
                    self.farm.write_page(n, priority=5), name="castout-io"
                )
                for n, v in versions.items()
                if v is not None
            ]
            if writes:
                yield self.sim.all_of(writes)

            def complete_batch(s, c):
                for n, v in versions.items():
                    if v is not None:
                        s.castout_complete(n, v)

            yield from self.xes.async_(
                complete_batch,
                write=True,
                service_factor=max(1.0, 0.25 * len(names)),
            )
            self.pages_cast += sum(1 for v in versions.values() if v is not None)
