"""Tests for the buffer manager (coherency protocol) and the log manager."""

import numpy as np
import pytest

from repro.config import CfConfig, DasdConfig, DatabaseConfig, SysplexConfig
from repro.hardware import DasdDevice
from repro.runner import build_loaded_sysplex
from repro.subsystems import BufferManager, LogManager
from repro.subsystems.buffermgr import CastoutEngine

from conftest import MiniPlex


# ------------------------------------------------------------- buffers ----
def test_first_read_comes_from_dasd(miniplex):
    mp = miniplex
    sources = []

    def work():
        src = yield from mp.buffermgrs[0].get_page(42)
        sources.append(src)

    mp.run(work())
    assert sources == ["dasd"]
    assert mp.buffermgrs[0].dasd_reads == 1


def test_second_read_is_local_hit(miniplex):
    mp = miniplex
    sources = []

    def work():
        yield from mp.buffermgrs[0].get_page(42)
        src = yield from mp.buffermgrs[0].get_page(42)
        sources.append(src)

    mp.run(work())
    assert sources == ["local"]
    assert mp.buffermgrs[0].local_hits == 1


def test_local_hit_costs_no_cf_command(miniplex):
    mp = miniplex
    bm = mp.buffermgrs[0]

    def work():
        yield from bm.get_page(42)
        before = bm.xes.port.sync_ops
        yield from bm.get_page(42)
        assert bm.xes.port.sync_ops == before  # bit test only, no CF trip

    mp.run(work())


def test_peer_update_invalidates_and_refreshes_from_cf(miniplex):
    mp = miniplex
    b0, b1 = mp.buffermgrs
    sources = []

    def work():
        yield from b0.get_page(7)          # SYS00 caches page 7
        yield from b1.get_page(7)          # SYS01 caches page 7
        b1.mark_dirty(7)
        yield from b1.commit_writes([7])   # SYS01 updates -> XI to SYS00
        yield mp.sim.timeout(1e-4)         # let the signal land
        assert b0.is_valid(7) is False     # invalidated, no CPU spent
        src = yield from b0.get_page(7)    # refresh
        sources.append(src)

    mp.run(work())
    assert sources == ["cf"]  # high-speed refresh from CF, not DASD
    assert b0.coherency_misses == 1
    assert b0.cf_refreshes == 1


def test_writer_keeps_its_own_copy_valid(miniplex):
    mp = miniplex
    b1 = mp.buffermgrs[1]

    def work():
        yield from b1.get_page(7)
        b1.mark_dirty(7)
        yield from b1.commit_writes([7])
        assert b1.is_valid(7) is True

    mp.run(work())


def test_write_before_read_raises(miniplex):
    with pytest.raises(KeyError):
        miniplex.buffermgrs[0].mark_dirty(99)


def test_nonsharing_manager_never_touches_cf(miniplex):
    mp = miniplex
    from repro.subsystems import BufferManager

    bm = BufferManager(mp.sim, mp.nodes[0], mp.config.db, mp.farm, xes=None)
    sources = []

    def work():
        s1 = yield from bm.get_page(1)
        s2 = yield from bm.get_page(1)
        sources.extend([s1, s2])

    mp.run(work())
    assert sources == ["dasd", "local"]


def test_lru_steal_reuses_slot_with_name_replacement():
    mp = MiniPlex()
    # tiny pool to force steals
    mp.config.db.buffer_pages = 2
    from repro.subsystems import BufferManager

    bm = BufferManager(mp.sim, mp.nodes[0], mp.config.db, mp.farm,
                       xes=mp.buffermgrs[0].xes)

    def work():
        yield from bm.get_page(1)
        yield from bm.get_page(2)
        yield from bm.get_page(3)  # steals page 1's buffer
        assert not bm.contains(1)
        assert bm.contains(3)
        # the stolen page's registration must be gone: an update to page 1
        # by a peer must NOT invalidate the slot now holding page 3
        cache = bm.cache
        assert not cache.is_registered(bm.xes.connector, 1)
        assert cache.is_registered(bm.xes.connector, 3)

    mp.run(work())


def test_prewarm_loads_and_registers(miniplex):
    mp = miniplex
    bm = mp.buffermgrs[0]
    top = mp.config.db.buffer_pages - 1
    n = bm.prewarm([10, 11, 12])
    assert n == 3
    assert bm.contains(11)
    assert bm.cache.is_registered(bm.xes.connector, 11)
    # each page takes the slot one costed read would have: free slots are
    # handed out from the top down, in page order
    assert list(bm.lru_items()) == [(10, top), (11, top - 1), (12, top - 2)]
    # duplicates and already pooled pages load nothing and use no slot
    assert bm.prewarm([11, 13, 13, 10, 14, 13]) == 2
    slots = dict(bm.lru_items())
    assert slots[13] == top - 3 and slots[14] == top - 4
    # more pages than free slots: the first ones fill the pool, the rest
    # are dropped
    assert bm.prewarm(range(100, 100 + top + 1)) == top + 1 - 5
    assert bm._free == 0
    slots = dict(bm.lru_items())
    assert slots[100] == top - 5 and slots[100 + top - 5] == 0
    assert not bm.contains(100 + top - 4)
    assert sorted(slots.values()) == list(range(top + 1))
    assert bm.prewarm([7]) == 0

    def work():
        src = yield from bm.get_page(10)
        assert src == "local"

    mp.run(work())


def _per_system(prewarm):
    """``prewarm`` as one call per manager: the reference the shared warm
    start must reproduce."""
    def each(self, pages, peers=()):
        loaded = prewarm(self, pages)
        for peer in peers:
            prewarm(peer, pages)
        return loaded
    return each


def _warm_state(managers):
    """Every pool's items in order and free slots, and every structure
    instance the managers are connected to: its directory rows
    (``duplex_state``), vectors and counters."""
    structures = {}
    for bm in managers:
        if bm.xes is not None:
            for structure, _conn in bm.xes.instances():
                structures.setdefault(id(structure), structure)
    return {
        "pools": [(list(bm.lru_items()), bm._free)
                  for bm in managers],
        "structures": [
            (s.duplex_state(),
             {cid: (v._bits, v.invalidations, v.tests)
              for cid, v in s.vectors.items()},
             (s.reads, s.read_hits, s.writes, s.xi_signals, s.reclaims,
              s.data_in_use, s.facility.signals_sent))
            for s in structures.values()],
    }


@pytest.mark.parametrize("cf", [CfConfig(), CfConfig(duplex="all")],
                         ids=["simplex", "duplex"])
def test_shared_warm_start_matches_per_system_prewarm(cf, monkeypatch):
    """build_loaded_sysplex warms every member from one pool fill and one
    registration pass per structure instance; the pools, the directory of
    both instances of a duplexed structure, the vectors and the counters
    equal those of one prewarm per system."""
    config = SysplexConfig(
        n_systems=4, n_cfs=2 if cf.duplex != "none" else 1, cf=cf,
        db=DatabaseConfig(n_pages=12_000, buffer_pages=4_000))

    def built():
        plex, _gen = build_loaded_sysplex(config)
        return [inst.buffers for inst in plex.instances.values()]

    shared = built()
    with monkeypatch.context() as m:
        m.setattr(BufferManager, "prewarm",
                  _per_system(BufferManager.prewarm))
        each = built()
    got, want = _warm_state(shared), _warm_state(each)
    assert len(got["structures"]) == (2 if cf.duplex != "none" else 1)
    assert got == want
    pool, free = got["pools"][0]
    assert len(pool) == 4_000 and free == 0
    assert all(p == (pool, free) for p in got["pools"])


def test_dirty_pages_listing_and_deferred_flush(miniplex):
    mp = miniplex
    from repro.subsystems import BufferManager

    bm = BufferManager(mp.sim, mp.nodes[0], mp.config.db, mp.farm, xes=None)

    def work():
        yield from bm.get_page(5)
        bm.mark_dirty(5)
        assert bm.dirty_pages() == [5]
        flushed = yield from bm.flush_deferred()
        assert flushed == 1
        assert bm.dirty_pages() == []

    mp.run(work())


@pytest.mark.parametrize("buffer_pages", [100, 300, 600])
def test_small_nonsharing_pool_runs_to_the_end(buffer_pages):
    """With every older page dirty, the page a transaction is reading in
    is the pool's only clean page.  Another miss must not steal it before
    the reader dirties it (this used to end the run with ``KeyError:
    page ... not in pool — read before write``)."""
    from dataclasses import replace

    from repro.experiments.common import scaled_config
    from repro.runner import run_oltp

    base = scaled_config(1, 1, data_sharing=False, seed=1)
    config = replace(base, db=replace(base.db, buffer_pages=buffer_pages))
    result = run_oltp(config, duration=2.0, warmup=0.3)
    assert result.completed > 0


def test_castout_engine_drains_changed_blocks(miniplex):
    mp = miniplex
    b0 = mp.buffermgrs[0]
    engine = CastoutEngine(mp.sim, b0.xes, mp.farm, interval=0.01)

    def work():
        yield from b0.get_page(3)
        b0.mark_dirty(3)
        yield from b0.commit_writes([3])

    mp.run(work(), until=1.0)
    cache = b0.cache
    assert engine.pages_cast >= 1
    assert cache.changed_blocks() == []  # drained to DASD
    engine.stop()


# ------------------------------------------------------------------ log ----
def make_log():
    from repro.simkernel import Simulator
    from repro.hardware import SystemNode

    sim = Simulator()
    cfg = SysplexConfig()
    node = SystemNode(sim, cfg, 0)
    rng = np.random.default_rng(3)
    dev = DasdDevice(sim, DasdConfig(service_sigma=1e-9), rng, "log")
    return sim, node, LogManager(sim, node, cfg.db, dev)


def test_log_force_takes_io_time():
    sim, node, log = make_log()
    t = []

    def work():
        log.log_update("t1", 5)
        yield from log.force()
        t.append(sim.now)

    sim.process(work())
    sim.run()
    assert t[0] >= DasdConfig().service_mean * 0.5
    assert log.forces == 1


def test_group_commit_shares_one_io():
    sim, node, log = make_log()
    done = []

    def committer(tag):
        log.log_update(tag, 1)
        yield from log.force()
        done.append((tag, sim.now))

    for tag in ("a", "b", "c"):
        sim.process(committer(tag))
    sim.run()
    assert len(done) == 3
    # three committers, far fewer I/Os than three (a follows the batch)
    assert log.forces <= 2


def test_in_flight_tracking():
    sim, node, log = make_log()
    log.log_update("t1", 5)
    log.log_update("t1", 6)
    log.log_update("t2", 7)
    assert log.crash_snapshot() == {"t1": [5, 6], "t2": [7]}
    log.log_end("t1")
    assert log.crash_snapshot() == {"t2": [7]}
