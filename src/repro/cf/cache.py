"""CF cache structure: multi-system buffer coherency + global data cache.

Implements paper §3.3.2 faithfully at the protocol level:

* A **global buffer directory** tracks, per uniquely-named data block,
  which connectors have the block in a local buffer and at which **local
  bit vector** index.
* ``register_and_read`` records interest when a manager brings a block
  into a local buffer (optionally returning the block from CF storage —
  the "second-level cache" role).
* ``write_and_invalidate`` stores the changed block and directs
  **cross-invalidate signals** to every *other* registered connector.  The
  signal flips the target's local vector bit after the link latency with
  *no processor interrupt or software involvement on the target system* —
  it is applied by a scheduled callback, never via the target's CPU
  complex.  The command completes only "once the CF has observed
  completion of all buffer invalidation signals", modeled as one extra
  signal latency on the command service time.
* Buffer validity checks are **local**: ``LocalVector.test`` — the new CPU
  instruction the paper describes — costs no CF trip.

Data blocks are modeled as monotonically increasing version numbers; the
coherency invariant (a valid bit implies the locally seen version equals
the directory's latest) is enforced by the structure and property-tested.

The directory is held **inverted**, with no per-block object:

* ``_dir`` (``OrderedDict[name, None]``) keeps the names in LRU order,
  the order reclaim and data eviction scan;
* ``_version`` (non-zero versions), ``_data`` (names with a data
  element) and ``_changed`` (changed names, in ``_dir`` order) hold only
  non-default values;
* each connection owns ``_regs[cid]`` (name → vector bit) and
  ``_seen[cid]`` (name → the non-zero version it last read or wrote; a
  registered name missing there was seen at version 0).

A sysplex's bulk prewarm is then one pass over the directory for the
batch every member registers, plus one map update and one bit list per
connection, and the cycle collector has no per-block object to walk.
One write's cross-invalidate signals go out in connection order; they
all leave at one instant to distinct vectors, so their order is not
observable.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import filterfalse, islice, repeat
from operator import setitem
from typing import Dict, List, Optional, Sequence, Tuple

from .structure import Connector, Structure

__all__ = ["CacheStructure", "LocalVector", "CacheFullError"]

#: consume an iterator for its side effects (the itertools recipe)
_exhaust = deque(maxlen=0).extend


def _merge_into(maps: Dict[int, Dict[object, int]], cid: int,
                batch: Dict[object, int]) -> None:
    """``maps[cid].update(batch)``, except that an empty map is replaced
    by a copy of ``batch``: a dict copy is one block copy, not an insert
    per entry."""
    if maps[cid]:
        maps[cid].update(batch)
    else:
        maps[cid] = batch.copy()


class CacheFullError(Exception):
    """No storage for a changed block: castout has fallen behind."""


class LocalVector:
    """A connection's local bit vector in protected processor storage."""

    def __init__(self, size: int = 0):
        self._bits: List[bool] = [False] * size
        self.tests = 0
        self.invalidations = 0  # XI signals landed here

    def _grow(self, index: int) -> None:
        if index >= len(self._bits):
            self._bits.extend([False] * (index + 1 - len(self._bits)))

    def test(self, index: int) -> bool:
        """The new S/390 instruction: local validity check, no CF access."""
        self.tests += 1
        self._grow(index)
        return self._bits[index]

    def set_valid(self, index: int) -> None:
        self._grow(index)
        self._bits[index] = True

    def invalidate(self, index: int) -> None:
        self._grow(index)
        if self._bits[index]:
            self.invalidations += 1
        self._bits[index] = False


class CacheStructure(Structure):
    model = "cache"

    def __init__(self, name: str, data_elements: int, directory_entries: int):
        if data_elements < 1 or directory_entries < 1:
            raise ValueError("cache structure needs capacity")
        super().__init__(name)
        self.data_elements = data_elements
        self.directory_entries = directory_entries
        self._dir: "OrderedDict[object, None]" = OrderedDict()
        self._version: Dict[object, int] = {}
        self._data: set = set()
        #: changed names in ``_dir`` order — a castout scan reads this
        #: instead of walking the whole directory.  The mirror stays in
        #: ``_dir`` order by construction: a name only *becomes* changed
        #: at the directory's LRU tail (every write ends with
        #: ``move_to_end``), every later touch moves both tails together,
        #: and castout completion removes position-independently.
        self._changed: "OrderedDict[object, None]" = OrderedDict()
        self._regs: Dict[int, Dict[object, int]] = {}
        self._seen: Dict[int, Dict[object, int]] = {}
        self.vectors: Dict[int, LocalVector] = {}
        # statistics
        self.reads = 0
        self.read_hits = 0
        self.writes = 0
        self.xi_signals = 0
        self.reclaims = 0
        self.castouts = 0

    # -- connection ----------------------------------------------------------
    def connect(self, system_name: str, on_loss=None, conn_id=None) -> Connector:
        conn = super().connect(system_name, on_loss, conn_id=conn_id)
        cid = conn.conn_id
        # MVS allocates the local bit vector at connect time (paper §3.3.2)
        self.vectors[cid] = LocalVector()
        # a re-duplexed secondary connects after clone_state_from: keep the
        # registrations it cloned
        self._regs.setdefault(cid, {})
        self._seen.setdefault(cid, {})
        return conn

    def vector_of(self, conn: Connector) -> LocalVector:
        return self.vectors[conn.conn_id]

    # -- mainline commands ------------------------------------------------------
    def register_and_read(self, conn: Connector, name: object,
                          bit_index: int) -> Tuple[str, int]:
        """Record interest in ``name``; return ('hit'|'miss', version).

        On 'hit' the CF also returns the current block, saving a DASD read.
        Either way the connector's vector bit becomes valid — for a miss
        the caller must then read DASD and the registration already covers
        the buffer it will fill.
        """
        self._check()
        self.reads += 1
        if not self._create(name):
            self._dir.move_to_end(name)
            if name in self._changed:
                self._changed.move_to_end(name)
        cid = conn.conn_id
        self._regs[cid][name] = bit_index
        version = self._version.get(name, 0)
        if version:
            self._seen[cid][name] = version
        self.vectors[cid].set_valid(bit_index)
        if name in self._data:
            self.read_hits += 1
            return ("hit", version)
        return ("miss", version)

    def write_and_invalidate(self, conn: Connector, name: object,
                             store: bool = True, changed: bool = True) -> int:
        """Store an updated block; cross-invalidate other registrants.

        Returns the number of XI signals sent (the command's completion
        waits for them; the command wrapper adds the latency).
        """
        self._check()
        self.writes += 1
        self._create(name)
        # commands are atomic: secure storage BEFORE mutating anything, so
        # a CacheFullError rejects the command without side effects
        if store and name not in self._data:
            self._make_room()
            self._data.add(name)
        version = self._version[name] = self._version.get(name, 0) + 1
        my = conn.conn_id
        self._seen.setdefault(my, {})[name] = version  # even if purged
        self._dir.move_to_end(name)
        ch = self._changed
        if (store and changed) or name in ch:
            ch[name] = None
            ch.move_to_end(name)

        # XI fan-out: every signal of one write leaves at the same instant,
        # so the clock read, latency sum and lookups are hoisted
        n = 0
        vectors, seen, fac = self.vectors, self._seen, self.facility
        if fac is not None:
            deliver_at = fac.sim.now + fac.config.signal_latency
            call_at = fac.sim.call_at
        for cid, regs in self._regs.items():
            if cid == my or name not in regs:
                continue  # the writer's own copy is the current one
            bit = regs.pop(name)
            seen[cid].pop(name, None)
            vector = vectors.get(cid)
            if vector is None:
                continue
            n += 1
            if fac is None:
                vector.invalidate(bit)
            else:
                call_at(deliver_at, lambda v=vector, b=bit: v.invalidate(b))
        if fac is not None:
            fac.signals_sent += n
        self.xi_signals += n
        return n

    def prewarm_many(self, conns: Sequence[Connector],
                     names: Sequence[object], bits: Sequence[int]) -> None:
        """Bulk :meth:`register_and_read` for benchmark prewarm.

        Registers ``names[i]`` at vector bit ``bits[i]`` for each ``i``
        (the two sequences have the same length) for every connection in
        ``conns``, leaving the exact final state and statistics of calling
        :meth:`register_and_read` once per pair for each connection in
        turn (the hit/miss tuples are what prewarm discards anyway).

        The directory is touched once: after the first connection's pass
        the batch sits at the LRU tail in order, so every later pass would
        leave it as it is.  Each connection then takes one name→bit map
        and one bit list.  A batch that would overflow the directory runs
        the command once per pair and connection instead, so reclaim
        picks the same victims.  Runs pre-simulation, so it must stay a
        plain state transform: no events, no clock reads.
        """
        self._check()
        if not names or not conns:
            return
        d = self._dir
        if (len(d) + len(names) > self.directory_entries
                and len(d) + len(set(names).difference(d))
                > self.directory_entries):
            for conn in conns:
                _exhaust(map(self.register_and_read, repeat(conn), names,
                             bits))
            return
        before = len(d)
        # insert only the missing names: updating with every name pays for
        # the ones already present
        d.update(zip(filterfalse(d.__contains__, names), repeat(None)))
        seen: Dict[object, int] = {}
        if len(d) - before < len(names):
            # some names were there already (or repeat): move the batch to
            # the LRU tail in order, and carry over versions and hits.  An
            # all-new batch is in order at the tail with none of these.
            _exhaust(map(d.move_to_end, names))
            ch = self._changed
            _exhaust(map(ch.move_to_end, filter(ch.__contains__, names)))
            version = self._version
            written = list(filter(version.__contains__, names))
            seen = dict(zip(written, map(version.__getitem__, written)))
            self.read_hits += (sum(map(self._data.__contains__, names))
                               * len(conns))
        regs = dict(zip(names, bits))
        # the batch's bits as one vector: a vector that has no bit yet
        # (a connection's first batch) takes a copy of it, as an empty
        # name map takes a copy of the batch's
        filled = [False] * (max(bits) + 1)
        _exhaust(map(setitem, repeat(filled), bits, repeat(True)))
        for conn in conns:
            cid = conn.conn_id
            _merge_into(self._regs, cid, regs)
            if seen:
                _merge_into(self._seen, cid, seen)
            vector = self.vectors[cid]
            if vector._bits:
                vector._grow(len(filled) - 1)
                _exhaust(map(setitem, repeat(vector._bits), bits,
                             repeat(True)))
            else:
                vector._bits = filled.copy()
        self.reads += len(names) * len(conns)

    def unregister(self, conn: Connector, name: object) -> None:
        """Drop interest (buffer stolen locally for reuse)."""
        self._check()
        cid = conn.conn_id
        self._regs.get(cid, {}).pop(name, None)
        self._seen.get(cid, {}).pop(name, None)

    # -- castout ---------------------------------------------------------------
    def changed_blocks(self, limit: int = 64) -> List[object]:
        """Names of changed blocks awaiting castout (oldest first)."""
        return list(islice(self._changed, limit))

    def castout(self, name: object) -> Optional[int]:
        """Read a changed block for castout; returns its version or None."""
        self._check()
        return self._version[name] if name in self._changed else None

    def castout_complete(self, name: object, version: int) -> None:
        """DASD write done: clear changed if no newer write intervened."""
        self._check()
        if name in self._dir and self._version.get(name, 0) == version:
            self._changed.pop(name, None)
            self.castouts += 1

    # -- storage management ---------------------------------------------------------
    def _create(self, name: object) -> bool:
        """Add ``name`` at the LRU tail, reclaiming an entry if the
        directory is full; False if it was already there."""
        d = self._dir
        if name in d:
            return False
        if len(d) >= self.directory_entries:
            self._reclaim_directory()
        d[name] = None
        return True

    def _make_room(self) -> None:
        if len(self._data) < self.data_elements:
            return
        # evict least-recently-used *unchanged* data element
        for name in filterfalse(self._changed.__contains__,
                                filter(self._data.__contains__, self._dir)):
            self._data.remove(name)
            return
        raise CacheFullError(self.name)

    def _reclaim_directory(self) -> None:
        """Steal the LRU dataless directory entry, invalidating registrants."""
        for name in filterfalse(self._data.__contains__, self._dir):
            for cid, regs in self._regs.items():
                bit = regs.pop(name, None)
                vector = self.vectors.get(cid)
                if bit is not None and vector is not None:
                    if self.facility is not None:
                        self.facility.signal(
                            lambda v=vector, b=bit: v.invalidate(b))
                    else:
                        vector.invalidate(bit)
                    self.xi_signals += 1
            for seen in self._seen.values():
                seen.pop(name, None)
            del self._dir[name]
            self._version.pop(name, None)
            self.reclaims += 1
            return
        raise CacheFullError(f"{self.name}: directory full of changed data")

    # -- cleanup / introspection -------------------------------------------------------
    def _purge_connector(self, conn: Connector) -> None:
        self._regs.pop(conn.conn_id, None)
        self._seen.pop(conn.conn_id, None)
        self.vectors.pop(conn.conn_id, None)

    def version_of(self, name: object) -> int:
        return self._version.get(name, 0)

    def has_data(self, name: object) -> bool:
        """Whether a read of ``name`` would hit CF storage (cost model:
        the response only carries a data block when one is cached)."""
        return name in self._data

    def is_registered(self, conn: Connector, name: object) -> bool:
        return name in self._regs.get(conn.conn_id, ())

    def check_coherency(self) -> None:
        """Invariant: a valid local bit implies the holder saw the latest
        version.  Raises AssertionError on violation (used by tests)."""
        for cid, regs in self._regs.items():
            vector = self.vectors.get(cid)
            if vector is None:
                continue
            bits = vector._bits
            seen = self._seen.get(cid, {})
            for name, bit in regs.items():
                if bit < len(bits) and bits[bit]:
                    latest = self._version.get(name, 0)
                    assert seen.get(name, 0) == latest, (
                        f"{name}: conn {cid} valid at stale version "
                        f"{seen.get(name, 0)} != {latest}"
                    )

    @property
    def data_in_use(self) -> int:
        return len(self._data)

    # -- duplexing -------------------------------------------------------------
    def clone_state_from(self, other: "CacheStructure") -> None:
        """Copy the peer's directory + changed-set (re-duplexing).

        Vectors are *not* cloned — the wiring layer points this
        instance's ``vectors`` at the connectors' shared per-system
        vectors, which already reflect the directory being copied.
        """
        self._dir = OrderedDict(other._dir)
        self._version = dict(other._version)
        self._data = set(other._data)
        self._changed = OrderedDict(other._changed)
        self._regs = {cid: dict(r) for cid, r in other._regs.items()}
        self._seen = {cid: dict(s) for cid, s in other._seen.items()}

    def state_units(self) -> int:
        """Size metric for the re-duplex state copy cost."""
        return len(self._dir)

    def duplex_state(self) -> object:
        """Directory state in canonical comparable form.

        Covers exactly what the duplexed-write protocol mirrors: the
        directory (registrants, versions, data presence, changed bits,
        seen versions) in LRU order, one ``(name, registrants, version,
        has_data, changed, seen)`` row per block.  Local bit vectors are
        *excluded* — a duplexed pair shares the connectors' real vectors,
        so they are not per-instance state.
        """
        regs: Dict[object, dict] = {name: {} for name in self._dir}
        seen: Dict[object, dict] = {name: {} for name in self._dir}
        for cid, held in self._regs.items():
            for name, bit in held.items():
                regs[name][cid] = bit
                seen[name][cid] = 0
        for cid, versions in self._seen.items():
            for name, version in versions.items():
                seen[name][cid] = version
        return (
            "cache",
            [
                (str(name), regs[name], self._version.get(name, 0),
                 name in self._data, name in self._changed, seen[name])
                for name in self._dir
            ],
            [str(n) for n in self._changed],
        )
