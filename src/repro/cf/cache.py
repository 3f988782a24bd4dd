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
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from .structure import Connector, Structure

__all__ = ["CacheStructure", "LocalVector", "CacheFullError"]


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


class _DirEntry:
    """Directory state for one named data block."""

    __slots__ = ("registrants", "version", "has_data", "changed", "seen")

    def __init__(self):
        self.registrants: Dict[int, int] = {}  # conn_id -> vector index
        self.version = 0
        self.has_data = False
        self.changed = False
        # last version each conn_id actually read (for invariant checking)
        self.seen: Dict[int, int] = {}


class CacheStructure(Structure):
    model = "cache"

    def __init__(self, name: str, data_elements: int, directory_entries: int):
        if data_elements < 1 or directory_entries < 1:
            raise ValueError("cache structure needs capacity")
        super().__init__(name)
        self.data_elements = data_elements
        self.directory_entries = directory_entries
        self._dir: "OrderedDict[object, _DirEntry]" = OrderedDict()
        #: changed entries in ``_dir`` order — a castout scan reads this
        #: instead of walking the whole directory.  The mirror stays in
        #: ``_dir`` order by construction: an entry only *becomes* changed
        #: at the directory's LRU tail (every write ends with
        #: ``move_to_end``), every later touch moves both tails together,
        #: and castout completion removes position-independently.
        self._changed: "OrderedDict[object, None]" = OrderedDict()
        self._data_count = 0
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
        # MVS allocates the local bit vector at connect time (paper §3.3.2)
        self.vectors[conn.conn_id] = LocalVector()
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
        entry = self._entry(name)
        entry.registrants[conn.conn_id] = bit_index
        entry.seen[conn.conn_id] = entry.version
        self.vectors[conn.conn_id].set_valid(bit_index)
        self._dir.move_to_end(name)
        if entry.changed:
            self._changed.move_to_end(name)
        if entry.has_data:
            self.read_hits += 1
            return ("hit", entry.version)
        return ("miss", entry.version)

    def write_and_invalidate(self, conn: Connector, name: object,
                             store: bool = True, changed: bool = True) -> int:
        """Store an updated block; cross-invalidate other registrants.

        Returns the number of XI signals sent (the command's completion
        waits for them; the command wrapper adds the latency).
        """
        self._check()
        self.writes += 1
        entry = self._entry(name)
        # commands are atomic: secure storage BEFORE mutating anything, so
        # a CacheFullError rejects the command without side effects
        if store and not entry.has_data:
            self._make_room()
        entry.version += 1
        if store:
            if not entry.has_data:
                entry.has_data = True
                self._data_count += 1
            entry.changed = entry.changed or changed
        entry.seen[conn.conn_id] = entry.version
        self._dir.move_to_end(name)
        if entry.changed:
            self._changed[name] = None
            self._changed.move_to_end(name)

        # XI fan-out, flattened: every signal of one write leaves at the
        # same instant, so the facility's clock read, latency sum, and
        # method lookups are hoisted out of the loop.  Each signal still
        # schedules its own delivery event with the same target time the
        # per-signal ``facility.signal`` calls produced — byte-identical,
        # just without re-deriving the constants per registrant.
        n = 0
        my = conn.conn_id
        vectors = self.vectors
        seen = entry.seen
        fac = self.facility
        if fac is not None:
            sim = fac.sim
            deliver_at = sim.now + fac.config.signal_latency
            call_at = sim.call_at
            for cid, bit in list(entry.registrants.items()):
                if cid == my:
                    continue  # the writer's own copy is the current one
                vector = vectors.get(cid)
                del entry.registrants[cid]
                seen.pop(cid, None)
                if vector is not None:
                    fac.signals_sent += 1
                    call_at(deliver_at,
                            lambda v=vector, b=bit: v.invalidate(b))
                    n += 1
        else:
            for cid, bit in list(entry.registrants.items()):
                if cid == my:
                    continue
                vector = vectors.get(cid)
                del entry.registrants[cid]
                seen.pop(cid, None)
                if vector is not None:
                    vector.invalidate(bit)
                    n += 1
        self.xi_signals += n
        return n

    def prewarm_many(self, conn: Connector, names: Sequence[object],
                     bits: Sequence[int]) -> None:
        """Bulk :meth:`register_and_read` for benchmark prewarm.

        Registers ``names[i]`` at vector bit ``bits[i]`` for each ``i``
        (the two sequences have the same length).  Produces the exact
        final state and statistics of calling :meth:`register_and_read`
        once per pair (the returned hit/miss tuples are what prewarm
        discards anyway), with what does not vary per pair hoisted out of
        the loop: the vector grows once, ``reads`` is added once, and a
        newly created entry (already at the LRU tail, unchanged, no data)
        skips the LRU moves and the hit count.  Runs pre-simulation, so
        it must stay a plain state transform: no events, no clock reads.
        """
        self._check()
        if not names:
            return
        d = self._dir
        move_to_end = d.move_to_end
        changed_move = self._changed.move_to_end
        directory_entries = self.directory_entries
        cid = conn.conn_id
        vector = self.vectors[cid]
        vector._grow(max(bits))
        vbits = vector._bits
        hits = 0
        for name, bit in zip(names, bits):
            entry = d.get(name)
            if entry is None:
                if len(d) >= directory_entries:
                    self._reclaim_directory()
                entry = d[name] = _DirEntry()
            else:
                move_to_end(name)
                if entry.changed:
                    changed_move(name)
                if entry.has_data:
                    hits += 1
            entry.registrants[cid] = bit
            entry.seen[cid] = entry.version
            vbits[bit] = True
        self.reads += len(names)
        self.read_hits += hits

    def unregister(self, conn: Connector, name: object) -> None:
        """Drop interest (buffer stolen locally for reuse)."""
        self._check()
        entry = self._dir.get(name)
        if entry is None:
            return
        entry.registrants.pop(conn.conn_id, None)
        entry.seen.pop(conn.conn_id, None)

    # -- castout ---------------------------------------------------------------
    def changed_blocks(self, limit: int = 64) -> List[object]:
        """Names of changed blocks awaiting castout (oldest first)."""
        out = []
        for name in self._changed:
            out.append(name)
            if len(out) >= limit:
                break
        return out

    def castout(self, name: object) -> Optional[int]:
        """Read a changed block for castout; returns its version or None."""
        self._check()
        entry = self._dir.get(name)
        if entry is None or not entry.changed:
            return None
        return entry.version

    def castout_complete(self, name: object, version: int) -> None:
        """DASD write done: clear changed if no newer write intervened."""
        self._check()
        entry = self._dir.get(name)
        if entry is not None and entry.version == version:
            entry.changed = False
            self._changed.pop(name, None)
            self.castouts += 1

    # -- storage management ---------------------------------------------------------
    def _entry(self, name: object) -> _DirEntry:
        entry = self._dir.get(name)
        if entry is None:
            if len(self._dir) >= self.directory_entries:
                self._reclaim_directory()
            entry = self._dir[name] = _DirEntry()
        return entry

    def _make_room(self) -> None:
        if self._data_count < self.data_elements:
            return
        # evict least-recently-used *unchanged* data element
        for name, entry in self._dir.items():
            if entry.has_data and not entry.changed:
                entry.has_data = False
                self._data_count -= 1
                return
        raise CacheFullError(self.name)

    def _reclaim_directory(self) -> None:
        """Steal the LRU dataless directory entry, invalidating registrants."""
        for name, entry in self._dir.items():
            if entry.has_data:
                continue
            for cid, bit in entry.registrants.items():
                vector = self.vectors.get(cid)
                if vector is not None:
                    if self.facility is not None:
                        self.facility.signal(
                            lambda v=vector, b=bit: v.invalidate(b))
                    else:
                        vector.invalidate(bit)
                    self.xi_signals += 1
            del self._dir[name]
            self.reclaims += 1
            return
        raise CacheFullError(f"{self.name}: directory full of changed data")

    # -- cleanup / introspection -------------------------------------------------------
    def _purge_connector(self, conn: Connector) -> None:
        for entry in self._dir.values():
            entry.registrants.pop(conn.conn_id, None)
            entry.seen.pop(conn.conn_id, None)
        self.vectors.pop(conn.conn_id, None)

    def version_of(self, name: object) -> int:
        entry = self._dir.get(name)
        return entry.version if entry else 0

    def has_data(self, name: object) -> bool:
        """Whether a read of ``name`` would hit CF storage (cost model:
        the response only carries a data block when one is cached)."""
        entry = self._dir.get(name)
        return bool(entry and entry.has_data)

    def is_registered(self, conn: Connector, name: object) -> bool:
        entry = self._dir.get(name)
        return bool(entry and conn.conn_id in entry.registrants)

    def check_coherency(self) -> None:
        """Invariant: a valid local bit implies the holder saw the latest
        version.  Raises AssertionError on violation (used by tests)."""
        for name, entry in self._dir.items():
            for cid, bit in entry.registrants.items():
                vector = self.vectors.get(cid)
                if vector is None or bit >= len(vector._bits):
                    continue
                if vector._bits[bit] and entry.seen.get(cid) is not None:
                    assert entry.seen[cid] == entry.version, (
                        f"{name}: conn {cid} valid at stale version "
                        f"{entry.seen[cid]} != {entry.version}"
                    )

    @property
    def data_in_use(self) -> int:
        return self._data_count

    # -- duplexing -------------------------------------------------------------
    def clone_state_from(self, other: "CacheStructure") -> None:
        """Copy the peer's directory + changed-set (re-duplexing).

        Vectors are *not* cloned — the wiring layer points this
        instance's ``vectors`` at the connectors' shared per-system
        vectors, which already reflect the directory being copied.
        """
        self._dir = OrderedDict()
        for name, entry in other._dir.items():
            mine = self._dir[name] = _DirEntry()
            mine.registrants = dict(entry.registrants)
            mine.version = entry.version
            mine.has_data = entry.has_data
            mine.changed = entry.changed
            mine.seen = dict(entry.seen)
        self._changed = OrderedDict((name, None) for name in other._changed)
        self._data_count = other._data_count

    def state_units(self) -> int:
        """Size metric for the re-duplex state copy cost."""
        return len(self._dir)

    def duplex_state(self) -> object:
        """Directory state in canonical comparable form.

        Covers exactly what the duplexed-write protocol mirrors: the
        directory (registrants, versions, data presence, changed bits,
        seen versions) in LRU order.  Local bit vectors are *excluded* —
        a duplexed pair shares the connectors' real vectors, so they are
        not per-instance state.
        """
        return (
            "cache",
            [
                (str(name), dict(e.registrants), e.version, e.has_data,
                 e.changed, dict(e.seen))
                for name, e in self._dir.items()
            ],
            [str(n) for n in self._changed],
        )
