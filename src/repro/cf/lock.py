"""CF lock structure: hardware-assisted global lock contention detection.

Semantics follow paper §3.3.1: software lock names hash onto a
program-specified number of **lock table entries**; the CF records shared
or exclusive *interest per connector* (i.e. per system's lock-manager
instance) on each entry.  A request whose mode is compatible with the
recorded interest of every *other* connector is granted synchronously; an
incompatible request gets back the identity of the holders so the
requester can negotiate selectively via messaging.

Because granularity is the hash class, two different resource names that
collide can conflict without any real lock conflict — **false contention**.
The structure classifies each contention as real or false (in hardware the
requester's lock manager discovers this during negotiation; we compute it
here and the lock-manager layer charges the corresponding costs), and
counts both so EXP-LOCK can sweep table size against false-contention
rate.

**Record data** entries model the persistent lock information used for
"fast lock recovery in the event of an MVS system failure while holding
lock resources" — they survive connector death and drive retained-lock
recovery.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .structure import Connector, Structure

__all__ = ["LockMode", "LockStructure", "GrantResult"]


class LockMode:
    SHR = "SHR"
    EXCL = "EXCL"


@dataclass
class GrantResult:
    """Outcome of one lock-table request."""

    granted: bool
    #: connector ids holding incompatible interest (empty when granted)
    holders: Tuple[int, ...] = ()
    #: True if some holder owns the *same resource name* incompatibly;
    #: False for pure hash-class (false) contention.
    real_conflict: bool = False
    #: lock table entry index the name hashed to (for diagnostics)
    entry: int = -1


class _Entry:
    """Book-keeping for one lock-table entry.

    ``holds[conn_id][name] = [shr_count, excl_count]`` — counts because one
    connector may hold the same name for many transactions (the global
    entry records the *system-level* union of interest).
    """

    __slots__ = ("holds",)

    def __init__(self):
        self.holds: Dict[int, Dict[object, list]] = {}


class LockStructure(Structure):
    model = "lock"

    def __init__(self, name: str, n_entries: int):
        if n_entries < 1:
            raise ValueError("lock table needs at least one entry")
        super().__init__(name)
        self.n_entries = n_entries
        self._table: Dict[int, _Entry] = {}  # sparse: only touched entries
        self._record: Dict[Tuple[int, object], dict] = {}  # persistent locks
        # statistics
        self.requests = 0
        self.grants = 0
        self.real_contention = 0
        self.false_contention = 0

    # -- hashing -----------------------------------------------------------
    def entry_of(self, lock_name: object) -> int:
        """Deterministic software hash of a lock name to a table entry."""
        return binascii.crc32(str(lock_name).encode()) % self.n_entries

    # -- mainline commands ----------------------------------------------------
    def request(self, conn: Connector, lock_name: object, mode: str) -> GrantResult:
        """Try to record ``mode`` interest for ``conn`` on ``lock_name``."""
        self._check()
        self.requests += 1
        idx = self.entry_of(lock_name)
        entry = self._table.get(idx)
        if entry is None:
            entry = self._table[idx] = _Entry()

        other_excl = other_shr = False
        holders: List[int] = []
        real = False
        for cid, names in entry.holds.items():
            if cid == conn.conn_id:
                continue
            has_excl = any(c[1] > 0 for c in names.values())
            has_shr = any(c[0] > 0 for c in names.values())
            incompatible = has_excl or (mode == LockMode.EXCL and has_shr)
            if incompatible:
                holders.append(cid)
                counts = names.get(lock_name)
                if counts is not None and (
                    counts[1] > 0 or (mode == LockMode.EXCL and counts[0] > 0)
                ):
                    real = True
            other_excl |= has_excl
            other_shr |= has_shr

        if other_excl or (mode == LockMode.EXCL and other_shr):
            if real:
                self.real_contention += 1
            else:
                self.false_contention += 1
            return GrantResult(False, tuple(holders), real, idx)

        self._record_interest(entry, conn.conn_id, lock_name, mode)
        self.grants += 1
        return GrantResult(True, (), False, idx)

    def force_record(self, conn: Connector, lock_name: object, mode: str) -> None:
        """Record interest after software negotiation resolved contention.

        Used when the lock managers have determined (via messaging) that an
        apparently incompatible hash class is actually grantable — false
        contention — or that a waiter has been handed the resource.  The
        entry then carries multiple connectors' interest and further
        requests against it keep falling into the negotiation path, which
        is exactly how a degraded (collided) hash class behaves.
        """
        self._check()
        idx = self.entry_of(lock_name)
        entry = self._table.get(idx)
        if entry is None:
            entry = self._table[idx] = _Entry()
        self._record_interest(entry, conn.conn_id, lock_name, mode)

    def _record_interest(self, entry: _Entry, cid: int, name: object, mode: str) -> None:
        names = entry.holds.setdefault(cid, {})
        counts = names.setdefault(name, [0, 0])
        counts[0 if mode == LockMode.SHR else 1] += 1

    def release(self, conn: Connector, lock_name: object, mode: str) -> None:
        """Drop one unit of recorded interest."""
        self._check()
        idx = self.entry_of(lock_name)
        entry = self._table.get(idx)
        if entry is None:
            return
        names = entry.holds.get(conn.conn_id)
        if not names or lock_name not in names:
            return
        counts = names[lock_name]
        slot = 0 if mode == LockMode.SHR else 1
        if counts[slot] > 0:
            counts[slot] -= 1
        if counts == [0, 0]:
            del names[lock_name]
        if not names:
            del entry.holds[conn.conn_id]
        if not entry.holds:
            del self._table[idx]

    # -- record data (persistent locks for recovery) -----------------------------
    def write_record(self, conn: Connector, lock_name: object, data: dict) -> None:
        """Persist lock info that survives the connector's system failing."""
        self._check()
        self._record[(conn.conn_id, lock_name)] = dict(data)

    def delete_record(self, conn: Connector, lock_name: object) -> None:
        self._check()
        self._record.pop((conn.conn_id, lock_name), None)

    def records_of(self, conn_id: int) -> Dict[object, dict]:
        """Recovery read: persistent locks recorded by a (dead) connector."""
        return {
            name: data
            for (cid, name), data in self._record.items()
            if cid == conn_id
        }

    def purge_records(self, conn_id: int) -> None:
        for key in [k for k in self._record if k[0] == conn_id]:
            del self._record[key]

    # -- connector cleanup ----------------------------------------------------------
    def _purge_connector(self, conn: Connector) -> None:
        """Normal disconnect: drop interest (record data is kept — that is
        the point of persistent locks)."""
        for idx in list(self._table):
            entry = self._table[idx]
            entry.holds.pop(conn.conn_id, None)
            if not entry.holds:
                del self._table[idx]

    # -- duplexing -------------------------------------------------------------------
    def clone_state_from(self, other: "LockStructure") -> None:
        """Copy the peer's interest table + record data (re-duplexing)."""
        self._table = {}
        for idx, entry in other._table.items():
            mine = self._table[idx] = _Entry()
            mine.holds = {
                cid: {name: list(counts) for name, counts in names.items()}
                for cid, names in entry.holds.items()
            }
        self._record = {key: dict(data) for key, data in other._record.items()}

    def state_units(self) -> int:
        """Size metric for the re-duplex state copy cost."""
        return len(self._table) + len(self._record)

    def duplex_state(self) -> object:
        """Interest table + record data, in canonical comparable form."""
        table = {
            idx: {
                cid: {str(name): list(counts) for name, counts in names.items()}
                for cid, names in entry.holds.items()
            }
            for idx, entry in self._table.items()
        }
        records = {
            (cid, str(name)): data for (cid, name), data in self._record.items()
        }
        return ("lock", table, records)

    # -- diagnostics ----------------------------------------------------------------
    def false_contention_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.false_contention / self.requests
