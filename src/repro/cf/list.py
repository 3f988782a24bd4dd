"""CF list structure: multi-system queueing constructs.

Paper §3.3.3: a program-specified number of **list headers** hold entries
created dynamically, queued LIFO/FIFO or in collating sequence by key,
readable/deletable/movable **atomically** without software
serialization.  Optional **lock entries** support conditional command
execution (mainline commands run only while a given lock is free — the
recovery-quiesce protocol the paper describes).  Programs can register
interest in a header and receive a **list-transition signal** when it goes
empty → non-empty; like cache cross-invalidates, delivery costs the target
no CPU (a local vector bit is set and observed by polling).

Used by: VTAM generic resources, the JES spool, and shared work queues
for dynamic workload distribution.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .cache import LocalVector
from .structure import Connector, Structure

__all__ = ["ListStructure", "ListEntry", "LockHeldError"]


class LockHeldError(Exception):
    """A conditional command was rejected because the lock entry is held."""


_entry_seq = 0


@dataclass
class ListEntry:
    """One list entry: optional collating key plus an attached data block."""

    key: Any = None
    data: Any = None
    entry_id: int = field(default_factory=lambda: _next_entry_id())
    created_at: float = 0.0


def _next_entry_id() -> int:
    global _entry_seq
    _entry_seq += 1
    return _entry_seq


class _Header:
    __slots__ = ("entries", "monitors")

    def __init__(self):
        self.entries: List[ListEntry] = []
        # conn_id -> vector bit index to set on empty->non-empty transition
        self.monitors: Dict[int, int] = {}


class ListStructure(Structure):
    model = "list"

    def __init__(self, name: str, n_headers: int, n_locks: int = 0):
        if n_headers < 1:
            raise ValueError("need at least one list header")
        super().__init__(name)
        self.n_headers = n_headers
        self._headers = [_Header() for _ in range(n_headers)]
        self._locks: List[Optional[int]] = [None] * n_locks
        self.vectors: Dict[int, LocalVector] = {}
        self.transitions_signalled = 0
        self.total_entries = 0

    # -- connection -------------------------------------------------------
    def connect(self, system_name: str, on_loss=None, conn_id=None) -> Connector:
        conn = super().connect(system_name, on_loss, conn_id=conn_id)
        self.vectors[conn.conn_id] = LocalVector()
        return conn

    def vector_of(self, conn: Connector) -> LocalVector:
        return self.vectors[conn.conn_id]

    # -- lock entries (serialized lists) ---------------------------------------
    def lock_get(self, conn: Connector, lock_index: int) -> bool:
        """Try to acquire a lock entry; True on success."""
        self._check()
        if self._locks[lock_index] is None:
            self._locks[lock_index] = conn.conn_id
            return True
        return self._locks[lock_index] == conn.conn_id

    def _check_lock_free(self, unless_lock: Optional[int]) -> None:
        """Conditional execution: reject mainline cmd while lock is held."""
        if unless_lock is not None and self._locks[unless_lock] is not None:
            raise LockHeldError(f"lock {unless_lock} held")

    # -- mainline commands ----------------------------------------------------
    def push(self, conn: Connector, header: int, entry: ListEntry,
             where: str = "fifo", unless_lock: Optional[int] = None) -> None:
        """Queue an entry: 'fifo', 'lifo', or 'keyed' (collating by key)."""
        self._check()
        self._check_lock_free(unless_lock)
        h = self._headers[header]
        was_empty = not h.entries
        if where == "fifo":
            h.entries.append(entry)
        elif where == "lifo":
            h.entries.insert(0, entry)
        elif where == "keyed":
            keys = [e.key for e in h.entries]
            h.entries.insert(bisect.bisect_right(keys, entry.key), entry)
        else:
            raise ValueError(f"unknown queueing discipline {where!r}")
        self.total_entries += 1
        if was_empty and h.monitors:
            self._signal_transition(h)

    def pop(self, conn: Connector, header: int,
            unless_lock: Optional[int] = None) -> Optional[ListEntry]:
        """Atomically remove and return the head entry (None if empty)."""
        self._check()
        self._check_lock_free(unless_lock)
        h = self._headers[header]
        if not h.entries:
            return None
        self.total_entries -= 1
        return h.entries.pop(0)

    def read(self, header: int) -> List[ListEntry]:
        """Non-destructive read of a whole list (recovery scans)."""
        self._check()
        return list(self._headers[header].entries)

    def length(self, header: int) -> int:
        return len(self._headers[header].entries)

    def delete(self, conn: Connector, header: int, entry_id: int,
               unless_lock: Optional[int] = None) -> bool:
        """Atomically delete a specific entry; True if found."""
        self._check()
        self._check_lock_free(unless_lock)
        h = self._headers[header]
        for i, e in enumerate(h.entries):
            if e.entry_id == entry_id:
                del h.entries[i]
                self.total_entries -= 1
                return True
        return False

    def move(self, conn: Connector, src: int, dst: int, entry_id: int,
             where: str = "fifo", unless_lock: Optional[int] = None) -> bool:
        """Atomically move an entry between headers (no serialization
        needed by the caller — the CF command is atomic)."""
        self._check()
        self._check_lock_free(unless_lock)
        h = self._headers[src]
        for i, e in enumerate(h.entries):
            if e.entry_id == entry_id:
                del h.entries[i]
                self.total_entries -= 1  # push() re-adds
                self.push(conn, dst, e, where)
                return True
        return False

    # -- monitoring -----------------------------------------------------------
    def register_monitor(self, conn: Connector, header: int, bit_index: int) -> None:
        """Watch a header for empty→non-empty transitions."""
        self._check()
        h = self._headers[header]
        h.monitors[conn.conn_id] = bit_index
        # if already non-empty, the bit reflects that immediately
        if h.entries:
            self.vectors[conn.conn_id].set_valid(bit_index)

    def _signal_transition(self, h: _Header) -> None:
        for cid, bit in h.monitors.items():
            vector = self.vectors.get(cid)
            if vector is None:
                continue
            if self.facility is not None:
                self.facility.signal(lambda v=vector, b=bit: v.set_valid(b))
            else:
                vector.set_valid(bit)
            self.transitions_signalled += 1

    def clear_monitor_bit(self, conn: Connector, bit_index: int) -> None:
        """Polling program observed the transition and resets its bit."""
        self.vectors[conn.conn_id].invalidate(bit_index)

    # -- duplexing ------------------------------------------------------------
    def clone_state_from(self, other: "ListStructure") -> None:
        """Adopt the peer's queue contents (re-duplexing).

        Shares the peer's :class:`ListEntry` objects — the duplexed-write
        protocol pushes the same objects to both instances, so sharing at
        clone time keeps entry ids (and later in-place ``update``\\ s)
        identical on both sides.
        """
        self._headers = []
        for h in other._headers:
            mine = _Header()
            mine.entries = list(h.entries)
            mine.monitors = dict(h.monitors)
            self._headers.append(mine)
        self._locks = list(other._locks)
        self.total_entries = other.total_entries

    def state_units(self) -> int:
        """Size metric for the re-duplex state copy cost."""
        return self.total_entries + len(self._headers)

    def duplex_state(self) -> object:
        """Queue contents + lock entries + monitor interest, comparable.

        A duplexed pair pushes the *same* :class:`ListEntry` objects to
        both instances, so entry ids compare directly; vectors are the
        shared per-system ones and excluded.
        """
        return (
            "list",
            [
                ([(e.entry_id, str(e.key), str(e.data)) for e in h.entries],
                 dict(h.monitors))
                for h in self._headers
            ],
            list(self._locks),
        )

    # -- cleanup --------------------------------------------------------------
    def _purge_connector(self, conn: Connector) -> None:
        for h in self._headers:
            h.monitors.pop(conn.conn_id, None)
        for i, holder in enumerate(self._locks):
            if holder == conn.conn_id:
                self._locks[i] = None
        self.vectors.pop(conn.conn_id, None)
