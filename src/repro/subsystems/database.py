"""The record database manager: DB2/IMS-DB stand-in.

One :class:`DatabaseManager` instance runs per system, all of them sharing
the same database pages on shared DASD.  Strict two-phase locking through
the global lock manager, buffer coherency through the buffer manager, and
write-ahead logging with group commit — the exact subsystem shape the
paper's Figure 2 draws (LOCKS + DATA BUFFERS per system, coordinated
through the Coupling Facility).

Execution API: ``execute(txn_id, reads, writes)`` runs the data-access
portion of one transaction and commits it.  DeadlockAbort propagates to
the caller (the transaction manager owns retry policy).
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List, Tuple

from ..cf.lock import LockMode
from ..config import DatabaseConfig
from ..hardware.cpu import SystemDown
from ..simkernel import Simulator
from ..trace import traced
from .buffermgr import BufferManager
from .lockmgr import DeadlockAbort, LockManager
from .logmgr import LogManager

__all__ = ["DatabaseManager"]

#: CPU spent undoing one update during transaction abort
UNDO_CPU_PER_PAGE = 40e-6


class DatabaseManager:
    """One system's database-manager instance."""

    def __init__(self, sim: Simulator, node, config: DatabaseConfig,
                 lockmgr: LockManager, bufmgr: BufferManager,
                 logmgr: LogManager, trace=None):
        self.sim = sim
        self.node = node
        self.config = config
        self.locks = lockmgr
        self.buffers = bufmgr
        self.log = logmgr
        self.trace = trace  # Tracer or None (zero-cost when disabled)
        self.alive = True
        self.commits = 0
        self.aborts = 0

    @property
    def system_name(self) -> str:
        return self.node.name

    # -- transaction execution ----------------------------------------------
    def execute(self, txn_id: object, reads: Iterable[object],
                writes: Iterable[object]) -> Generator:
        """Process step: data access + commit for one transaction.

        The caller provides page lists; application CPU is the caller's
        business (the transaction manager interleaves it).  Raises
        :class:`DeadlockAbort` — the caller must then call :meth:`abort`.
        """
        owner = (self.system_name, txn_id)
        reads = list(reads)
        writes = list(writes)
        write_set = set(writes)

        # database-call path length, burned in two lumps to keep the event
        # count linear in transactions rather than in database calls
        calls = len(reads) + len(writes)
        half_cpu = 0.5 * calls * self.config.db_call_cpu
        tr = self.trace
        cpu = self.node.cpu
        locks = self.locks
        buffers = self.buffers
        yield from traced(tr, "cpu", cpu.consume(half_cpu))
        for page in reads:
            if page in write_set:
                continue  # will be locked EXCL below
            self._check_alive()
            yield from traced(tr, "lock",
                              locks.lock(owner, page, LockMode.SHR))
            # clean local hit: vector-bit test only, no generator
            if buffers.try_get_local(page) is None:
                yield from traced(tr, "coherency", buffers.get_page(page))
        for page in writes:
            self._check_alive()
            yield from traced(tr, "lock",
                              locks.lock(owner, page, LockMode.EXCL))
            if buffers.try_get_local(page) is None:
                yield from traced(tr, "coherency", buffers.get_page(page))
            buffers.mark_dirty(page)
            self.log.log_update(owner, page)
        self._check_alive()
        yield from traced(tr, "cpu", cpu.consume(half_cpu))
        yield from traced(tr, "commit", self.commit(owner, writes))

    def _check_alive(self) -> None:
        """A task that survived its instance's death (frozen across an
        outage, revived by a restart) must not touch the fresh stack's
        shared state through stale connections."""
        if not self.alive or not self.node.alive:
            raise SystemDown(self.system_name)

    def commit(self, owner: object, writes: List[object]) -> Generator:
        """Force the log, externalize pages, release locks."""
        self._check_alive()
        yield from self.log.force()
        yield from self.buffers.commit_writes(writes)
        self.log.log_end(owner)
        yield from self.locks.unlock_all(owner)
        self.commits += 1

    def abort(self, txn_id: object) -> Generator:
        """Undo a transaction after a deadlock abort."""
        owner = (self.system_name, txn_id)
        touched = self.log.in_flight.get(owner, [])
        if touched:
            yield from self.node.cpu.consume(UNDO_CPU_PER_PAGE * len(touched))
            for page in touched:
                # undo is a local buffer operation; the page stays dirty
                # and is externalized by the next committer / castout
                if self.buffers.contains(page):
                    self.buffers.mark_dirty(page)
        self.log.log_end(owner)
        yield from self.locks.unlock_all(owner)
        self.aborts += 1

    def abandon(self, txn_id: object) -> None:
        """Clean up a transaction that died with the CF unreachable:
        software lock holds and log bookkeeping are dropped locally (no
        CF commands are possible)."""
        owner = (self.system_name, txn_id)
        self.log.log_end(owner)
        self.locks.abandon(owner)

    # -- failure ---------------------------------------------------------------
    def fail(self) -> Tuple[Dict[object, str], Dict[object, List[object]]]:
        """The hosting system died.

        Returns (retained locks, in-flight transactions) — the inputs to
        peer recovery.
        """
        self.alive = False
        snapshot = self.log.crash_snapshot()
        retained = self.locks.fail_instance()
        return retained, snapshot
