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
from ..simkernel import Event, Simulator
from .buffermgr import PAGE_BYTES, BufferManager
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

        if tr is None:
            # Untraced mainline, flattened: the two CPU lumps, the log
            # force, and the page externalization run in THIS generator
            # frame instead of through cpu.consume / commit / log.force /
            # commit_writes delegation (four frames entered and resumed on
            # every event of the hottest path in the simulator).  Event
            # schedule, float arithmetic, and statistics are identical to
            # the composed form — the traced branch below and
            # :meth:`commit` keep the composed original.
            sim = self.sim
            cpu = self.node.cpu
            buffers = self.buffers
            locks = self.locks
            log = self.log
            engines = cpu.engines
            if half_cpu > 0:  # cpu.consume(half_cpu), flattened
                req = None
                if not (cpu.collapse and engines.claim()):
                    req = engines.request()
                try:
                    if req is not None:
                        yield req
                    if cpu.offline:
                        raise SystemDown(cpu.name)
                    burn = half_cpu * cpu._inflation / cpu._speed
                    cpu.busy_seconds += burn
                    yield sim.timeout(burn)
                finally:
                    if req is None:
                        engines.unclaim()
                    else:
                        req.cancel()
            for page in reads:
                if page in write_set:
                    continue  # will be locked EXCL below
                self._check_alive()
                yield from locks.lock(owner, page, LockMode.SHR)
                # clean local hit: vector-bit test only, no generator
                if buffers.try_get_local(page) is None:
                    yield from buffers.get_page(page)
            for page in writes:
                self._check_alive()
                yield from locks.lock(owner, page, LockMode.EXCL)
                if buffers.try_get_local(page) is None:
                    yield from buffers.get_page(page)
                buffers.mark_dirty(page)
                log.log_update(owner, page)
            self._check_alive()
            if half_cpu > 0:  # cpu.consume(half_cpu), flattened
                req = None
                if not (cpu.collapse and engines.claim()):
                    req = engines.request()
                try:
                    if req is not None:
                        yield req
                    if cpu.offline:
                        raise SystemDown(cpu.name)
                    burn = half_cpu * cpu._inflation / cpu._speed
                    cpu.busy_seconds += burn
                    yield sim.timeout(burn)
                finally:
                    if req is None:
                        engines.unclaim()
                    else:
                        req.cancel()
            # -- commit(owner, writes), flattened ---------------------------
            self._check_alive()
            # log.force(): force CPU, then join the group commit
            force_cpu = self.config.log_force_cpu
            if force_cpu > 0:
                req = None
                if not (cpu.collapse and engines.claim()):
                    req = engines.request()
                try:
                    if req is not None:
                        yield req
                    if cpu.offline:
                        raise SystemDown(cpu.name)
                    burn = force_cpu * cpu._inflation / cpu._speed
                    cpu.busy_seconds += burn
                    yield sim.timeout(burn)
                finally:
                    if req is None:
                        engines.unclaim()
                    else:
                        req.cancel()
            ev = Event(sim)
            log._pending.append(ev)
            if not log._flushing:
                log._flushing = True
                sim.process(log._flush_loop(), name="log-flush")
            yield ev
            # buffers.commit_writes(writes): externalize changed pages
            dirty = buffers._dirty
            xes = buffers.xes
            if xes is not None and getattr(xes, "pair", None) is not None:
                # duplexed structure: the write must run the duplexed-write
                # protocol (mirror to the secondary), so take the
                # connection-level path instead of the flattened port call
                for page in writes:
                    if page not in dirty:
                        continue
                    yield from xes.sync(
                        lambda p=page: xes.structure.write_and_invalidate(
                            xes.connector, p),
                        mirror=lambda s, c, p=page: s.write_and_invalidate(
                            c, p),
                        out_bytes=PAGE_BYTES,
                        data=True,
                        signal_wait=True,
                    )
                    buffers.pages_written += 1
                    buffers.mark_clean(page)
            elif xes is not None:
                cache = xes.structure
                conn = xes.connector
                sync = xes.port.sync
                for page in writes:
                    if page not in dirty:
                        continue
                    yield from sync(
                        lambda p=page: cache.write_and_invalidate(conn, p),
                        out_bytes=PAGE_BYTES,
                        data=True,
                        signal_wait=True,
                    )
                    buffers.pages_written += 1
                    buffers.mark_clean(page)
            log.log_end(owner)
            yield from locks.unlock_all(owner)
            self.commits += 1
            return

        # traced variant: identical control flow with each lifecycle stage
        # wrapped in a span (lock / coherency / cpu / commit)
        yield from tr.traced("cpu", self.node.cpu.consume(half_cpu))
        for page in reads:
            if page in write_set:
                continue  # will be locked EXCL below
            self._check_alive()
            yield from tr.traced(
                "lock", self.locks.lock(owner, page, LockMode.SHR)
            )
            yield from tr.traced("coherency", self.buffers.get_page(page))
        for page in writes:
            self._check_alive()
            yield from tr.traced(
                "lock", self.locks.lock(owner, page, LockMode.EXCL)
            )
            yield from tr.traced("coherency", self.buffers.get_page(page))
            self.buffers.mark_dirty(page)
            self.log.log_update(owner, page)
        self._check_alive()
        yield from tr.traced("cpu", self.node.cpu.consume(half_cpu))
        yield from tr.traced("commit", self.commit(owner, writes))

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
