"""Peer recovery of a failed database-manager instance.

Paper §2.5: "Peer instances of a failing subsystem(s) executing on
remaining healthy systems can take over recovery responsibility for
resources held by the failing instance."  The recovery reads the failed
instance's log from shared DASD, redoes/undoes the in-flight work, reads
the persistent lock records out of the CF lock structure, and finally
releases the retained locks — at which point blocked work resumes.

The same module implements what an ARM-driven *restart* of the instance
runs on its new system; peer recovery and restart recovery share the
mechanism (who runs it differs).
"""

from __future__ import annotations

from typing import Generator, List

from ..config import ArmConfig
from ..simkernel import Simulator
from .database import DatabaseManager
from .lockmgr import LockSpace

__all__ = ["PeerRecovery"]


class PeerRecovery:
    """Coordinates takeover recovery for failed instances."""

    def __init__(self, sim: Simulator, config: ArmConfig, space: LockSpace):
        self.sim = sim
        self.config = config
        self.space = space
        self.recoveries: List[tuple] = []

    def recover(self, failed: DatabaseManager,
                recoverer: DatabaseManager) -> Generator:
        """Process step: full takeover recovery, run on the recoverer.

        Returns the number of retained locks released.
        """
        retained, in_flight = failed.fail() if failed.alive else (
            # fail() may already have run (partition hook ordering)
            {r: m for r, (s, m) in self.space.retained.items()
             if s == failed.system_name},
            failed.log.crash_snapshot(),
        )
        node = recoverer.node

        # 1. read the failed instance's log from shared DASD + replay
        yield from failed.log.device.io()
        yield from node.cpu.consume(self.config.log_replay_time * 0.1)
        yield self.sim.timeout(self.config.log_replay_time)

        # 2. read persistent lock records from the CF (one batched command);
        # there are none without data sharing, and if the CF died too
        # the log is the only source
        instances = failed.locks.xes.instances()
        in_cf = bool(instances) and not instances[0][0].lost
        if in_cf:
            conn_id = instances[0][1].conn_id
            records = yield from recoverer.locks.xes.sync(
                lambda s, c: s.records_of(conn_id),
                service_factor=max(1.0, 0.25 * max(1, len(retained))),
            )

        # 3. redo/undo each in-flight transaction's pages
        n_pages = sum(len(p) for p in in_flight.values())
        if n_pages:
            yield from node.cpu.consume(self.config.lock_recovery_each * n_pages)
        for owner in in_flight:
            failed.log.log_end(owner)

        # 4. release the retained locks and purge the CF records
        if in_cf:
            yield from recoverer.locks.xes.sync(
                lambda s, c: s.purge_records(conn_id), write=True,
                service_factor=max(1.0, 0.25 * max(1, len(records))),
            )
        released = self.space.clear_retained(failed.system_name)
        self.recoveries.append((self.sim.now, failed.system_name, len(released)))
        return len(released)
