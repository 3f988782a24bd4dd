"""Shared-nothing (data-partitioning) cluster: the paper's counterpoint.

§2.3: "In a data-partitioning system, the database and the workload are
divided among the set of parallel processing nodes so that each system has
sole responsibility for workload access and update to a defined portion
of the database."  No coupling facility, no cross-system locks — but:

* a transaction touching remote data pays **function shipping** (an XCF-
  class message round trip plus CPU at both ends per remote call);
* multi-partition transactions commit with **two-phase commit** (extra
  log forces and message rounds);
* capacity must be *tuned* to match each partition's demand: when demand
  spikes on one partition, that owner saturates while peers idle
  (EXP-BAL measures exactly this);
* adding a system requires **repartitioning** — an outage window
  proportional to the data moved (EXP-GROW), versus the sysplex's
  non-disruptive growth.

Transactions are routed to the partition owning their first page (the
"home" the system was tuned for); their accesses are executed locally or
function-shipped.  The cluster skeleton (construction, admission, the
deadlock-retry loop and its abort path, accounting, the measured window)
is :class:`~repro.baselines.cluster.Cluster`'s; this module adds the
owner map, function shipping, two-phase commit and repartitioning.
"""

from __future__ import annotations

from typing import Dict, Generator

from ..cf.lock import LockMode
from ..hardware.cpu import SystemDown
from ..hardware.system import SystemNode
from ..subsystems.buffermgr import BufferManager
from .cluster import Cluster, Member

__all__ = ["PartitionedCluster"]


class PartitionedCluster(Cluster):
    """A shared-nothing cluster with the same hardware as a sysplex."""

    def __init__(self, config):
        super().__init__(config)
        self.n_partitions = config.n_systems
        self.remote_calls = 0
        self.two_phase_commits = 0
        self.repartition_until = 0.0

    def _new_node(self, index: int) -> SystemNode:
        return SystemNode(self.sim, self.config, index,
                          tod=self.timer.attach())

    def _new_pool(self, node: SystemNode) -> BufferManager:
        return BufferManager(self.sim, node, self.config.db, self.farm,
                             xes=None)

    def _build_system(self, index: int) -> Member:
        member = super()._build_system(index)
        self.sim.process(self._deferred_writer(member),
                         name=f"dwq-{member.node.name}")
        return member

    def _deferred_writer(self, member: Member):
        while member.node.alive:
            yield self.sim.timeout(0.05)
            yield from member.buffers.flush_deferred(limit=128)

    # -- partition map -----------------------------------------------------------
    def owner_of(self, page: int) -> int:
        """Range partitioning over the permuted page space."""
        return min(page * self.n_partitions // self.config.db.n_pages,
                   self.n_partitions - 1)

    # -- transactions -----------------------------------------------------------------
    def route(self, txn) -> None:
        if self.sim.now < self.repartition_until:
            self.failed_txns += 1  # database offline for repartitioning
            return
        super().route(txn)  # a dead owner's partition is unavailable

    def _home(self, txn) -> int:
        return self.owner_of((txn.writes or txn.reads)[0])

    def _access(self, coord: int, owner_key, page: int, mode: str,
                participants: set) -> Generator:
        owner = self.owner_of(page)
        if owner == coord:
            yield from self._local_access(owner, owner_key, page, mode)
            return
        # function shipping: request message, remote execution, reply
        xcfg = self.config.xcf
        participants.add(owner)
        self.remote_calls += 1
        if not self.nodes[owner].alive:
            raise SystemDown(self.nodes[owner].name)
        ccpu = self.nodes[coord].cpu
        ocpu = self.nodes[owner].cpu
        yield from ccpu.consume(xcfg.message_cpu)
        yield self.sim.timeout(xcfg.message_latency)
        yield from ocpu.consume(xcfg.message_cpu)
        yield from self._local_access(owner, owner_key, page, mode)
        yield from ocpu.consume(xcfg.message_cpu)
        yield self.sim.timeout(xcfg.message_latency)
        yield from ccpu.consume(xcfg.message_cpu)

    def _read_page(self, member: Member, page: int, mode: str) -> Generator:
        yield from member.buffers.get_page(page)
        if mode == LockMode.EXCL:
            member.buffers.mark_dirty(page)

    def _commit(self, coord: int, owner_key, txn, participants: set
                ) -> Generator:
        xcfg = self.config.xcf
        cmember = self.members[coord]
        ccpu = cmember.node.cpu
        others = sorted(participants - {coord})
        if others:
            # two-phase commit: prepare round (each participant forces its
            # log), then the coordinator's decision force, then commits
            self.two_phase_commits += 1
            for p in others:
                yield from ccpu.consume(xcfg.message_cpu)
                yield self.sim.timeout(xcfg.message_latency)
                pmember = self.members[p]
                yield from pmember.node.cpu.consume(xcfg.message_cpu)
                yield from pmember.log.force()
                yield self.sim.timeout(xcfg.message_latency)
                yield from ccpu.consume(xcfg.message_cpu)
        yield from cmember.log.force()
        for p in others:  # commit messages (participants ack lazily)
            yield from ccpu.consume(xcfg.message_cpu)
        # release locks everywhere
        yield from self._release(owner_key, participants)

    # -- growth: repartitioning outage (EXP-GROW) -------------------------------------
    def add_system(self, page_move_time: float = 0.2e-3) -> float:
        """Add a node; the database is offline while data is rebalanced.

        Returns the repartition window length.  Each of the new system's
        pages must be read from and rewritten to DASD; devices work in
        parallel, so the window is pages_moved x per-page time / devices.
        """
        self._build_system(len(self.nodes))
        self.n_partitions = len(self.nodes)
        pages_moved = self.config.db.n_pages // self.n_partitions
        window = pages_moved * page_move_time / max(1, self.config.n_dasd / 4)
        self.repartition_until = self.sim.now + window
        return window

    def _extras(self) -> Dict[str, float]:
        return {
            "remote_calls": float(self.remote_calls),
            "two_phase_commits": float(self.two_phase_commits),
            "failed": float(self.failed_txns),
            **super()._extras(),
        }
