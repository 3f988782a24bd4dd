"""Message-broadcast data sharing: coupling without a Coupling Facility.

The strawman the paper's §3.3 opens with: data-sharing clusters
historically showed "poor performance and rapidly-diminishing scalability"
because (1) lock grant/release required **inter-system communication
traffic** and (2) buffer coherency required **broadcast messages to other
nodes to perform buffer invalidation**.

This baseline implements exactly that design on the same hardware:

* locks are mastered by hashing resources across systems (a distributed
  lock manager à la VAXcluster): a request whose master is remote costs a
  full message round trip — *hundreds of microseconds and CPU at both
  ends* — versus the CF's spin-synchronous microseconds;
* every committed page update broadcasts an invalidation message to every
  other system and waits for acknowledgements, so write cost grows O(N);
* there is no global cache: a system whose buffer was invalidated
  re-reads from DASD.

EXP-COHER sweeps system count against per-transaction overhead for this
cluster versus the CF-based sysplex.  The cluster skeleton (construction,
admission, the deadlock-retry loop, accounting, the measured window) is
:class:`~repro.baselines.cluster.Cluster`'s; this module adds the message
lock port, the version-checked pool and the invalidation broadcast.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator

from ..hardware.system import SystemNode
from ..subsystems.lockmgr import LocalLockPort
from .cluster import Cluster, Member

__all__ = ["BroadcastCluster"]


class _MessageLockPort(LocalLockPort):
    """Lock-manager transport where remote-mastered requests pay messaging."""

    bare_latch = False  # every request goes through :meth:`sync`

    def __init__(self, node: SystemNode, cluster: "BroadcastCluster"):
        super().__init__(node)
        self.cluster = cluster

    def sync(self, op, **kw):
        # which system masters this resource is decided by the cluster;
        # the lock manager calls us once per request/release
        cost = self.cluster.lock_transport_cost(self.node)
        if cost > 0:
            yield from self.node.cpu.consume(self.cluster.config.xcf.message_cpu)
            yield self.node.sim.timeout(cost)
        # the master's latch, local or remote
        return (yield from super().sync(op))


class _VersionPool:
    """A system's local pool: page -> the version it last read, with
    first-in first-out replacement and no second-level cache."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.seen: Dict[int, int] = {}
        self.order: Deque[int] = deque()

    def prewarm(self, pages) -> None:
        for page in pages:
            self.seen[page] = 0
            self.order.append(page)

    def install(self, page: int, version: int) -> None:
        """Record a read of ``page`` at ``version``, evicting the oldest
        read when the pool is full."""
        if page not in self.seen:
            if len(self.seen) >= self.capacity:
                self.seen.pop(self.order.popleft(), None)
            self.order.append(page)
        self.seen[page] = version


class BroadcastCluster(Cluster):
    """Data sharing via messages only (no CF)."""

    def __init__(self, config):
        super().__init__(config)
        #: page -> version, the ground truth each system compares against
        self._page_version: Dict[int, int] = {}
        self._rng = self.streams.stream("lockmaster")
        self.invalidation_messages = 0
        self.remote_lock_requests = 0

    def _lock_port(self, node: SystemNode):
        return _MessageLockPort(node, self)

    def _new_pool(self, node: SystemNode) -> _VersionPool:
        return _VersionPool(self.config.db.buffer_pages)

    # -- lock transport cost ------------------------------------------------------
    def lock_transport_cost(self, node: SystemNode) -> float:
        """Remote-master probability (N-1)/N; cost = 2x message latency."""
        n = len(self.nodes)
        if n <= 1:
            return 0.0
        if self._rng.random() < (n - 1) / n:
            self.remote_lock_requests += 1
            return 2 * self.config.xcf.message_latency
        return 0.0

    # -- buffer model -----------------------------------------------------------------
    def _read_page(self, member: Member, page: int, mode: str) -> Generator:
        current = self._page_version.get(page, 0)
        if member.buffers.seen.get(page) == current:
            return  # valid local copy
        # invalid or absent: DASD re-read (no second-level cache here)
        yield from self.farm.read_page(page)
        member.buffers.install(page, current)

    def _write_page(self, member: Member, page: int) -> Generator:
        """Commit-time update: bump version, broadcast invalidations."""
        version = self._page_version.get(page, 0) + 1
        self._page_version[page] = version
        member.buffers.install(page, version)
        xcfg = self.config.xcf
        node = member.node
        targets = [m for m in self.members
                   if m.node is not node and m.node.alive]
        # sends are parallel but each costs sender CPU; each target pays
        # receive CPU; the writer waits one round trip for the slowest ack
        for target in targets:
            self.invalidation_messages += 1
            yield from node.cpu.consume(xcfg.message_cpu)
            self.sim.process(
                target.node.cpu.consume(xcfg.message_cpu),
                name="bcast-recv",
            )
        if targets:
            yield self.sim.timeout(2 * xcfg.message_latency)
            yield from node.cpu.consume(xcfg.message_cpu * len(targets) * 0.5)
        # write-through to DASD so peers re-read current data
        yield from self.farm.write_page(page)

    # -- transactions --------------------------------------------------------------
    def _home(self, txn) -> int:
        return txn.home % len(self.nodes)

    def _commit(self, index: int, owner_key, txn, participants) -> Generator:
        member = self.members[index]
        yield from member.log.force()
        for page in txn.writes:
            yield from self._write_page(member, page)
        yield from self._release(owner_key, participants)

    def _extras(self) -> Dict[str, float]:
        return {
            "invalidation_messages": float(self.invalidation_messages),
            "remote_lock_requests": float(self.remote_lock_requests),
            **super()._extras(),
        }
