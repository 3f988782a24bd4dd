"""The cluster skeleton both baselines share.

A baseline runs the sysplex's systems, shared DASD, WLM and lock space
with no coupling facility.  :class:`Cluster` builds them, one
:class:`Member` stack per system, and owns what every baseline does
alike: admission, the two-phase-locking transaction body, the
``MAX_RETRIES`` deadlock-retry loop with one abort path over every
system a transaction touched, failed/completed accounting and the
measured :class:`~repro.metrics.Window`.  A baseline fills in the
home system, the pool, the page read and the commit, and may replace
the lock transport and how an access travels.

A cluster runs on a plain ``Simulator()``, which never collapses: the
execution profile is a sysplex option, and baseline payloads are the
same under either profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set

from ..cf.lock import LockMode
from ..config import SysplexConfig
from ..hardware.cpu import SystemDown
from ..hardware.dasd import DasdDevice, DasdFarm
from ..hardware.system import SystemNode
from ..hardware.timer import SysplexTimer
from ..metrics import RunResult, Window
from ..mvs.wlm import WorkloadManager
from ..simkernel import MetricSet, RandomStreams, Resource, Simulator
from ..subsystems.database import UNDO_CPU_PER_PAGE
from ..subsystems.lockmgr import (
    DeadlockAbort,
    DeadlockDetector,
    LocalLockPort,
    LockManager,
    LockSpace,
    RetainedLockReject,
)
from ..subsystems.logmgr import LogManager

__all__ = ["Cluster", "Member", "MAX_RETRIES"]

#: attempts a transaction makes before a deadlock run counts it failed
MAX_RETRIES = 10


@dataclass
class Member:
    """One system's stack in a baseline cluster."""

    node: SystemNode
    locks: LockManager
    log: LogManager
    #: the system's task slots (32 per engine, as a sysplex TM has)
    tasks: Resource
    #: the system's buffer pool; each baseline brings its own kind
    buffers: object


class Cluster:
    """A coupled cluster of systems with no coupling facility."""

    def __init__(self, config: SysplexConfig):
        self.config = config
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.metrics = MetricSet(self.sim)
        #: the common time reference; only clusters that stamp with it
        #: attach TOD clocks (see :meth:`_new_node`)
        self.timer = SysplexTimer(self.sim)
        self.farm = DasdFarm(self.sim, config.dasd,
                             self.streams.stream("dasd"),
                             n_devices=config.n_dasd)
        self.wlm = WorkloadManager(self.sim, config.wlm,
                                   self.streams.stream("wlm"))
        self.lock_space = LockSpace(self.sim)
        self.deadlocks = DeadlockDetector(self.sim, self.lock_space,
                                          interval=config.db.deadlock_interval)
        self.nodes: List[SystemNode] = []
        self.members: List[Member] = []
        self.completed = 0
        self.failed_txns = 0
        self.deadlock_retries = 0
        for i in range(config.n_systems):
            self._build_system(i)
        self._window = Window(self.sim, self.metrics, self.nodes)

    # -- construction -------------------------------------------------------------
    def _build_system(self, index: int) -> Member:
        cfg = self.config
        node = self._new_node(index)
        self.nodes.append(node)
        log_dev = DasdDevice(self.sim, cfg.dasd,
                             self.streams.stream(f"log-{node.name}"),
                             name=f"log-{node.name}")
        member = Member(
            node=node,
            locks=LockManager(self.sim, self.lock_space,
                              self._lock_port(node), cfg.xcf, node.name),
            log=LogManager(self.sim, node, cfg.db, log_dev),
            tasks=Resource(self.sim, capacity=32 * cfg.cpu.n_cpus),
            buffers=self._new_pool(node),
        )
        self.members.append(member)
        self.wlm.watch(node)
        return member

    def _new_node(self, index: int) -> SystemNode:
        return SystemNode(self.sim, self.config, index)

    def _lock_port(self, node: SystemNode):
        """The lock manager's transport: the local latch by default."""
        return LocalLockPort(node)

    def _new_pool(self, node: SystemNode):
        raise NotImplementedError

    def prewarm(self, pages, index: Optional[int] = None) -> None:
        """Seed buffer pools with ``pages`` at zero simulated cost: every
        member's, or only member ``index``'s (benchmark setup)."""
        members = self.members if index is None else [self.members[index]]
        for member in members:
            member.buffers.prewarm(pages)

    # -- transactions ---------------------------------------------------------------
    def route(self, txn) -> None:
        """Admit ``txn`` on its home system (``SysplexRouter.route``'s
        interface); a dead home loses it."""
        index = self._home(txn)
        if not self.nodes[index].alive:
            self.failed_txns += 1
            return
        self.sim.process(self._run(txn, index), name=f"txn-{txn.txn_id}")

    def _home(self, txn) -> int:
        raise NotImplementedError

    def _run(self, txn, index: int) -> Generator:
        member = self.members[index]
        rng = self.streams.stream(f"retry-{index}")
        req = member.tasks.request()
        try:
            yield req
            node = member.node
            app_half = 0.5 * self.config.oltp.app_cpu
            owner_key = (node.name, txn.txn_id)
            try:
                for _attempt in range(MAX_RETRIES):
                    participants = {index}
                    try:
                        yield from node.cpu.consume(app_half)
                        for page in txn.reads:
                            yield from self._access(
                                index, owner_key, page, LockMode.SHR,
                                participants)
                        for page in txn.writes:
                            yield from self._access(
                                index, owner_key, page, LockMode.EXCL,
                                participants)
                        yield from node.cpu.consume(app_half)
                        yield from self._commit(index, owner_key, txn,
                                                participants)
                        break
                    except DeadlockAbort:
                        self.deadlock_retries += 1
                        yield from self._release(owner_key, participants,
                                                 undo=True)
                        yield self.sim.timeout(float(rng.exponential(2e-3)))
                else:
                    self.failed_txns += 1
                    return
            except (SystemDown, RetainedLockReject):
                self.failed_txns += 1
                return
            rt = self.sim.now - txn.arrival
            self.completed += 1
            self.metrics.counter("txn.completed").add()
            self.metrics.tally("txn.response").record(rt)
            self.wlm.record_response(txn.service_class, rt)
            if txn.done is not None and not txn.done.triggered:
                txn.done.succeed(rt)
        finally:
            req.cancel()

    def _access(self, index: int, owner_key, page: int, mode: str,
                participants: Set[int]) -> Generator:
        """One page access by a transaction homed on member ``index``."""
        yield from self._local_access(index, owner_key, page, mode)

    def _local_access(self, index: int, owner_key, page: int,
                      mode: str) -> Generator:
        member = self.members[index]
        yield from member.locks.lock(owner_key, page, mode)
        yield from member.node.cpu.consume(self.config.db.db_call_cpu)
        yield from self._read_page(member, page, mode)
        if mode == LockMode.EXCL:
            member.log.log_update(owner_key, page)

    def _read_page(self, member: Member, page: int, mode: str) -> Generator:
        raise NotImplementedError

    def _commit(self, index: int, owner_key, txn,
                participants: Set[int]) -> Generator:
        raise NotImplementedError

    def _release(self, owner_key, participants: Set[int],
                 undo: bool = False) -> Generator:
        """End the unit of work at every participant: ``undo`` backs out
        its logged updates first (the abort path), then the log entry
        closes and every lock goes."""
        for p in sorted(participants):
            member = self.members[p]
            if undo:
                touched = member.log.in_flight.get(owner_key, [])
                if touched:
                    yield from member.node.cpu.consume(
                        UNDO_CPU_PER_PAGE * len(touched))
            member.log.log_end(owner_key)
            yield from member.locks.unlock_all(owner_key)

    # -- measurement -----------------------------------------------------------------
    def reset_measurement(self) -> None:
        """Open the measured window now (after warmup)."""
        self._window.reset()

    def collect(self, label: str) -> RunResult:
        """Summarize the window since :meth:`reset_measurement`."""
        return self._window.result(label, self._extras())

    def _extras(self) -> Dict[str, float]:
        return {"deadlock_retries": float(self.deadlock_retries)}
