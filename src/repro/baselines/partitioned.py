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
function-shipped.
"""

from __future__ import annotations

from typing import Generator, List


from ..cf.lock import LockMode
from ..config import SysplexConfig
from ..hardware.cpu import SystemDown
from ..hardware.dasd import DasdDevice, DasdFarm
from ..hardware.system import SystemNode
from ..hardware.timer import SysplexTimer
from ..metrics import RunResult
from ..mvs.wlm import WorkloadManager
from ..simkernel import MetricSet, RandomStreams, Resource, Simulator
from ..subsystems.buffermgr import BufferManager
from ..subsystems.database import UNDO_CPU_PER_PAGE
from ..subsystems.lockmgr import (
    DeadlockAbort,
    RetainedLockReject,
    DeadlockDetector,
    LocalLockPort,
    LockManager,
    LockSpace,
)
from ..subsystems.logmgr import LogManager

__all__ = ["PartitionedCluster"]

MAX_RETRIES = 10


class PartitionedCluster:
    """A shared-nothing cluster with the same hardware as a sysplex."""

    def __init__(self, config: SysplexConfig):
        self.config = config
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.metrics = MetricSet(self.sim)
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
        self._stacks: List[dict] = []
        for i in range(config.n_systems):
            self._build_system(i)
        self.n_partitions = config.n_systems
        self.completed = 0
        self.failed_txns = 0
        self.remote_calls = 0
        self.two_phase_commits = 0
        self.repartition_until = 0.0
        self.deadlock_retries = 0

    def _build_system(self, index: int) -> None:
        cfg = self.config
        node = SystemNode(self.sim, cfg, index, tod=self.timer.attach())
        self.nodes.append(node)
        lockmgr = LockManager(self.sim, self.lock_space, LocalLockPort(node),
                              cfg.xcf, node.name)
        buffers = BufferManager(self.sim, node, cfg.db, self.farm, xes=None)
        log_dev = DasdDevice(self.sim, cfg.dasd,
                             self.streams.stream(f"log-{node.name}"),
                             name=f"log-{node.name}")
        log = LogManager(self.sim, node, cfg.db, log_dev)
        tasks = Resource(self.sim, capacity=32 * cfg.cpu.n_cpus)
        self._stacks.append(
            {"node": node, "locks": lockmgr, "buffers": buffers,
             "log": log, "tasks": tasks}
        )
        self.wlm.watch(node)
        self.sim.process(self._deferred_writer(index), name=f"dwq-{node.name}")

    def _deferred_writer(self, index: int):
        stack = self._stacks[index]
        while stack["node"].alive:
            yield self.sim.timeout(0.05)
            yield from stack["buffers"].flush_deferred(limit=128)

    # -- partition map -----------------------------------------------------------
    def owner_of(self, page: int) -> int:
        """Range partitioning over the permuted page space."""
        return min(page * self.n_partitions // self.config.db.n_pages,
                   self.n_partitions - 1)

    # -- the router interface (matches SysplexRouter.route) --------------------------
    def route(self, txn) -> None:
        if self.sim.now < self.repartition_until:
            self.failed_txns += 1  # database offline for repartitioning
            return
        first = (txn.writes or txn.reads)[0]
        coord = self.owner_of(first)
        if not self.nodes[coord].alive:
            self.failed_txns += 1  # that partition's data is unavailable
            return
        self.sim.process(self._run(txn, coord), name=f"ptxn-{txn.txn_id}")

    def _run(self, txn, coord: int) -> Generator:
        stack = self._stacks[coord]
        req = stack["tasks"].request()
        rng = self.streams.stream(f"retry-{coord}")
        try:
            yield req
            node = stack["node"]
            app_half = 0.5 * self.config.oltp.app_cpu
            owner_key = (node.name, txn.txn_id)
            try:
                for _attempt in range(MAX_RETRIES):
                    participants = {coord}
                    try:
                        yield from node.cpu.consume(app_half)
                        for page in txn.reads:
                            yield from self._access(
                                coord, owner_key, page, LockMode.SHR,
                                participants,
                            )
                        for page in txn.writes:
                            yield from self._access(
                                coord, owner_key, page, LockMode.EXCL,
                                participants,
                            )
                        yield from node.cpu.consume(app_half)
                        yield from self._commit(coord, owner_key, txn,
                                                participants)
                        break
                    except DeadlockAbort:
                        self.deadlock_retries += 1
                        yield from self._abort(owner_key, participants)
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

    def _access(self, coord: int, owner_key, page: int, mode: str,
                participants: set) -> Generator:
        owner = self.owner_of(page)
        xcfg = self.config.xcf
        cstack = self._stacks[coord]
        if owner == coord:
            yield from self._local_access(owner, owner_key, page, mode)
            return
        # function shipping: request message, remote execution, reply
        participants.add(owner)
        self.remote_calls += 1
        if not self.nodes[owner].alive:
            raise SystemDown(self.nodes[owner].name)
        yield from cstack["node"].cpu.consume(xcfg.message_cpu)
        yield self.sim.timeout(xcfg.message_latency)
        ostack = self._stacks[owner]
        yield from ostack["node"].cpu.consume(xcfg.message_cpu)
        yield from self._local_access(owner, owner_key, page, mode)
        yield from ostack["node"].cpu.consume(xcfg.message_cpu)
        yield self.sim.timeout(xcfg.message_latency)
        yield from cstack["node"].cpu.consume(xcfg.message_cpu)

    def _local_access(self, owner: int, owner_key, page: int,
                      mode: str) -> Generator:
        stack = self._stacks[owner]
        yield from stack["locks"].lock(owner_key, page, mode)
        yield from stack["node"].cpu.consume(self.config.db.db_call_cpu)
        yield from stack["buffers"].get_page(page)
        if mode == LockMode.EXCL:
            stack["buffers"].mark_dirty(page)
            stack["log"].log_update(owner_key, page)

    def _commit(self, coord: int, owner_key, txn, participants: set
                ) -> Generator:
        xcfg = self.config.xcf
        cstack = self._stacks[coord]
        others = sorted(participants - {coord})
        if others:
            # two-phase commit: prepare round (each participant forces its
            # log), then the coordinator's decision force, then commits
            self.two_phase_commits += 1
            for p in others:
                yield from cstack["node"].cpu.consume(xcfg.message_cpu)
                yield self.sim.timeout(xcfg.message_latency)
                pstack = self._stacks[p]
                yield from pstack["node"].cpu.consume(xcfg.message_cpu)
                yield from pstack["log"].force()
                yield self.sim.timeout(xcfg.message_latency)
                yield from cstack["node"].cpu.consume(xcfg.message_cpu)
        yield from cstack["log"].force()
        for p in others:  # commit messages (participants ack lazily)
            yield from cstack["node"].cpu.consume(xcfg.message_cpu)
        # release locks everywhere
        for p in sorted(participants):
            self._stacks[p]["log"].log_end(owner_key)
            yield from self._stacks[p]["locks"].unlock_all(owner_key)

    def _abort(self, owner_key, participants: set) -> Generator:
        for p in sorted(participants):
            stack = self._stacks[p]
            touched = stack["log"].in_flight.get(owner_key, [])
            if touched:
                yield from stack["node"].cpu.consume(
                    UNDO_CPU_PER_PAGE * len(touched)
                )
            stack["log"].log_end(owner_key)
            yield from stack["locks"].unlock_all(owner_key)

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

    # -- measurement -------------------------------------------------------------------
    def reset_measurement(self) -> None:
        for tally in self.metrics.tallies.values():
            tally.reset()
        # snapshot, don't reset: the WLM samplers read these counters too
        self._busy_snapshot = {
            s["node"].name: s["node"].cpu.engines.busy_area()
            for s in self._stacks
        }
        self._measure_start = self.sim.now
        self._completed_start = self.metrics.counter("txn.completed").count

    def collect(self, label: str) -> RunResult:
        start = getattr(self, "_measure_start", 0.0)
        completed0 = getattr(self, "_completed_start", 0)
        busy0 = getattr(self, "_busy_snapshot", {})
        duration = self.sim.now - start

        def _util(stack) -> float:
            if duration <= 0:
                return 0.0
            node = stack["node"]
            base = busy0.get(node.name, 0.0)
            return (node.cpu.engines.busy_area() - base) / (
                duration * node.cpu.n_cpus
            )
        completed = self.metrics.counter("txn.completed").count - completed0
        rt = self.metrics.tally("txn.response")
        return RunResult(
            label=label,
            duration=duration,
            completed=completed,
            throughput=completed / duration if duration > 0 else 0.0,
            response_mean=rt.mean,
            response_p50=rt.percentile(50),
            response_p90=rt.percentile(90),
            response_p95=rt.percentile(95),
            response_p99=rt.percentile(99),
            cpu_utilization={
                s["node"].name: _util(s)
                for s in self._stacks
                if s["node"].alive
            },
            extras={
                "remote_calls": float(self.remote_calls),
                "two_phase_commits": float(self.two_phase_commits),
                "failed": float(self.failed_txns),
                "deadlock_retries": float(self.deadlock_retries),
            },
        )
