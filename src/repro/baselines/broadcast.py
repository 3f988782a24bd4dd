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
cluster versus the CF-based sysplex.
"""

from __future__ import annotations

from typing import Dict, Generator, List


from ..cf.lock import LockMode
from ..config import SysplexConfig
from ..hardware.cpu import SystemDown
from ..hardware.dasd import DasdDevice, DasdFarm
from ..hardware.system import SystemNode
from ..metrics import RunResult
from ..mvs.wlm import WorkloadManager
from ..simkernel import MetricSet, RandomStreams, Resource, Simulator
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

__all__ = ["BroadcastCluster"]

MAX_RETRIES = 10


class _MessageLockPort(LocalLockPort):
    """Lock-manager transport where remote-mastered requests pay messaging."""

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


class BroadcastCluster:
    """Data sharing via messages only (no CF)."""

    def __init__(self, config: SysplexConfig):
        self.config = config
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.metrics = MetricSet(self.sim)
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
        #: page -> version, the ground truth each system compares against
        self._page_version: Dict[int, int] = {}
        self._rng = self.streams.stream("lockmaster")
        self.completed = 0
        self.failed_txns = 0
        self.invalidation_messages = 0
        self.remote_lock_requests = 0
        self.deadlock_retries = 0
        for i in range(config.n_systems):
            self._build_system(i)

    def _build_system(self, index: int) -> None:
        cfg = self.config
        node = SystemNode(self.sim, cfg, index)
        self.nodes.append(node)
        port = _MessageLockPort(node, self)
        locks = LockManager(self.sim, self.lock_space, port, cfg.xcf, node.name)
        log_dev = DasdDevice(self.sim, cfg.dasd,
                             self.streams.stream(f"log-{node.name}"),
                             name=f"log-{node.name}")
        log = LogManager(self.sim, node, cfg.db, log_dev)
        self._stacks.append(
            {
                "node": node,
                "locks": locks,
                "log": log,
                "tasks": Resource(self.sim, capacity=32 * cfg.cpu.n_cpus),
                # local pool: page -> seen version
                "pool": {},
                "pool_order": [],
            }
        )
        self.wlm.watch(node)

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
    def _get_page(self, index: int, page: int) -> Generator:
        stack = self._stacks[index]
        pool = stack["pool"]
        current = self._page_version.get(page, 0)
        seen = pool.get(page)
        if seen is not None and seen == current:
            return  # valid local copy
        # invalid or absent: DASD re-read (no second-level cache here)
        yield from self.farm.read_page(page)
        if len(pool) >= self.config.db.buffer_pages and page not in pool:
            victim = stack["pool_order"].pop(0)
            pool.pop(victim, None)
        if page not in pool:
            stack["pool_order"].append(page)
        pool[page] = current

    def _write_page(self, index: int, page: int) -> Generator:
        """Commit-time update: bump version, broadcast invalidations."""
        self._page_version[page] = self._page_version.get(page, 0) + 1
        self._stacks[index]["pool"][page] = self._page_version[page]
        xcfg = self.config.xcf
        node = self._stacks[index]["node"]
        targets = [s for s in self._stacks if s["node"] is not node
                   and s["node"].alive]
        # sends are parallel but each costs sender CPU; each target pays
        # receive CPU; the writer waits one round trip for the slowest ack
        for target in targets:
            self.invalidation_messages += 1
            yield from node.cpu.consume(xcfg.message_cpu)
            self.sim.process(
                target["node"].cpu.consume(xcfg.message_cpu),
                name="bcast-recv",
            )
        if targets:
            yield self.sim.timeout(2 * xcfg.message_latency)
            yield from node.cpu.consume(xcfg.message_cpu * len(targets) * 0.5)
        # write-through to DASD so peers re-read current data
        yield from self.farm.write_page(page)

    # -- router interface ----------------------------------------------------------------
    def route(self, txn) -> None:
        index = txn.home % len(self.nodes)
        if not self.nodes[index].alive:
            self.failed_txns += 1
            return
        self.sim.process(self._run(txn, index), name=f"btxn-{txn.txn_id}")

    def _run(self, txn, index: int) -> Generator:
        stack = self._stacks[index]
        rng = self.streams.stream(f"retry-{index}")
        req = stack["tasks"].request()
        try:
            yield req
            node = stack["node"]
            app_half = 0.5 * self.config.oltp.app_cpu
            owner_key = (node.name, txn.txn_id)
            try:
                for _attempt in range(MAX_RETRIES):
                    try:
                        yield from node.cpu.consume(app_half)
                        for page in txn.reads:
                            yield from stack["locks"].lock(
                                owner_key, page, LockMode.SHR)
                            yield from node.cpu.consume(
                                self.config.db.db_call_cpu)
                            yield from self._get_page(index, page)
                        for page in txn.writes:
                            yield from stack["locks"].lock(
                                owner_key, page, LockMode.EXCL)
                            yield from node.cpu.consume(
                                self.config.db.db_call_cpu)
                            yield from self._get_page(index, page)
                            stack["log"].log_update(owner_key, page)
                        yield from node.cpu.consume(app_half)
                        yield from stack["log"].force()
                        for page in txn.writes:
                            yield from self._write_page(index, page)
                        stack["log"].log_end(owner_key)
                        yield from stack["locks"].unlock_all(owner_key)
                        break
                    except DeadlockAbort:
                        self.deadlock_retries += 1
                        touched = stack["log"].in_flight.get(owner_key, [])
                        if touched:
                            yield from node.cpu.consume(
                                UNDO_CPU_PER_PAGE * len(touched))
                        stack["log"].log_end(owner_key)
                        yield from stack["locks"].unlock_all(owner_key)
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
            if txn.done is not None and not txn.done.triggered:
                txn.done.succeed(rt)
        finally:
            req.cancel()

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
            cpu_utilization={s["node"].name: _util(s) for s in self._stacks},
            extras={
                "invalidation_messages": float(self.invalidation_messages),
                "remote_lock_requests": float(self.remote_lock_requests),
                "deadlock_retries": float(self.deadlock_retries),
            },
        )
