"""Transaction management: CICS-like regions + sysplex work routing.

Paper §2.3: work requests "can be executed on any system in the
configuration based on available processing capacity, instead of being
bound to a specific system due to data-to-processor affinity.  Normally,
work will execute on the system on which the request is received, but in
cases of over-utilization on a given node, work can be directed to other
less-utilized system nodes."

:class:`TransactionManager` is one region: bounded multiprogramming level,
deadlock-retry policy, response-time accounting.  :class:`SysplexRouter`
implements the routing policies compared in EXP-BAL: ``local`` (no
balancing), ``threshold`` (the paper's receive-locally-unless-overloaded),
and ``wlm`` (fully weighted distribution).  :class:`ListQueueRouter` is
the §3.3.3 alternative: a shared CF list work queue that every system
drains — used by EXP-LIST.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

import numpy as np

from ..cf.cache import CacheFullError
from ..cf.commands import CfRequestTimeout
from ..cf.facility import CfFailedError
from ..cf.list import ListEntry
from ..cf.structure import StructureFailedError
from ..config import OltpConfig, XcfConfig
from ..hardware.cpu import SystemDown
from ..hardware.links import LinkDownError
from ..mvs.wlm import WorkloadManager
from ..mvs.xes import XesConnection
from ..simkernel import MetricSet, Resource, Simulator
from ..trace import traced
from .database import DatabaseManager
from .lockmgr import DeadlockAbort, RetainedLockReject

__all__ = ["TransactionManager", "SysplexRouter", "ListQueueRouter"]

MAX_RETRIES = 10
RETRY_BACKOFF = 2e-3


class TransactionManager:
    """One system's transaction-processing region."""

    def __init__(self, sim: Simulator, node, db: DatabaseManager,
                 config: OltpConfig, wlm: WorkloadManager,
                 metrics: MetricSet, rng: np.random.Generator,
                 max_tasks: int = 32, trace=None):
        # max_tasks is the region's multiprogramming level: admission
        # control that keeps lock contention from spiralling when the
        # system is pushed past saturation (work queues at the door,
        # holding no locks, instead of inside the lock manager)
        self.sim = sim
        self.node = node
        self.db = db
        self.config = config
        self.wlm = wlm
        self.metrics = metrics
        self.rng = rng
        self.trace = trace  # Tracer or None (zero-cost when disabled)
        self.tasks = Resource(sim, capacity=max_tasks)
        #: set by the operations console during a planned VARY OFFLINE:
        #: no new work is accepted while in-flight tasks drain
        self.quiesced = False
        self.completed = 0
        self.deadlock_retries = 0
        self.failed_txns = 0
        # per-completion bookkeeping is O(1) appends on pre-resolved
        # collectors — no name lookup on the commit path
        self._completed_counter = metrics.counter("txn.completed")
        self._submitted_counter = metrics.counter("txn.submitted")
        self._response_tally = metrics.tally("txn.response")
        self._node_response_tally = metrics.tally(f"txn.response.{node.name}")

    @property
    def available(self) -> bool:
        return self.node.alive and self.db.alive and not self.quiesced

    def submit(self, txn) -> None:
        """Accept a transaction for execution (spawns its task)."""
        self._submitted_counter.add()
        self.sim.process(self._run(txn), name=f"txn-{txn.txn_id}")

    def _fail(self, txn) -> None:
        self.failed_txns += 1
        self.metrics.counter("txn.failed").add()
        if txn.done is not None and not txn.done.triggered:
            txn.done.succeed(None)  # closed-loop terminal moves on

    def _run(self, txn) -> Generator:
        # collapse mode: a region below its MPL admits the task with no
        # admission grant event; a full region queues exactly as before
        tasks = self.tasks
        req = tasks.acquire()
        tr = self.trace
        try:
            if req is not None:
                yield req
            if tr is not None:
                # arrival → region task start: routing (incl. any function
                # shipping) plus admission queueing for a region task
                tr.record("dispatch", txn.arrival, self.sim.now,
                          txn.txn_id, self.node.name)
                tr.bind(txn.txn_id, self.node.name)
            app_half = 0.5 * self.config.app_cpu
            cpu = self.node.cpu
            try:
                for attempt in range(MAX_RETRIES):
                    try:
                        # quiesced regions finish work already accepted;
                        # only dead systems/instances reject it
                        if not (self.node.alive and self.db.alive):
                            self._fail(txn)
                            return
                        yield from traced(tr, "cpu", cpu.consume(app_half))
                        yield from self.db.execute(
                            txn.txn_id, txn.reads, txn.writes
                        )
                        yield from traced(tr, "cpu", cpu.consume(app_half))
                        break
                    except DeadlockAbort:
                        self.deadlock_retries += 1
                        yield from self.db.abort(txn.txn_id)
                        yield self.sim.timeout(
                            float(self.rng.exponential(RETRY_BACKOFF))
                        )
                    except CacheFullError:
                        # castout has fallen behind and the CF rejected a
                        # changed-data write (GBP-full): abort, give the
                        # castout engine a long beat to drain, and retry
                        self.metrics.counter("txn.cache_full").add()
                        yield from self.db.abort(txn.txn_id)
                        yield self.sim.timeout(
                            float(self.rng.exponential(10 * RETRY_BACKOFF))
                        )
                    except RetainedLockReject:
                        # data protected by a failed peer's retained lock:
                        # the request is rejected until recovery completes
                        yield from self.db.abort(txn.txn_id)
                        self.metrics.counter("txn.lock_reject").add()
                        self._fail(txn)
                        return
                else:
                    self._fail(txn)
                    return
            except SystemDown:
                # the hosting system died under this task: its locks stay
                # with the instance and become retained at fail_instance —
                # peer recovery releases them (deliberately NOT abandoned
                # here, that would forfeit retained-lock data protection)
                self._fail(txn)
                return
            except (CfFailedError, StructureFailedError):
                # the CF (or this structure) died: no CF command can run,
                # so the software lock holds are dropped locally; the
                # structure rebuild reconstructs CF-side interest from the
                # surviving instances' state
                self.db.abandon(txn.txn_id)
                self._fail(txn)
                return
            except (LinkDownError, CfRequestTimeout):
                # the coupling path to the CF is gone (every link down,
                # or the redrive budget ran out): this transaction fails
                # and its software holds are dropped so peers proceed —
                # the structure itself is intact, nothing to rebuild
                self.db.abandon(txn.txn_id)
                self.metrics.counter("txn.link_fail").add()
                self._fail(txn)
                return
            rt = self.sim.now - txn.arrival
            self.completed += 1
            self._completed_counter.add()
            self._response_tally.record(rt)
            self._node_response_tally.record(rt)
            self.wlm.record_response(txn.service_class, rt)
            if tr is not None:
                tr.txn_complete(txn.txn_id, txn.arrival, rt)
            if txn.done is not None and not txn.done.triggered:
                txn.done.succeed(rt)
        finally:
            if tr is not None:
                tr.unbind()
            tasks.drop(req)


class SysplexRouter:
    """Routes arriving work among the transaction managers."""

    def __init__(self, sim: Simulator, tms: List[TransactionManager],
                 wlm: WorkloadManager, xcf_config: XcfConfig,
                 policy: str = "threshold", threshold: float = 0.85,
                 trace=None, metrics: Optional[MetricSet] = None):
        if policy not in ("local", "threshold", "wlm"):
            raise ValueError(f"unknown routing policy {policy!r}")
        self.sim = sim
        self.tms = list(tms)
        self.wlm = wlm
        self.xcf_config = xcf_config
        self.policy = policy
        self.threshold = threshold
        self.trace = trace  # Tracer or None (zero-cost when disabled)
        self.shipped = 0
        #: arrivals dropped before any region accepted them (total outage,
        #: shipper death): explicit so transaction conservation is checkable
        self.lost = 0
        self._lost_counter = (
            metrics.counter("txn.lost") if metrics is not None else None
        )

    def _lose(self) -> None:
        self.lost += 1
        if self._lost_counter is not None:
            self._lost_counter.add()

    def add_manager(self, tm: TransactionManager) -> None:
        """A new system joined the sysplex (granular growth, §2.4)."""
        self.tms.append(tm)

    def _alive(self) -> List[TransactionManager]:
        return [tm for tm in self.tms if tm.available]

    def route(self, txn) -> None:
        """Deliver one arriving transaction to a system."""
        alive = self._alive()
        if not alive:
            self._lose()  # total outage: the arriving request is lost
            return
        home: Optional[TransactionManager] = None
        if 0 <= txn.home < len(self.tms) and self.tms[txn.home].available:
            home = self.tms[txn.home]

        target = self._pick(home, alive)
        if home is not None and target is not home:
            # function-shipping the request costs an XCF message
            self.shipped += 1
            self.sim.process(self._ship(home, target, txn), name="ship")
        else:
            target.submit(txn)

    def _pick(self, home, alive) -> TransactionManager:
        if self.policy == "local" and home is not None:
            return home
        if self.policy == "wlm" or home is None:
            node = self.wlm.select_system([tm.node for tm in alive])
            return next(tm for tm in alive if tm.node is node)
        # threshold policy: stay local unless over-utilized
        if self.wlm.utilization(home.node.name) <= self.threshold:
            return home
        node = self.wlm.select_system([tm.node for tm in alive])
        return next(tm for tm in alive if tm.node is node)

    def _ship(self, src: TransactionManager, dst: TransactionManager, txn):
        try:
            yield from src.node.cpu.consume(self.xcf_config.message_cpu)
            yield self.sim.timeout(self.xcf_config.message_latency)
            if dst.available:
                yield from dst.node.cpu.consume(self.xcf_config.message_cpu)
                dst.submit(txn)
            else:
                alive = self._alive()
                if alive:
                    alive[0].submit(txn)
                else:
                    self._lose()  # everyone died while the request shipped
        except SystemDown:
            self._lose()  # the shipping system died mid-transfer


class ListQueueRouter:
    """Workload distribution through a shared CF list work queue (§3.3.3).

    Arrivals are pushed onto a CF list by the receiving system; every
    system runs a server loop that pops work when present, using the
    list-transition vector bit (polled locally, set by the CF signal at no
    CPU cost) to avoid hammering the CF while idle.
    """

    def __init__(self, sim: Simulator, tms: List[TransactionManager],
                 connections: Dict[str, XesConnection],
                 header: int = 0, poll_interval: float = 1e-3):
        self.sim = sim
        self.tms = list(tms)
        self.connections = connections
        self.header = header
        self.poll_interval = poll_interval
        self.pushed = 0
        self._start_servers()

    def _start_servers(self) -> None:
        for tm in self.tms:
            xes = self.connections[tm.node.name]
            # register on both instances of a duplexed structure: after a
            # switch the promoted secondary must keep signalling transitions
            for st, conn in xes.instances():
                st.register_monitor(conn, self.header, 0)
            self.sim.process(self._server(tm, xes), name=f"listq-{tm.node.name}")

    def route(self, txn) -> None:
        """Push arriving work onto the shared queue (from its home system)."""
        alive = [tm for tm in self.tms if tm.available]
        if not alive:
            return
        entry_tm = (
            self.tms[txn.home]
            if 0 <= txn.home < len(self.tms) and self.tms[txn.home].available
            else alive[0]
        )
        xes = self.connections[entry_tm.node.name]
        self.sim.process(self._push(xes, txn), name="listq-push")

    def _push(self, xes: XesConnection, txn):
        # one entry object pushed to both instances keeps entry ids equal
        entry = ListEntry(data=txn)
        try:
            yield from xes.sync(
                lambda s, c: s.push(c, self.header, entry),
                write=True, out_bytes=256,
            )
            self.pushed += 1
        except (SystemDown, CfFailedError, StructureFailedError):
            pass

    def _server(self, tm: TransactionManager, xes: XesConnection):
        st, conn = xes.structure, xes.connector
        vector = st.vector_of(conn)
        try:
            while tm.available:
                if vector.test(0):
                    entry = yield from xes.sync(
                        lambda s, c: s.pop(c, self.header),
                        write=True, in_bytes=256,
                    )
                    if entry is None:
                        st.clear_monitor_bit(conn, 0)
                        if st.length(self.header):
                            vector.set_valid(0)
                        continue
                    tm.submit(entry.data)
                else:
                    yield self.sim.timeout(self.poll_interval)
        except (SystemDown, CfFailedError, StructureFailedError):
            return  # this system left the sysplex; peers keep serving
