"""The Parallel Sysplex builder: wires every component of Figure 1 and 2.

``Sysplex(config, options)`` constructs the full stack — sysplex timer,
shared DASD, couple data sets, coupling facilities with lock/cache/list
structures, per-system MVS services (heartbeat/SFM, WLM, ARM, XES)
and per-system subsystems (IRLM-like lock manager, buffer manager, log
manager, database manager, transaction manager) — and connects the
failure/recovery plumbing so that killing a :class:`SystemNode` exercises
the paper's whole §2.5 story: heartbeat detection, fencing, retained
locks, ARM-driven restart, peer recovery, workload redistribution.
``options`` (a :class:`~repro.options.RunOptions`, default ``RunOptions()``)
sets monitoring, routing, tracing and the execution profile; the profile
becomes the simulator's one ``collapse`` flag here and nowhere else.

``add_system()`` implements §2.4's non-disruptive growth: a new member
joins a running sysplex and starts attracting work through WLM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .cf.cache import CacheStructure
from .cf.facility import CouplingFacility
from .cf.list import ListStructure
from .cf.lock import LockStructure
from .config import SysplexConfig
from .hardware.dasd import DasdDevice, DasdFarm
from .hardware.failures import FailureInjector
from .hardware.links import LinkSet
from .hardware.system import SystemNode
from .hardware.timer import SysplexTimer
from .metrics import RunResult, Window
from .mvs.arm import AutomaticRestartManager
from .mvs.cds import CoupleDataSet
from .mvs.heartbeat import SysplexMonitor
from .mvs.wlm import WorkloadManager
from .mvs.xes import XesServices
from .options import RunOptions
from .simkernel import MetricSet, RandomStreams, Simulator
from .subsystems.buffermgr import BufferManager, CastoutEngine
from .subsystems.database import DatabaseManager
from .subsystems.lockmgr import DeadlockDetector, LocalLockPort, LockManager, LockSpace
from .subsystems.logmgr import LogManager
from .subsystems.recovery import PeerRecovery
from .subsystems.txn import SysplexRouter, TransactionManager
from .trace import Tracer
from .trace_analysis import attribution_extras

__all__ = ["Sysplex", "Instance"]

LOCK_STRUCTURE = "IRLMLOCK1"
CACHE_STRUCTURE = "GBP0"
LIST_STRUCTURE = "WORKQ1"
#: (structure name, kind) in allocation and rebuild order
STRUCTURES = ((LOCK_STRUCTURE, "lock"), (CACHE_STRUCTURE, "cache"),
              (LIST_STRUCTURE, "list"))


@dataclass
class Instance:
    """One system's full software stack."""

    node: SystemNode
    lockmgr: LockManager
    buffers: BufferManager
    log: LogManager
    db: DatabaseManager
    tm: TransactionManager
    xes_lock: Optional[object] = None
    xes_cache: Optional[object] = None
    xes_list: Optional[object] = None
    castout: Optional[CastoutEngine] = None


class Sysplex:
    """A fully wired Parallel Sysplex simulation."""

    def __init__(self, config: SysplexConfig,
                 options: Optional[RunOptions] = None):
        self.config = config
        opts = options if options is not None else RunOptions()
        # the ``sweep`` profile collapses events: the CF command path,
        # idle engine/DASD-path/task holds and the terminal events of
        # processes nobody waits on (statistically neutral, NOT
        # byte-identical at saturation); the tracer only observes, so it
        # runs the same collapsed events
        self.sim = Simulator(collapse=opts.profile == "sweep")
        self.streams = RandomStreams(config.seed)
        self.metrics = MetricSet(self.sim)
        # transaction-level tracing (overhead attribution): a passive
        # observer — when off, no tracer object exists and every
        # instrumentation point reduces to one `is None` test
        self.tracer = Tracer(self.sim) if opts.tracing else None
        #: the canonical failure injector for this sysplex: experiments
        #: and the chaos engine schedule outages through it so the event
        #: timeline lands on the RunResult (zero sim impact when unused)
        self.injector = FailureInjector(self.sim)
        #: (time, label) rows for degraded-mode outcomes — recovery paths
        #: that could not run (e.g. a rebuild with no live CF) but must
        #: not kill the run; the invariant checker reads these
        self.degraded_events: List[tuple] = []

        # --- hardware -----------------------------------------------------
        self.timer = SysplexTimer(self.sim, sync_interval=1.0)
        farm_rng = self.streams.stream("dasd")
        self.farm = DasdFarm(self.sim, config.dasd, farm_rng,
                             n_devices=config.n_dasd)
        self.cds = CoupleDataSet(
            self.sim,
            DasdDevice(self.sim, config.dasd, farm_rng, "cds-primary"),
            DasdDevice(self.sim, config.dasd, farm_rng, "cds-alternate"),
        )

        # --- coupling facilities + structures --------------------------------
        self.cfs: List[CouplingFacility] = []
        cf_cfg = config.cf
        #: one factory per structure: its first allocation, a duplexed
        #: secondary and a rebuild each take a fresh instance from it
        self._new_structure = {
            LOCK_STRUCTURE: lambda: LockStructure(
                LOCK_STRUCTURE, cf_cfg.lock_table_entries),
            CACHE_STRUCTURE: lambda: CacheStructure(
                CACHE_STRUCTURE, cf_cfg.cache_elements,
                cf_cfg.cache_directory_entries),
            LIST_STRUCTURE: lambda: ListStructure(
                LIST_STRUCTURE, n_headers=8, n_locks=4),
        }
        self.xes = XesServices(self.sim, config.cf, trace=self.tracer,
                               streams=self.streams)
        if config.data_sharing and config.n_cfs > 0:
            for i in range(config.n_cfs):
                cf = CouplingFacility(self.sim, config.cf, name=f"CF{i + 1:02d}")
                cf.trace = self.tracer
                self.cfs.append(cf)
                self.xes.add_facility(cf)
            for make in self._new_structure.values():
                self.xes.allocate(make())
            # system-managed structure duplexing: stand up hot secondary
            # instances in the second CF per the configured policy
            if config.cf.duplex != "none" and len(self.cfs) >= 2:
                for name, kind in STRUCTURES:
                    if config.cf.duplexes(kind):
                        self.xes.establish_duplexing(
                            name, self._new_structure[name], self.cfs[1])

        # --- sysplex-wide services --------------------------------------------
        self.monitoring = opts.monitoring
        self.monitor = SysplexMonitor(self.sim, config.xcf, self.cds)
        self.wlm = WorkloadManager(self.sim, config.wlm,
                                   self.streams.stream("wlm"))
        self.lock_space = LockSpace(self.sim)
        self.deadlocks = DeadlockDetector(self.sim, self.lock_space,
                                          interval=config.db.deadlock_interval)
        self.recovery = PeerRecovery(self.sim, config.arm, self.lock_space)

        # --- systems ------------------------------------------------------------
        self.nodes: List[SystemNode] = []
        self.instances: Dict[str, Instance] = {}
        for i in range(config.n_systems):
            self._build_system(i)

        self.arm = AutomaticRestartManager(self.sim, config.arm, self.wlm,
                                           self.nodes)
        self.router = SysplexRouter(
            self.sim,
            [inst.tm for inst in self.instances.values()],
            self.wlm,
            config.xcf,
            policy=opts.router_policy,
            trace=self.tracer,
            metrics=self.metrics,
        )
        for inst in self.instances.values():
            self._register_arm(inst)
        self.monitor.on_partition(self._on_partition)
        self.monitor.on_rejoin(self._revive_system)
        for cf in self.cfs:
            cf.on_failure(self._on_cf_failed)
        from .mvs.sfm import SfmPolicyEngine

        #: failure-management policy engine: decides duplex-switch vs
        #: rebuild and records recovery-incident timelines.  Purely
        #: event-driven — costs nothing until a CF actually fails.
        self.sfm = SfmPolicyEngine(self)
        from .mvs.operations import OperationsConsole

        self.console = OperationsConsole(self)
        self._window = Window(self.sim, self.metrics, self.nodes, self.cfs)

    # -- construction helpers ---------------------------------------------------
    def _build_system(self, index: int) -> Instance:
        cfg = self.config
        node = SystemNode(self.sim, cfg, index,
                          tod=self.timer.attach(drift_ppm=(index - 8) * 2.0))
        for cf in self.cfs:
            node.cf_links[cf.name] = LinkSet(
                self.sim, cfg.link, name=f"{node.name}-{cf.name}"
            )
        self.nodes.append(node)
        inst = self._build_instance(node)
        self.instances[node.name] = inst
        if self.monitoring:
            self.monitor.add_system(node)
        self.wlm.watch(node)
        return inst

    def _build_instance(self, node: SystemNode) -> Instance:
        """Build the subsystem stack for one system."""
        cfg = self.config
        sharing = bool(self.cfs) and cfg.data_sharing
        xes_lock = xes_cache = xes_list = None
        if sharing:
            # duplex-aware connect: plain simplex connections when the
            # structure has no pair (the duplex="none" default)
            xes_lock = self.xes.connect_duplexed(node, LOCK_STRUCTURE)
            xes_cache = self.xes.connect_duplexed(node, CACHE_STRUCTURE)
            xes_list = self.xes.connect_duplexed(node, LIST_STRUCTURE)

        lockmgr = LockManager(self.sim, self.lock_space,
                              xes_lock if sharing else LocalLockPort(node),
                              cfg.xcf, node.name, trace=self.tracer)
        buffers = BufferManager(self.sim, node, cfg.db, self.farm,
                                xes=xes_cache, trace=self.tracer)
        log_dev = DasdDevice(self.sim, cfg.dasd,
                             self.streams.stream(f"log-{node.name}"),
                             name=f"log-{node.name}")
        log = LogManager(self.sim, node, cfg.db, log_dev)
        db = DatabaseManager(self.sim, node, cfg.db, lockmgr, buffers, log,
                             trace=self.tracer)
        tm = TransactionManager(self.sim, node, db, cfg.oltp, self.wlm,
                                self.metrics,
                                self.streams.stream(f"tm-{node.name}"),
                                max_tasks=32 * cfg.cpu.n_cpus,
                                trace=self.tracer)
        inst = Instance(node, lockmgr, buffers, log, db, tm,
                        xes_lock, xes_cache, xes_list)
        if sharing and not self._has_active_castout():
            inst.castout = CastoutEngine(self.sim, xes_cache, self.farm)
        if not sharing:
            self.sim.process(self._deferred_writer(inst),
                             name=f"dwq-{node.name}")
        return inst

    def _deferred_writer(self, inst: Instance):
        while inst.db.alive:
            yield self.sim.timeout(0.05)
            yield from inst.buffers.flush_deferred(limit=128)

    def _register_arm(self, inst: Instance) -> None:
        self.arm.register(
            f"DBMS-{inst.node.name}", inst.node,
            lambda el, target, failed=inst: self._arm_recovery(failed, target),
            level=0,
        )

    # -- failure / recovery wiring --------------------------------------------------
    def _on_partition(self, node: SystemNode) -> None:
        inst = self.instances.get(node.name)
        if inst is None:
            return
        if inst.db.alive:
            inst.db.fail()
        # CF-side fencing: the dead system's connectors are disconnected
        # (on both instances of a duplexed structure)
        for xes in (inst.xes_lock, inst.xes_cache, inst.xes_list):
            if xes is None:
                continue
            if not xes.structure.lost:
                xes.structure.disconnect(xes.connector)
            # purge the *pair's current* secondary, not the connection's
            # cached binding: a break + re-establish between this
            # system's death and its detection leaves the dead
            # connection unattached (re-attach skips dead nodes) while
            # the fresh secondary cloned the not-yet-fenced registrations
            pair = getattr(xes, "pair", None)
            if pair is not None:
                pair.purge_connector(xes.connector)
                if xes in pair.connections:
                    pair.connections.remove(xes)
        if inst.castout is not None:
            inst.castout.stop()
            self._reassign_castout(exclude=node)
        self.metrics.counter("failures.partitioned").add()
        self.arm.system_failed(node)

    def _reassign_castout(self, exclude: SystemNode) -> None:
        for inst in self.instances.values():
            if inst.node is exclude or not inst.node.alive:
                continue
            if inst.xes_cache is not None and inst.castout is None:
                inst.castout = CastoutEngine(self.sim, inst.xes_cache,
                                             self.farm)
                return

    def _arm_recovery(self, failed: Instance, target: SystemNode):
        """ARM restart body: the failed DBMS restarts on ``target`` and
        performs takeover recovery, releasing retained locks."""
        peer = self.instances.get(target.name)
        if peer is None or not peer.db.alive:
            return
        try:
            yield from self.recovery.recover(failed.db, peer.db)
        except Exception as exc:
            # the recoverer lost its coupling path (or died) mid-recovery:
            # retained locks stay protected; recorded so the invariant
            # checker excuses them instead of the run dying here
            self._degraded(
                f"recovery-failed:{failed.node.name}:{type(exc).__name__}"
            )
            return
        self.metrics.counter("failures.recovered").add()

    def _revive_system(self, node: SystemNode) -> None:
        """A failed system came back (planned outage ended / repair): it
        re-IPLs with a fresh subsystem stack — cold buffer pool, new CF
        connections — and rejoins workload balancing (§2.5)."""
        old = self.instances.get(node.name)
        if old is not None and old.db.alive:
            # The outage was shorter than the SFM detection threshold, so
            # the previous incarnation was never partitioned out.  A
            # rejoining system always forces its prior instance through
            # failure cleanup first (XCF does not allow two incarnations):
            # retained locks, connector teardown, ARM-driven recovery.
            self._on_partition(node)
        try:
            inst = self._build_instance(node)
        except Exception as exc:
            # re-IPL failed (e.g. no structure to connect to after a total
            # coupling outage): the image stays up but its subsystems
            # cannot join — a degraded-mode outcome, not a dead run
            self._degraded(f"revive-failed:{node.name}:{type(exc).__name__}")
            return
        self.instances[node.name] = inst
        if old is not None and old.tm in self.router.tms:
            self.router.tms[self.router.tms.index(old.tm)] = inst.tm
        else:
            self.router.add_manager(inst.tm)
        self.arm.deregister(f"DBMS-{node.name}")
        self._register_arm(inst)
        self.metrics.counter("systems.rejoined").add()

    def _has_active_castout(self) -> bool:
        return any(
            i.castout is not None and i.castout.active and i.node.alive
            for i in self.instances.values()
        )

    # -- CF failover (paper §3.3: "Multiple CF's ... for availability") ---------
    def _on_cf_failed(self, cf: CouplingFacility) -> None:
        self.metrics.counter("cf.failures").add()
        if self.xes.duplex_pairs:
            # duplexed run: SFM chooses duplex-switch vs rebuild per
            # structure and records the recovery timeline
            self.sfm.cf_failed(cf)
            return
        if not self.xes.live_facilities():
            # total coupling outage: nothing to rebuild into.  Recorded
            # as a degraded-mode outcome rather than silently ignored —
            # the invariant checker excuses non-reconvergence behind it.
            self._degraded(f"no-live-cf-after:{cf.name}")
            return
        self.metrics.counter("cf.rebuilds_started").add()
        self.sfm.rebuild_started(cf, list(STRUCTURES))
        self.sim.process(self._rebuild_guarded(cf),
                         name=f"rebuild-after-{cf.name}")

    def _degraded(self, label: str) -> None:
        self.degraded_events.append((self.sim.now, label))
        self.metrics.counter("degraded.events").add()

    def _rebuild_guarded(self, cf: CouplingFacility):
        """Run the structure rebuild, converting unrecoverable situations
        (every CF died mid-rebuild, connectors gone) into recorded
        degraded-mode outcomes.  A raising process whose failure nobody
        waits on would otherwise take down the whole simulation — under
        chaos, ill-timed second failures make that a real path."""
        try:
            yield from self._rebuild_structures()
        except Exception as exc:
            self._degraded(
                f"rebuild-abandoned-after:{cf.name}:{type(exc).__name__}"
            )
            self.sfm.rebuild_abandoned(cf)
        else:
            self.metrics.counter("cf.rebuilds").add()
            self.sfm.rebuild_finished(cf)

    def _rebuild_structures(self, names=(LOCK_STRUCTURE, CACHE_STRUCTURE,
                                         LIST_STRUCTURE)):
        """Rebuild the named structures into a surviving CF from the
        connectors' local state, then swap the instances onto the new
        connections.

        Lock interest and persistent lock records are reconstructed from
        the lock managers' ``held`` maps; cache registrations from the
        buffer pools (local copies are assumed current — a simplification
        of DB2's GRECP recovery, see DESIGN.md); list contents are lost
        (queued entries are in-flight work, counted as failed).  SFM's
        managed path passes a single name when only that structure needs
        recovery (e.g. the others duplex-switched instead).
        """
        from .cf.lock import LockMode

        def lock_contrib(inst: Instance):
            def fn(xconn):
                def replay(structure, conn):
                    # snapshot `held` at CF-execution time: tasks that
                    # abandoned their locks while the rebuild was being
                    # issued are then correctly absent
                    for modes in inst.lockmgr.held.values():
                        for r, m in modes.items():
                            structure.force_record(conn, r, m)
                            if m == LockMode.EXCL:
                                structure.write_record(
                                    conn, r, {"sys": inst.node.name})

                n_units = sum(len(m) for m in inst.lockmgr.held.values())
                yield from xconn.sync(
                    replay, service_factor=max(1.0, 0.25 * n_units))
                inst.lockmgr.xes = xconn
                inst.xes_lock = xconn

            return fn

        def cache_contrib(inst: Instance):
            def fn(xconn):
                # only buffers that were VALID at failure time may be
                # re-registered as current; cross-invalidated copies stay
                # invalid and refresh through the normal miss path
                old = inst.xes_cache
                old_vec = (
                    old.structure.vectors.get(old.connector.conn_id)
                    if old is not None else None
                )
                pool = [
                    (page, slot)
                    for page, slot in inst.buffers.lru_items()
                    if old_vec is None or old_vec.test(slot)
                ]

                def reregister(cache, conn):
                    for page, slot in pool:
                        cache.register_and_read(conn, page, slot)

                yield from xconn.sync(
                    reregister, service_factor=max(1.0, 0.1 * len(pool)))
                inst.buffers.xes = xconn
                inst.xes_cache = xconn

            return fn

        def list_contrib(inst: Instance):
            def fn(xconn):
                # (re)connect handshake
                yield from xconn.sync(lambda s, c: None)
                inst.xes_list = xconn

            return fn

        contrib = {LOCK_STRUCTURE: lock_contrib,
                   CACHE_STRUCTURE: cache_contrib,
                   LIST_STRUCTURE: list_contrib}
        alive = [i for i in self.instances.values() if i.node.alive]
        for name, _kind in STRUCTURES:
            if name in names:
                yield from self.xes.rebuild(
                    name, self._new_structure[name],
                    {i.node: contrib[name](i) for i in alive},
                )
        # the castout engine died with the old cache structure
        if CACHE_STRUCTURE in names:
            for inst in self.instances.values():
                if inst.castout is not None:
                    inst.castout.stop()
                    inst.castout = None
            for inst in alive:
                if inst.xes_cache is not None:
                    inst.castout = CastoutEngine(self.sim, inst.xes_cache,
                                                 self.farm)
                    break

    def _restart_castout(self) -> None:
        """Ensure a live castout drainer exists for the shared cache.

        The engine's drain loop exits when its connection goes
        non-operational — a window every CF failure opens, even one a
        duplex switch closes 20 ms later.  The rebuild path recreates
        the engine as part of re-wiring; the switch path calls this
        instead, since its connections rebind in place."""
        for inst in self.instances.values():
            if inst.castout is not None and inst.castout.active:
                return
        for inst in self.instances.values():
            if (inst.node.alive and inst.xes_cache is not None
                    and inst.xes_cache.operational):
                inst.castout = CastoutEngine(self.sim, inst.xes_cache,
                                             self.farm)
                return

    # -- growth (paper §2.4) -------------------------------------------------------
    def add_system(self) -> Instance:
        """Non-disruptively introduce a new system into the running sysplex."""
        if len(self.nodes) >= 32:
            raise RuntimeError("paper supports up to 32 systems")
        index = len(self.nodes)
        inst = self._build_system(index)
        self.arm.nodes = self.nodes
        self._register_arm(inst)
        self.router.add_manager(inst.tm)
        return inst

    # -- measurement -----------------------------------------------------------------
    def reset_measurement(self) -> None:
        """Open the measured window now (after warmup)."""
        self._window.reset()

    def collect(self, label: str) -> RunResult:
        """Summarize the window since :meth:`reset_measurement`."""
        window = self._window
        lock_struct = self.xes.find(LOCK_STRUCTURE) if self.cfs else None
        extras = {
            "deadlocks": float(self.lock_space.deadlocks),
            "lock_waits": float(self.lock_space.waits),
            "shipped": float(self.router.shipped),
        }
        if lock_struct is not None:
            extras["false_contention_rate"] = lock_struct.false_contention_rate()
            extras["cf_lock_requests"] = float(lock_struct.requests)
        if self.tracer is not None:
            extras.update(attribution_extras(
                self.tracer, start=window.start, end=self.sim.now))
        return window.result(label, extras,
                             events=self.injector.log_events())
