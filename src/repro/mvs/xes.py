"""XES: MVS services for Coupling Facility exploitation.

The operating-system layer between subsystems and the CF (paper §5.1):
structure allocation across the available facilities, connection services
(which also allocate the local bit vectors), and **structure rebuild** —
the availability mechanism that lets a lock or cache structure be
re-instantiated in an alternate CF from the connectors' local state after
a facility failure ("Multiple CF's can be connected for availability",
§3.3).

A subsystem issues every CF command as one callable,
``op(structure, connector)``, through its connection's ``sync`` or
``async_``.  The connection binds ``op`` to its current structure
instance when the command is issued.  A mutating command passes
``write=True``; on a duplexed structure XES then applies the same ``op``
to the secondary instance too, so no exploiter knows the duplexing
exists.  Reads run against the primary only.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Generator, List, Optional

from ..config import CfConfig
from ..cf.commands import CfPort
from ..cf.facility import CouplingFacility
from ..cf.structure import Connector, Structure
from ..hardware.system import SystemDown, SystemNode
from ..simkernel import Simulator

__all__ = ["XesServices", "XesConnection", "DuplexPair", "DuplexedConnection"]


def _noop() -> None:
    return None


class XesConnection:
    """One subsystem instance's connection to one structure."""

    #: a CF connection runs every command (see ``LocalLockPort``)
    bare_latch = False

    def __init__(self, services: "XesServices", node: SystemNode,
                 structure: Structure, port: CfPort, connector: Connector):
        self.services = services
        self.node = node
        self.structure = structure
        self.port = port
        self.connector = connector

    # Pass-throughs charging the command cost model.  ``write`` marks a
    # mutation, which a simplex connection has no second instance for.
    def sync(self, op: Callable, write: bool = False, **kw) -> Generator:
        """Process step: run ``op(structure, connector)`` at the CF
        CPU-synchronously and return its result."""
        return self.port.sync(self._bind(op), **kw)

    def async_(self, op: Callable, write: bool = False, **kw) -> Generator:
        """Process step: run ``op(structure, connector)`` at the CF
        asynchronously and return its result."""
        return self.port.async_(self._bind(op), **kw)

    def _bind(self, op: Callable) -> Callable:
        """``op`` bound to this connection's instance at issue time (a
        duplex switch may rebind the connection before the next one)."""
        return partial(op, self.structure, self.connector)

    def instances(self):
        """Every live ``(structure, connector)`` instance pair.

        Direct-mutation paths (undo, abandon) iterate this so a duplexed
        secondary sees the same state surgery the primary does.
        """
        return [(self.structure, self.connector)]

    def disconnect(self) -> None:
        self.structure.disconnect(self.connector)

    @property
    def operational(self) -> bool:
        return self.port.operational and not self.structure.lost


class DuplexPair:
    """One duplexed structure: a primary and (when healthy) a secondary.

    The pair is the unit of failover policy: while ``active``, mutating
    commands run the duplexed-write protocol; when the secondary becomes
    unreachable the pair *breaks* back to simplex (work keeps committing
    against the primary); when the primary's CF dies SFM *promotes* the
    secondary in place.  ``inflight`` counts duplexed writes between
    their primary-apply and secondary-leg completion — the
    duplex-consistency invariant only compares instances when it is zero
    (the protocol is quiesced).
    """

    def __init__(self, services: "XesServices", name: str, model: str,
                 factory: Callable[[], Structure]):
        self.services = services
        self.name = name
        self.model = model
        #: builds an empty structure instance (used by re-duplexing)
        self.factory = factory
        self.primary: Optional[Structure] = None
        self.secondary: Optional[Structure] = None
        self.connections: List["DuplexedConnection"] = []
        self.inflight = 0
        # lifecycle counters (surfaced as chaos observables)
        self.switches = 0
        self.breaks = 0
        self.reestablishes = 0
        #: True while the background re-establish loop is running
        self.reduplexing = False
        #: callback(pair, reason) — Sysplex/SFM records the degraded
        #: event and schedules the background re-duplex
        self.on_break: Optional[Callable] = None

    @property
    def active(self) -> bool:
        """True while duplexed writes should run both legs."""
        s = self.secondary
        return (s is not None and not s.lost
                and s.facility is not None and not s.facility.failed)

    def drop_secondary(self, reason: str) -> None:
        """Fall back to simplex: discard the secondary instance."""
        s = self.secondary
        if s is None:
            return
        self.secondary = None
        self.breaks += 1
        if s.facility is not None and not s.facility.failed:
            s.facility.deallocate(s.name)
        for conn in self.connections:
            conn.sec_structure = None
            conn.sec_port = None
            conn.sec_connector = None
        if self.on_break is not None:
            self.on_break(self, reason)

    def purge_connector(self, connector: Connector) -> None:
        """Purge one connector's state from the current secondary.

        Safe for connectors that were never attached to this secondary
        instance: a break + re-establish while the owning system was
        dead-but-undetected clones the primary's registrations for that
        connector into the fresh secondary without ever attaching the
        connection — fencing must still scrub them from both instances.
        """
        sec = self.secondary
        if sec is None or sec.lost:
            return
        mirror = sec.connectors.get(connector.conn_id)
        if mirror is not None:
            sec.disconnect(mirror)
        else:
            sec._purge_connector(connector)

    def promote(self) -> None:
        """Duplex switch: the secondary becomes the (simplex) primary.

        Rebinds every connection in place, so subsystems holding the
        connection object keep working without re-wiring.
        """
        self.primary = self.secondary
        self.secondary = None
        self.switches += 1
        for conn in self.connections:
            if conn.sec_structure is None:
                continue
            conn.structure = conn.sec_structure
            conn.port = conn.sec_port
            conn.connector = conn.sec_connector
            conn.sec_structure = None
            conn.sec_port = None
            conn.sec_connector = None


class DuplexedConnection(XesConnection):
    """A connection backed by a duplexed structure pair.

    System-managed duplexing (paper §3.3: "Multiple CF's can be connected
    for availability") splits every mutating command (``write=True``)
    into two legs.  The primary leg carries the command and, atomically
    with it at primary command-execution time, applies the same ``op`` to
    the secondary instance whenever one exists by then.  Both instances
    therefore apply every operation in the primary's execution order,
    and a quiesced pair always byte-agrees.  The secondary leg then pays
    the second round trip: link occupancy on the path to the secondary
    CF plus CF processor service there.  The requester sees roughly
    double the CF command cost while duplexed, which is the steady-state
    overhead EXP-DUPLEX sweeps against recovery time.  A failure on the
    secondary leg breaks the pair to simplex; the primary result already
    stands, so the caller never sees the break.  Reads run against the
    primary alone.
    """

    def __init__(self, services: "XesServices", node: SystemNode,
                 structure: Structure, port: CfPort, connector: Connector,
                 pair: DuplexPair):
        super().__init__(services, node, structure, port, connector)
        self.pair = pair
        self.sec_structure: Optional[Structure] = None
        self.sec_port: Optional[CfPort] = None
        self.sec_connector: Optional[Connector] = None

    # -- the duplexed-write protocol --------------------------------------
    def _both(self, op: Callable) -> Callable:
        """Bind ``op`` to the primary and apply it to the secondary
        atomically with it."""
        primary = self._bind(op)

        def both():
            result = primary()
            sec = self.sec_structure
            if sec is not None and not sec.lost:
                try:
                    op(sec, self.sec_connector)
                except Exception as exc:  # never poison the primary leg
                    self.pair.drop_secondary(
                        f"mirror:{type(exc).__name__}")
            return result
        return both

    def sync(self, op: Callable, write: bool = False, **kw) -> Generator:
        return self._issue("sync", op, write, kw)

    def async_(self, op: Callable, write: bool = False, **kw) -> Generator:
        return self._issue("async_", op, write, kw)

    def _issue(self, mode: str, op: Callable, write: bool,
               kw: dict) -> Generator:
        primary_leg = getattr(self.port, mode)
        if not write:
            return primary_leg(self._bind(op), **kw)
        if not self.pair.active:
            # simplex at issue time — but a concurrent re-duplex may
            # attach a secondary before this command *executes* at the
            # CF, so keep the wrap: ``_both`` re-checks at execution
            # time and applies ``op`` there iff a secondary exists by
            # then (the write rides the copy stream, no second round
            # trip)
            return primary_leg(self._both(op), **kw)
        return self._duplexed(mode, primary_leg, self._both(op), kw)

    def _duplexed(self, mode: str, primary_leg: Callable, both: Callable,
                  kw: dict) -> Generator:
        pair = self.pair
        pair.inflight += 1
        try:
            result = yield from primary_leg(both, **kw)
            port = self.sec_port
            if port is not None:  # else applying ``op`` broke the pair
                try:
                    yield from getattr(port, mode)(_noop, **kw)
                except SystemDown:
                    raise  # the *issuing* system died, not the secondary
                except Exception as exc:
                    pair.drop_secondary(type(exc).__name__)
        finally:
            pair.inflight -= 1
        return result

    # -- bookkeeping -------------------------------------------------------
    def instances(self):
        out = [(self.structure, self.connector)]
        if self.sec_structure is not None:
            out.append((self.sec_structure, self.sec_connector))
        return out

    def disconnect(self) -> None:
        super().disconnect()
        # via the pair, not the cached sec_* binding: the pair may have
        # re-established a secondary this connection never attached to
        self.pair.purge_connector(self.connector)
        if self in self.pair.connections:
            self.pair.connections.remove(self)


class XesServices:
    """Sysplex-wide structure registry and connection manager."""

    def __init__(self, sim: Simulator, config: CfConfig, trace=None,
                 streams=None):
        self.sim = sim
        self.config = config
        self.trace = trace  # Tracer or None; threaded into every CfPort
        #: RandomStreams or None; with request-level robustness enabled
        #: each system's ports share a seeded backoff-jitter stream
        self.streams = streams
        self.facilities: List[CouplingFacility] = []
        #: structure name -> DuplexPair for every duplexed structure
        self.duplex_pairs: Dict[str, DuplexPair] = {}
        self.rebuilds = 0
        self.rebuilds_started = 0
        #: (time, node, structure, error) rows for contributors that died
        #: mid-rebuild; the rebuild completes from the survivors
        self.contributor_failures: List[tuple] = []

    def add_facility(self, cf: CouplingFacility) -> None:
        self.facilities.append(cf)

    def live_facilities(self) -> List[CouplingFacility]:
        return [cf for cf in self.facilities if not cf.failed]

    # -- allocation / connection ----------------------------------------------
    def allocate(self, structure: Structure,
                 preferred: Optional[CouplingFacility] = None) -> CouplingFacility:
        """Place a structure in a CF (preferred, else first live one)."""
        cf = preferred if preferred is not None and not preferred.failed else None
        if cf is None:
            live = self.live_facilities()
            if not live:
                raise RuntimeError("no live coupling facility")
            cf = live[0]
        cf.allocate(structure)
        return cf

    def find(self, name: str) -> Optional[Structure]:
        # a duplexed structure resolves to its primary instance (reads
        # and new connections always target the primary)
        pair = self.duplex_pairs.get(name)
        if pair is not None and pair.primary is not None \
                and not pair.primary.lost:
            return pair.primary
        for cf in self.facilities:
            st = cf.structure(name)
            if st is not None and not st.lost:
                return st
        return None

    def _port(self, node: SystemNode, cf: CouplingFacility) -> CfPort:
        """Build a command port from ``node`` to ``cf``."""
        links = node.cf_links.get(cf.name)
        if links is None:
            raise RuntimeError(f"{node.name} has no links to {cf.name}")
        retry_rng = None
        if self.streams is not None and self.config.request_timeout is not None:
            retry_rng = self.streams.stream(f"cfretry-{node.name}")
        return CfPort(node, cf, links, self.config, trace=self.trace,
                      retry_rng=retry_rng)

    def connect(self, node: SystemNode, structure_name: str,
                on_loss: Optional[Callable[[], None]] = None) -> XesConnection:
        """Connect a subsystem on ``node`` to a named structure."""
        structure = self.find(structure_name)
        if structure is None:
            raise KeyError(f"structure {structure_name!r} not allocated")
        port = self._port(node, structure.facility)
        connector = structure.connect(node.name, on_loss)
        return XesConnection(self, node, structure, port, connector)

    # -- duplexing ----------------------------------------------------------------
    def establish_duplexing(self, structure_name: str,
                            factory: Callable[[], Structure],
                            secondary_cf: CouplingFacility) -> DuplexPair:
        """Stand up a secondary instance of an allocated structure.

        Called at wiring time (before any connections): the secondary
        starts empty, exactly like the primary.
        """
        primary = self.find(structure_name)
        if primary is None:
            raise KeyError(f"structure {structure_name!r} not allocated")
        if secondary_cf is primary.facility:
            raise ValueError("secondary CF must differ from the primary's")
        secondary = factory()
        secondary_cf.allocate(secondary)
        pair = DuplexPair(self, structure_name, primary.model, factory)
        pair.primary = primary
        pair.secondary = secondary
        self.duplex_pairs[structure_name] = pair
        return pair

    def connect_duplexed(self, node: SystemNode, structure_name: str,
                         on_loss: Optional[Callable[[], None]] = None
                         ) -> XesConnection:
        """Connect to a structure, duplex-aware.

        Falls back to a plain connection when the structure is not (or
        no longer) duplexed.  The secondary connector is forced to the
        primary's conn_id, and for vector-bearing models the secondary
        shares the connector's *real* local vector — bit vectors live in
        protected processor storage per system, not per structure copy.
        """
        pair = self.duplex_pairs.get(structure_name)
        if pair is None:
            return self.connect(node, structure_name, on_loss)
        base = self.connect(node, structure_name, on_loss)
        conn = DuplexedConnection(self, node, base.structure, base.port,
                                  base.connector, pair)
        if pair.secondary is not None:
            self._attach_secondary(conn)
        pair.connections.append(conn)
        return conn

    def _attach_secondary(self, conn: DuplexedConnection) -> None:
        """Wire one connection's secondary side (connect + share vector)."""
        pair = conn.pair
        secondary = pair.secondary
        conn.sec_port = self._port(conn.node, secondary.facility)
        conn.sec_connector = secondary.connect(
            conn.node.name, conn_id=conn.connector.conn_id)
        primary_vectors = getattr(pair.primary, "vectors", None)
        if primary_vectors is not None:
            cid = conn.connector.conn_id
            secondary.vectors[cid] = primary_vectors[cid]
        conn.sec_structure = secondary

    def reestablish_secondary(self, pair: DuplexPair) -> Generator:
        """Process step: re-duplex a simplex pair into a second live CF.

        Pays one costed async command (scaled by the primary's state
        size — the copy traffic), then atomically clones the primary's
        state into a fresh secondary and re-attaches every surviving
        connection.  Raises when no second CF is available or the copy
        command fails; the caller (SFM) retries later.
        """
        primary = pair.primary
        if primary is None or primary.lost:
            raise RuntimeError("no primary to re-duplex from")
        candidates = [cf for cf in self.live_facilities()
                      if cf is not primary.facility]
        if not candidates:
            raise RuntimeError("no second live CF to re-duplex into")
        target = candidates[0]
        carrier = next(
            (c for c in pair.connections
             if c.node.alive and c.connector.active), None)
        if carrier is None:
            raise RuntimeError("no surviving connection to carry the copy")
        # the copy traffic: one bulk command over the carrier's links
        port = self._port(carrier.node, target)
        units = primary.state_units()
        yield from port.async_(_noop, out_bytes=4096, data=True,
                               service_factor=max(1.0, 0.05 * units))
        # atomic at copy completion: allocate, clone, re-attach
        secondary = pair.factory()
        target.allocate(secondary)
        secondary.clone_state_from(primary)
        pair.secondary = secondary
        for conn in pair.connections:
            if conn.node.alive and conn.connector.active:
                self._attach_secondary(conn)
        pair.reestablishes += 1

    # -- rebuild ------------------------------------------------------------------
    def rebuild(self, structure_name: str, factory: Callable[[], Structure],
                contributors: Dict[SystemNode, Callable[[XesConnection], Generator]]
                ) -> Generator:
        """Process step: rebuild a lost structure into a surviving CF.

        ``factory`` builds an empty replacement; each contributor's
        generator repopulates it from that system's local state (e.g. the
        lock manager re-records every lock it holds).  Returns the new
        connections keyed by node.

        A contributor that dies mid-rebuild (its system crashes, its
        links drop, the target CF fails under it) is recorded in
        :attr:`contributor_failures` and the rebuild completes from the
        surviving contributions — a crashing peer must not hang the
        recovery every other system is waiting on.  Raises
        ``RuntimeError`` if no live CF exists to rebuild into; callers
        running inside a process should convert that into a recorded
        degraded-mode outcome (see ``Sysplex._rebuild_structures``).
        """
        self.rebuilds_started += 1
        old = None
        for cf in self.facilities:
            st = cf.structure(structure_name)
            if st is not None:
                old = st
                cf.deallocate(structure_name)
        live = self.live_facilities()
        if not live:
            raise RuntimeError("rebuild impossible: no live CF")
        target = live[0]
        if old is not None and old.facility is target:  # pragma: no cover
            target = live[-1]
        new = factory()
        target.allocate(new)

        connections: Dict[SystemNode, XesConnection] = {}
        procs = []
        for node, contribute in contributors.items():
            if not node.alive:
                continue
            conn = self.connect(node, structure_name)
            connections[node] = conn
            procs.append(
                self.sim.process(
                    self._guarded_contribution(node, structure_name,
                                               contribute(conn)),
                    name=f"rebuild-{node.name}",
                )
            )
        if procs:
            yield self.sim.all_of(procs)
        self.rebuilds += 1
        return connections

    def _guarded_contribution(self, node: SystemNode, structure_name: str,
                              contribution: Generator) -> Generator:
        """Run one contributor, absorbing its failure into a recorded row."""
        try:
            yield from contribution
        except Exception as exc:
            self.contributor_failures.append(
                (self.sim.now, node.name, structure_name,
                 type(exc).__name__)
            )
