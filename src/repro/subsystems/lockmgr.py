"""Global lock manager: the IRLM-like distributed lock manager.

Implements the paper's §3.3.1 division of labour:

* The **fast path** is one CPU-synchronous CF command per lock/unlock —
  "the majority of requests for locks [are] granted cpu-synchronously
  ... measured in micro-seconds."
* On contention the CF returns the holders' identities and the lock
  managers resolve it in software — "selective cross-system communication
  for lock negotiation" — which costs real CPU and messaging latency at
  both ends.  **False contention** (hash-class collision without a real
  conflict) pays the negotiation and is then granted.
* EXCL locks piggyback **record data** onto the CF request so a system
  failure leaves *retained locks* that protect in-flight updates until
  peer recovery releases them.

The *fine-grained* truth (which owner holds which resource in which mode)
is the union of the lock managers' software state; it is held in the
shared :class:`LockSpace`, which stands in for the distributed negotiation
protocol state the IRLMs keep in concert.  The CF lock table remains the
hash-class approximation — exactly its role in the real system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set, Tuple

from ..cf.lock import LockMode, LockStructure
from ..config import XcfConfig
from ..mvs.xes import XesConnection
from ..simkernel import Event, Simulator
from ..trace import traced

__all__ = ["LockSpace", "LockManager", "DeadlockAbort", "RetainedLockReject"]

#: requester-side CPU burned resolving one contention via messaging
NEGOTIATION_CPU = 150e-6
#: holder-side CPU for its half of the negotiation
HOLDER_NEGOTIATION_CPU = 100e-6


class DeadlockAbort(Exception):
    """This owner was chosen as the deadlock victim; abort and retry."""


class RetainedLockReject(Exception):
    """The requested resource is protected by a retained lock.

    Real lock managers *reject* such requests outright (IMS U3303 /
    DB2 -904 resource-unavailable) instead of queueing them — queueing
    would tie up every region's tasks behind data that cannot be granted
    until recovery completes.  The transaction fails and is counted as
    lost work during the recovery window.
    """


@dataclass
class _Waiter:
    owner: object
    mode: str
    event: Event
    manager: "LockManager"
    enqueued_at: float
    resource: object = None
    granted: bool = False


class _Resource:
    """Software-level state for one lock resource name."""

    __slots__ = ("holders", "waiters")

    def __init__(self):
        self.holders: Dict[object, str] = {}  # owner -> mode (EXCL wins)
        self.waiters: List[_Waiter] = []


class LockSpace:
    """Shared fine-grained lock state across all lock-manager instances."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._resources: Dict[object, _Resource] = {}
        #: resource -> (system_name, mode): locks of failed systems
        self.retained: Dict[object, Tuple[str, str]] = {}
        self.managers: Dict[str, "LockManager"] = {}
        self.waits = 0
        self.deadlocks = 0

    # -- helpers --------------------------------------------------------------
    def _res(self, name: object) -> _Resource:
        r = self._resources.get(name)
        if r is None:
            r = self._resources[name] = _Resource()
        return r

    @staticmethod
    def _compatible(existing: Dict[object, str], owner: object, mode: str) -> bool:
        for other, omode in existing.items():
            if other == owner:
                continue
            if omode == LockMode.EXCL or mode == LockMode.EXCL:
                return False
        return True

    def conflicts_with_retained(self, name: object, mode: str) -> bool:
        entry = self.retained.get(name)
        if entry is None:
            return False
        _, rmode = entry
        return rmode == LockMode.EXCL or mode == LockMode.EXCL

    # -- grant / release (software truth) --------------------------------------
    def try_grant(self, name: object, owner: object, mode: str) -> bool:
        r = self._res(name)
        if not self._compatible(r.holders, owner, mode):
            return False
        # EXCL upgrade wins over an existing SHR hold by the same owner
        if r.holders.get(owner) != LockMode.EXCL:
            r.holders[owner] = mode
        return True

    def enqueue(self, waiter: _Waiter, name: object) -> None:
        self._res(name).waiters.append(waiter)
        self.waits += 1

    def release(self, name: object, owner: object) -> List[_Waiter]:
        """Remove a hold and return newly grantable waiters (FIFO)."""
        r = self._resources.get(name)
        if r is None:
            return []
        r.holders.pop(owner, None)
        return self.dispatch(name)

    def dispatch(self, name: object) -> List[_Waiter]:
        """Grant as many queued waiters as compatibility (and retained
        protection) allows.

        **Conversions first**: a waiter whose owner already holds the
        resource (a SHR->EXCL upgrade) is granted ahead of queue order
        the moment it becomes compatible -- standard lock-manager
        behaviour, and necessary: a conversion stuck behind a new request
        it blocks would deadlock invisibly (the converter holds what the
        head waiter needs while queue order stops the converter forever).
        New requests then grant FIFO without overtaking.
        """
        r = self._resources.get(name)
        if r is None:
            return []
        granted: List[_Waiter] = []

        # pass 1: conversions (owner already among the holders)
        for w in list(r.waiters):
            if w.granted or w.owner not in r.holders:
                continue
            if self.conflicts_with_retained(name, w.mode):
                continue
            if self._compatible(r.holders, w.owner, w.mode):
                if r.holders.get(w.owner) != LockMode.EXCL:
                    r.holders[w.owner] = w.mode
                w.granted = True
                r.waiters.remove(w)
                granted.append(w)

        # pass 2: new requests, FIFO without overtaking
        for w in list(r.waiters):
            if w.granted:
                continue
            if self.conflicts_with_retained(name, w.mode):
                break  # protected until peer recovery completes
            if self._compatible(r.holders, w.owner, w.mode):
                if r.holders.get(w.owner) != LockMode.EXCL:
                    r.holders[w.owner] = w.mode
                w.granted = True
                r.waiters.remove(w)
                granted.append(w)
                if w.mode == LockMode.EXCL:
                    break  # an exclusive grant blocks everything behind it
            else:
                break  # FIFO fairness: don't overtake the head waiter
        if not r.holders and not r.waiters:
            del self._resources[name]
        return granted

    def remove_waiter(self, name: object, waiter: _Waiter) -> None:
        r = self._resources.get(name)
        if r is not None and waiter in r.waiters:
            r.waiters.remove(waiter)
            if not r.holders and not r.waiters:
                del self._resources[name]

    # -- retained locks ----------------------------------------------------------
    def retain_for_system(self, system_name: str, held: Dict[object, str]) -> None:
        """A system died: its EXCL locks become retained."""
        for name, mode in held.items():
            if mode == LockMode.EXCL:
                self.retained[name] = (system_name, mode)

    def clear_retained(self, system_name: str) -> List[object]:
        """Peer recovery finished: release this system's retained locks."""
        cleared = []
        for name in [n for n, (s, _) in self.retained.items() if s == system_name]:
            del self.retained[name]
            cleared.append(name)
            # queued waiters blocked by the retained protection can now go
            for w in self.dispatch(name):
                if not w.event.triggered:
                    w.event.succeed()
        return cleared

    # -- introspection -------------------------------------------------------------
    def holders_of(self, name: object) -> Dict[object, str]:
        r = self._resources.get(name)
        return dict(r.holders) if r else {}

    def wait_graph(self) -> Dict[object, Set[object]]:
        """waiter-owner -> {holder-owners} edges for deadlock detection."""
        graph: Dict[object, Set[object]] = {}
        for name, r in self._resources.items():
            for w in r.waiters:
                if w.granted:
                    continue
                blockers = {o for o in r.holders if o != w.owner}
                if blockers:
                    graph.setdefault(w.owner, set()).update(blockers)
        return graph

    def check_invariant(self) -> None:
        """2PL safety: never two incompatible holders on one resource."""
        for name, r in self._resources.items():
            excl = [o for o, m in r.holders.items() if m == LockMode.EXCL]
            if excl:
                assert len(r.holders) == 1, (
                    f"{name}: EXCL held by {excl} alongside {r.holders}"
                )


class LockManager:
    """One system's lock-manager instance (one CF connector)."""

    def __init__(self, sim: Simulator, space: LockSpace, xes: XesConnection,
                 xcf_config: XcfConfig, system_name: str, trace=None):
        self.sim = sim
        self.space = space
        self.xes = xes
        self.xcf_config = xcf_config
        self.system_name = system_name
        self.trace = trace  # Tracer or None (zero-cost when disabled)
        #: owner -> {resource -> mode} locks held through this instance
        self.held: Dict[object, Dict[object, str]] = {}
        space.managers[system_name] = self
        self.sync_grants = 0
        self.negotiations = 0
        self.alive = True

    @property
    def structure(self) -> LockStructure:
        return self.xes.structure  # type: ignore[return-value]

    # -- public API (process steps) -----------------------------------------------
    def lock(self, owner: object, resource: object, mode: str) -> Generator:
        """Acquire ``resource`` in ``mode`` for ``owner`` (a transaction).

        Raises :class:`DeadlockAbort` if this owner is chosen as a
        deadlock victim while waiting.
        """
        if not self.alive:
            from ..hardware.cpu import SystemDown

            raise SystemDown(self.system_name)
        space = self.space
        structure, conn = self.structure, self.xes.connector

        # one closure per call is load-bearing: several transactions on
        # one system lock concurrently, and the CF executes ``fn`` at
        # command-service time, long after this frame moved on
        def cf_request():
            result = structure.request(conn, resource, mode)
            if result.granted and mode == LockMode.EXCL:
                # record data piggybacked on the same command (§3.3.1)
                structure.write_record(conn, resource, {"sys": self.system_name})
            return result

        # duplexing: the same request against the secondary instance
        # (identical state => identical grant decision)
        def cf_request_mirror(s, c):
            result = s.request(c, resource, mode)
            if result.granted and mode == LockMode.EXCL:
                s.write_record(c, resource, {"sys": self.system_name})

        # Retained-lock check: updates of a failed system stay protected
        # until peer recovery completes; conflicting requests are
        # REJECTED, not queued (see RetainedLockReject).  ``retained`` is
        # empty except during a recovery window, so the common case is
        # one dict truthiness test.
        if space.retained and space.conflicts_with_retained(resource, mode):
            raise RetainedLockReject(resource)

        result = yield from self.xes.sync(cf_request, mirror=cf_request_mirror)

        if result.granted:
            if space.retained and space.conflicts_with_retained(resource,
                                                                mode):
                self._undo_interest(resource, mode)  # system died mid-request
                raise RetainedLockReject(resource)
            if space.try_grant(resource, owner, mode):
                self.sync_grants += 1
                self._note_held(owner, resource, mode)
                return
            # CF said yes but software state disagrees (another owner
            # on this same system holds it): undo the recorded
            # interest and wait locally via the common queue.
            self._undo_interest(resource, mode)
            yield from self._wait(owner, resource, mode)
            return

        yield from self._lock_contended(owner, resource, mode)

    def _undo_interest(self, resource: object, mode: str) -> None:
        """Back out interest recorded by a granted-then-rejected request.

        Applied to every instance of a duplexed pair — the mirror
        recorded the interest on the secondary too.
        """
        for structure, conn in self.xes.instances():
            structure.release(conn, resource, mode)
            if mode == LockMode.EXCL:
                structure.delete_record(conn, resource)

    def _lock_contended(self, owner: object, resource: object,
                        mode: str) -> Generator:
        """The negotiation path: the CF returned the holders' identities."""
        structure, conn = self.structure, self.xes.connector
        self.negotiations += 1
        yield from traced(self.trace, "lock.negotiate",
                          self._negotiate_cost())
        self._charge_holders(resource)

        if self.space.conflicts_with_retained(resource, mode):
            raise RetainedLockReject(resource)
        if self.space.try_grant(resource, owner, mode):
            # false contention (or holder released meanwhile): grant
            yield from self.xes.sync(
                lambda: structure.force_record(conn, resource, mode),
                mirror=lambda s, c: s.force_record(c, resource, mode),
            )
            self._note_held(owner, resource, mode)
            return
        yield from self._wait(owner, resource, mode)

    def _negotiate_cost(self) -> Generator:
        """Requester-side negotiation cost: CPU, then the XCF message."""
        yield from self.xes.node.cpu.consume(NEGOTIATION_CPU)
        yield self.sim.timeout(self.xcf_config.message_latency)

    def _wait(self, owner: object, resource: object, mode: str) -> Generator:
        waiter = _Waiter(owner, mode, Event(self.sim), self, self.sim.now,
                         resource)
        self.space.enqueue(waiter, resource)
        tr = self.trace
        span = -1 if tr is None else tr.begin("lock.wait")
        try:
            yield waiter.event
        except DeadlockAbort:
            self.space.remove_waiter(resource, waiter)
            # the abort's traceback holds this frame and the waiter's
            # event holds the abort: drop the frame's waiter so the
            # aborted wait is freed by reference count, not as a cycle
            del waiter
            raise
        finally:
            if tr is not None:
                tr.end(span)
        if not self.alive:
            # this instance died (and was swept) while we were queued; the
            # grant we just received must be handed straight back or the
            # resource leaks a hold nobody will ever release
            from ..hardware.cpu import SystemDown

            for w in self.space.release(resource, owner):
                if not w.event.triggered:
                    w.event.succeed()
            raise SystemDown(self.system_name)
        # granted by a releaser: record interest at the CF and locally
        try:
            yield from self.xes.sync(
                lambda: self.structure.force_record(
                    self.xes.connector, resource, mode),
                mirror=lambda s, c: s.force_record(c, resource, mode),
            )
        except BaseException:
            # this system died between the software grant and the CF
            # record: undo the grant so the resource isn't poisoned, and
            # wake whoever can now go
            for w in self.space.release(resource, owner):
                if not w.event.triggered:
                    w.event.succeed()
            raise
        self._note_held(owner, resource, mode)

    def _charge_holders(self, resource: object) -> None:
        """Holders pay their side of the negotiation (async CPU)."""

        def charge(mgr):
            try:
                yield from mgr.xes.node.cpu.consume(HOLDER_NEGOTIATION_CPU)
            except Exception:
                pass  # the holder died mid-negotiation: nothing to charge

        for owner, _mode in self.space.holders_of(resource).items():
            mgr = self._manager_of(owner)
            if mgr is not None and mgr.alive:
                self.sim.process(charge(mgr), name="negotiation-holder")

    def _manager_of(self, owner: object) -> Optional["LockManager"]:
        sys_name = owner[0] if isinstance(owner, tuple) else None
        return self.space.managers.get(sys_name) if sys_name else None

    def unlock(self, owner: object, resource: object, mode: str) -> Generator:
        """Release one lock: CF command + wake grantable waiters."""
        structure, conn = self.structure, self.xes.connector
        modes = self.held.get(owner, {})
        if resource not in modes:
            return

        def cf_release():
            structure.release(conn, resource, mode)
            if mode == LockMode.EXCL:
                structure.delete_record(conn, resource)

        def cf_release_mirror(s, c):
            s.release(c, resource, mode)
            if mode == LockMode.EXCL:
                s.delete_record(c, resource)

        yield from self.xes.sync(cf_release, mirror=cf_release_mirror)
        del modes[resource]
        if not modes:
            self.held.pop(owner, None)
        self._dispatch(resource, owner)

    def unlock_all(self, owner: object) -> Generator:
        """Release every lock ``owner`` holds in one batched CF command.

        IRLM releases a transaction's locks as a single commit-time sweep;
        the CF command's service time scales with the number of entries
        touched (``service_factor``), but only one link round trip is paid.
        """
        locks = list(self.held.get(owner, {}).items())
        if not locks:
            return
        structure, conn = self.structure, self.xes.connector

        def cf_release_all():
            for resource, mode in locks:
                structure.release(conn, resource, mode)
                if mode == LockMode.EXCL:
                    structure.delete_record(conn, resource)

        def cf_release_all_mirror(s, c):
            for resource, mode in locks:
                s.release(c, resource, mode)
                if mode == LockMode.EXCL:
                    s.delete_record(c, resource)

        yield from self.xes.sync(
            cf_release_all, mirror=cf_release_all_mirror,
            service_factor=max(1.0, 0.25 * len(locks))
        )
        self.held.pop(owner, None)
        for resource, _mode in locks:
            self._dispatch(resource, owner)

    def _dispatch(self, resource: object, owner: object) -> None:
        granted = self.space.release(resource, owner)
        for w in granted:
            # grant notification rides a cross-system message
            self.sim.call_at(
                self.sim.now + self.xcf_config.message_latency,
                lambda ev=w.event: ev.succeed() if not ev.triggered else None,
            )

    def abandon(self, owner: object) -> None:
        """Drop an owner's locks without costed CF commands.

        Used when the lock structure becomes unreachable (CF failure):
        the software holds must still be released so other systems'
        waiters can proceed.  If a *rebuilt* structure is already in
        place (this owner's interest was replayed into it before the
        owner's task noticed the failure), the replayed interest is
        reconciled away directly — leaving it would permanently mark the
        hash class as contended.
        """
        modes = self.held.pop(owner, {})
        pairs = self.xes.instances()
        for resource, mode in modes.items():
            for structure, conn in pairs:
                if not structure.lost and conn.active:
                    structure.release(conn, resource, mode)
                    if mode == LockMode.EXCL:
                        structure.delete_record(conn, resource)
            for w in self.space.release(resource, owner):
                if not w.event.triggered:
                    w.event.succeed()

    # -- bookkeeping -------------------------------------------------------------
    def _note_held(self, owner: object, resource: object, mode: str) -> None:
        modes = self.held.setdefault(owner, {})
        if modes.get(resource) != LockMode.EXCL:
            modes[resource] = mode

    # -- failure handling -----------------------------------------------------------
    def fail_instance(self) -> Dict[object, str]:
        """The hosting system died: convert holds to retained locks.

        Returns the retained set (resource -> mode) for recovery tracking.
        """
        self.alive = False
        all_held: Dict[object, str] = {}
        for owner, modes in self.held.items():
            for resource, mode in modes.items():
                if mode == LockMode.EXCL or resource not in all_held:
                    all_held[resource] = mode
        # Retained protection FIRST, so dispatch cannot hand a protected
        # resource to a waiter before recovery runs.
        self.space.retain_for_system(self.system_name, all_held)
        for owner, modes in self.held.items():
            for resource in modes:
                for w in self.space.release(resource, owner):
                    if not w.event.triggered:
                        w.event.succeed()
        self.held.clear()
        return {r: m for r, m in all_held.items() if m == LockMode.EXCL}


class DeadlockDetector:
    """Periodic wait-for-graph cycle detection; aborts the youngest victim."""

    def __init__(self, sim: Simulator, space: LockSpace, interval: float = 0.5):
        self.sim = sim
        self.space = space
        self.interval = interval
        self.victims = 0
        sim.process(self._loop(), name="deadlock-detector")

    def _loop(self):
        while True:
            yield self.sim.timeout(self.interval)
            self.sweep()

    def sweep(self) -> int:
        """One detection pass; returns number of victims aborted."""
        aborted = 0
        while True:
            cycle = self._find_cycle(self.space.wait_graph())
            if not cycle:
                return aborted
            victim = self._pick_victim(cycle)
            if victim is None:
                return aborted
            self._abort(victim)
            aborted += 1
            self.victims += 1
            self.space.deadlocks += 1

    @staticmethod
    def _find_cycle(graph: Dict[object, Set[object]]) -> Optional[List[object]]:
        # a node absent from ``on_stack`` is unvisited; True while it is
        # on the DFS stack, False once its subtree is finished
        on_stack: Dict[object, bool] = {}
        stack: List[object] = []
        for node in graph:
            if node not in on_stack:
                found = DeadlockDetector._dfs(graph, node, on_stack, stack)
                if found:
                    return found
        return None

    @staticmethod
    def _dfs(graph: Dict[object, Set[object]], u: object,
             on_stack: Dict[object, bool],
             stack: List[object]) -> Optional[List[object]]:
        # a static method, not a closure inside _find_cycle: a recursive
        # closure refers to itself through its cell, so every sweep would
        # leave the whole wait graph behind as a reference cycle
        on_stack[u] = True
        stack.append(u)
        # sorted: edge sets iterate in hash order, which varies with
        # PYTHONHASHSEED across interpreter invocations — the cycle
        # (and so the victim) must not depend on it
        for v in sorted(graph.get(u, ()), key=repr):
            if on_stack.get(v):
                return stack[stack.index(v):]
            if v not in on_stack and v in graph:
                found = DeadlockDetector._dfs(graph, v, on_stack, stack)
                if found:
                    return found
        stack.pop()
        on_stack[u] = False
        return None

    def _pick_victim(self, cycle: List[object]):
        # youngest waiter in the cycle (latest enqueue time)
        best, best_time = None, -1.0
        for name, r in self.space._resources.items():
            for w in r.waiters:
                if w.owner in cycle and not w.granted and w.enqueued_at > best_time:
                    best, best_time = w, w.enqueued_at
        return best

    def _abort(self, waiter: _Waiter) -> None:
        # remove from the queue NOW so this sweep's next find_cycle pass
        # sees the edge gone (the victim's process wakes strictly later)
        self.space.remove_waiter(waiter.resource, waiter)
        if not waiter.event.triggered:
            waiter.event.fail(DeadlockAbort(waiter.owner))
