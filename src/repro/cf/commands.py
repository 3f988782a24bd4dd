"""Issuing CF commands from a system: the cost model of §3.3.

``CfPort`` binds one system to one Coupling Facility over a LinkSet and
executes structure operations with the paper's cost semantics:

* **Synchronous** — the issuing CPU *spins* for the whole round trip
  (engine held; no task switch, no cache disruption).  Round trip =
  issue CPU + 2x link latency + transfer + CF processor service
  (+ signal-completion wait for invalidating commands).  "Completion
  times measured in micro-seconds."
* **Asynchronous** — the engine is released during the trip, but the
  requester pays ``async_extra_cpu`` afterwards for task switching and
  processor cache disruption — exactly the overhead the paper says
  synchronous execution avoids.  ABL-SYNC quantifies this trade.

The actual structure mutation runs at the CF at command-execution time,
passed in as a plain closure.

**Request-level robustness** (chaos runs): with
``CfConfig.request_timeout`` set, each link round trip runs under a
timeout; a trip that times out or dies with an interface control check
(its link failed mid-flight) is redriven after seeded exponential
backoff over a surviving link, up to ``request_retries`` times.  The
structure mutation is executed at most once across redrives (the
response, not the command, is what was lost).  With the default
``request_timeout=None`` each command makes one plain attempt — no
extra events, no behavioural drift for non-chaos runs.

**Two sync paths.**  On a collapsing simulator (``Simulator(collapse=
True)``, which the ``sweep`` profile builds) a port runs the
*collapsed* frame: the same instants, resource accounting and
``cf.sync``/``cf.service`` spans as the general path in at most 3
calendar events instead of 8 (see :meth:`CfPort.sync`); a stage whose
end would be the next event anyway takes none.  Only redrive
(``request_timeout`` set) keeps such a port on the general path; a
simulator that does not collapse (``verify``) always runs it.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

import numpy as np

from ..config import CfConfig
from ..hardware.links import InterfaceControlCheck, LinkDownError, LinkSet
from ..hardware.system import SystemNode, SystemDown
from .facility import CfFailedError, CouplingFacility

__all__ = ["CfPort", "CfRequestTimeout"]

class CfRequestTimeout(Exception):
    """A CF request exhausted its timeout/retry budget without completing."""


class CfPort:
    """One system's command path to one Coupling Facility."""

    def __init__(self, node: SystemNode, cf: CouplingFacility,
                 links: LinkSet, config: CfConfig, trace=None,
                 retry_rng: Optional[np.random.Generator] = None):
        self.node = node
        self.cf = cf
        self.links = links
        self.config = config
        self.sim = node.sim
        self.trace = trace  # Tracer or None (zero-cost when disabled)
        #: seeded generator for retry-backoff jitter (only drawn from on
        #: redrives, so common-path runs consume no extra randomness)
        self.retry_rng = retry_rng
        self.sync_ops = 0
        self.async_ops = 0
        #: sync commands that completed in the collapsed frame (0 unless
        #: the collapse gate is on; subchannel fallbacks are not counted)
        self.fast_syncs = 0
        #: robustness counters (only move when request_timeout is set)
        self.timeouts = 0
        self.iccs = 0
        self.retries = 0
        # Per-port constants, resolved once at wiring time instead of per
        # command.  ``_issue_inflated`` memoizes the MP-inflation product
        # (a float pow per call otherwise) for both paths; the rest
        # flatten attribute chains for the collapsed frame, with the exact
        # expression shapes of the general path's per-command computation,
        # so the resulting floats are bit-identical.
        self._issue_inflated = config.sync_issue_cpu * node.cpu.config.inflation()
        self._latency = links.config.latency
        self._bandwidth = links.config.bandwidth
        self._cmd_service = config.cmd_service
        self._data_cmd_service = config.data_cmd_service
        self._signal_latency = config.signal_latency
        #: the collapse gate: the collapsed frame engages on a collapsing
        #: simulator only when there is no request-level robustness
        #: (chaos) for it to hide; it records the same spans as the
        #: general path
        self._collapse = node.sim.collapse and config.request_timeout is None

    # -- internals ----------------------------------------------------------
    def _service(self, fn: Callable[[], Any], data: bool, signal_wait: bool,
                 box: list, service_factor: float = 1.0,
                 abandoned: tuple | list = ()) -> Generator:
        svc = service_factor * self.config.cmd_service + (
            self.config.data_cmd_service if data else 0.0
        )
        yield from self.cf.execute(svc)
        if not box and not abandoned:
            # redrives re-pay the CF service but execute the structure
            # mutation exactly once (the first attempt may have executed
            # at the CF with only the response lost); an attempt whose
            # requester timed out on it never executes it
            box.append(fn())
        if signal_wait:
            # CF responds only after observing signal completion (§3.3.2)
            yield self.sim.timeout(self.config.signal_latency)

    def _trip_once(self, link, out_bytes: int, in_bytes: int,
                   service: Generator) -> Generator:
        """One guarded link round trip for the robust path.

        Never fails as a process: it returns the error (``None`` on
        success), so a trip that loses the timeout race in
        :meth:`_robust_trip` and fails later leaves no undefused failed
        event behind.
        """
        try:
            yield from link.occupy(out_bytes, in_bytes, service)
        except Exception as exc:
            return exc
        return None

    def _robust_trip(self, fn: Callable[[], Any], out_bytes: int,
                     in_bytes: int, data: bool, signal_wait: bool,
                     box: list, service_factor: float) -> Generator:
        """Timed, redriven link round trip (chaos-hardened path)."""
        cfg = self.config
        last_error: Exception = LinkDownError(self.links.name)
        for attempt in range(cfg.request_retries + 1):
            if not self.node.alive:
                raise SystemDown(self.node.name)
            if self.cf.failed:
                raise CfFailedError(self.cf.name)
            try:
                link = self.links.pick()
            except LinkDownError as exc:
                last_error = exc
            else:
                abandoned: list = []
                trip = self.sim.process(
                    self._trip_once(
                        link, out_bytes, in_bytes,
                        self._service(fn, data, signal_wait, box,
                                      service_factor, abandoned),
                    ),
                    name="cf-trip",
                )
                timer = self.sim.timeout(cfg.request_timeout)
                yield self.sim.any_of([trip, timer])
                if trip.triggered:
                    err = trip.value
                    if err is None:
                        if attempt:
                            self.retries += attempt
                        return
                    # classify the in-flight failure
                    if isinstance(err, (CfFailedError, SystemDown)):
                        raise err
                    if not isinstance(err, LinkDownError):
                        # structure-level errors (e.g. StructureFailedError)
                        # are real command outcomes, not link trouble
                        raise err
                    self.iccs += 1
                    last_error = err
                else:
                    # the timeout beat the response: abandon the trip.  A
                    # command on the link cannot be recalled, so it runs
                    # out its round trip, holding its subchannel and CF
                    # processor, but it no longer executes the mutation
                    abandoned.append(True)
                    self.timeouts += 1
                    last_error = CfRequestTimeout(
                        f"{self.cf.name} via {link.name}"
                    )
            if attempt >= cfg.request_retries:
                break
            backoff = cfg.retry_backoff * (2 ** attempt)
            if self.retry_rng is not None:
                backoff *= float(self.retry_rng.uniform(0.5, 1.5))
            yield self.sim.timeout(backoff)
        raise last_error

    def _trip(self, fn: Callable[[], Any], out_bytes: int, in_bytes: int,
              data: bool, signal_wait: bool, box: list,
              service_factor: float) -> Generator:
        """The link round trip: one plain attempt, or the robust redriven
        trip when ``request_timeout`` is set."""
        if self.config.request_timeout is None:
            link = self.links.pick()
            yield from link.occupy(
                out_bytes, in_bytes,
                self._service(fn, data, signal_wait, box, service_factor),
            )
        else:
            yield from self._robust_trip(fn, out_bytes, in_bytes, data,
                                         signal_wait, box, service_factor)

    # -- synchronous --------------------------------------------------------
    def sync(self, fn: Callable[[], Any], out_bytes: int = 64,
             in_bytes: int = 64, data: bool = False,
             signal_wait: bool = False, service_factor: float = 1.0) -> Generator:
        """Process step: execute ``fn`` at the CF CPU-synchronously.

        Returns ``fn()``'s result.  The issuing engine is held (spinning)
        for the entire round trip — including any redrives on the robust
        path, as a spinning requester would.
        """
        if not self.node.alive:
            raise SystemDown(self.node.name)
        box: list = []
        tr = self.trace
        span = -1 if tr is None else tr.begin("cf.sync")
        if self._collapse:
            # Collapsed frame (the ``sweep`` profile): the whole round
            # trip runs here with *scalar* resource holds — an idle
            # engine, subchannel, or CF processor is claimed as a bare
            # occupancy count (no Request object, no grant event, no
            # ``yield``) — and every merged stop lands on the bit-identical
            # float instant the general event chain would have produced
            # (absolute-time scheduling via ``timeout_at``; same expression
            # shapes for every sum).  A busy CF processor queues from the
            # exact same instant; a busy subchannel hands the trip to the
            # general path.  Net: at most 3 calendar events instead of 8
            # and no per-stage allocation; a stage whose end precedes
            # every calendar entry takes no event at all
            # (``Simulator.advance_to``).  Merged events are *created*
            # earlier, so at saturation — where constant costs phase-lock
            # commands onto the same float instants — two commands
            # reaching the CF in one instant can pop in a different order
            # than on the general path: statistically neutral, not
            # byte-identical to ``verify``.
            sim = self.sim
            cpu = self.node.cpu
            engines = cpu.engines
            ereq = engines.acquire()
            start = -1.0
            try:
                if ereq is not None:
                    yield ereq
                start = sim._now
                link = None
                try:
                    link = self.links.pick()
                except LinkDownError:
                    pass
                if link is None or not link.subchannels.claim():
                    # subchannel contention (or no operational link):
                    # general path from here — its own pick() at
                    # issue-complete time, its own queueing and error
                    # timing
                    yield sim.timeout(self._issue_inflated)
                    yield from self._trip(fn, out_bytes, in_bytes, data,
                                          signal_wait, box, service_factor)
                    self.sync_ops += 1
                    return box[0]
                subchannels = link.subchannels
                try:
                    # engine-grant time -> command arrival at the CF:
                    # issue CPU, then one-way latency + transfer, one
                    # merged event
                    transfer = (out_bytes + in_bytes) / self._bandwidth
                    t_arrive = (sim._now + self._issue_inflated) \
                        + (self._latency + transfer)
                    if not sim.advance_to(t_arrive):
                        yield sim.timeout_at(t_arrive)
                    if not link.operational:
                        raise InterfaceControlCheck(link.name)
                    cf = self.cf
                    if cf.failed:
                        raise CfFailedError(cf.name)
                    svc = service_factor * self._cmd_service + (
                        self._data_cmd_service if data else 0.0
                    )
                    # CF processor: idle -> scalar claim (same
                    # busy-area accounting, same instants);
                    # contended -> the command queues exactly as
                    # ``CouplingFacility.execute`` would, inside the
                    # same ``cf.service`` span
                    ctr = cf.trace
                    cspan = -1 if ctr is None else ctr.begin("cf.service")
                    procs = cf.processors
                    preq = procs.acquire()
                    try:
                        if preq is not None:
                            yield preq
                            if cf.failed:
                                raise CfFailedError(cf.name)
                        t_svc = sim._now + svc
                        if not sim.advance_to(t_svc):
                            yield sim.timeout_at(t_svc)
                        if cf.failed:
                            raise CfFailedError(cf.name)
                        cf.commands_executed += 1
                    finally:
                        procs.drop(preq)
                        if ctr is not None:
                            ctr.end(cspan)
                    # structure mutation at the exact
                    # service-completion instant (it may schedule XI
                    # signals from "now")
                    box.append(fn())
                    # optional signal-completion wait + return latency
                    if signal_wait:
                        t_done = (sim._now + self._signal_latency) \
                            + self._latency
                    else:
                        t_done = sim._now + self._latency
                    if not sim.advance_to(t_done):
                        yield sim.timeout_at(t_done)
                    if not link.operational:
                        raise InterfaceControlCheck(link.name)
                    link.ops += 1
                    self.fast_syncs += 1
                finally:
                    subchannels.unclaim()
            finally:
                if start >= 0.0:
                    cpu.busy_seconds += sim._now - start
                engines.drop(ereq)
                if tr is not None:
                    tr.end(span)
            self.sync_ops += 1
            return box[0]
        cpu = self.node.cpu
        req = cpu.engines.request()
        start = -1.0
        try:
            yield req
            start = self.sim.now
            # command build / response handling path length (MP-inflated)
            yield self.sim.timeout(self._issue_inflated)
            yield from self._trip(fn, out_bytes, in_bytes, data,
                                  signal_wait, box, service_factor)
        finally:
            if start >= 0.0:
                # charge the spin actually burned — previously only
                # credited on success, dropping the elapsed time when the
                # trip died mid-flight (SystemDown / CfFailedError / ICC)
                cpu.busy_seconds += self.sim.now - start
            req.cancel()
            if tr is not None:
                tr.end(span)
        self.sync_ops += 1
        return box[0]

    # -- asynchronous ----------------------------------------------------------
    def async_(self, fn: Callable[[], Any], out_bytes: int = 64,
               in_bytes: int = 64, data: bool = False,
               signal_wait: bool = False,
               service_factor: float = 1.0) -> Generator:
        """Process step: execute ``fn`` asynchronously.

        The engine is free during the link round trip, but completion costs
        ``async_extra_cpu`` (task switch + cache disruption).
        """
        if not self.node.alive:
            raise SystemDown(self.node.name)
        cpu = self.node.cpu
        box: list = []
        tr = self.trace
        span = -1 if tr is None else tr.begin("cf.async")
        try:
            yield from cpu.consume(self.config.sync_issue_cpu)
            yield from self._trip(fn, out_bytes, in_bytes, data,
                                  signal_wait, box, service_factor)
            yield from cpu.consume(self.config.async_extra_cpu)
        finally:
            if tr is not None:
                tr.end(span)
        self.async_ops += 1
        return box[0]

    @property
    def operational(self) -> bool:
        return (not self.cf.failed) and self.links.operational

