"""The Coupling Facility: processors, storage, structures, signals.

Physically "hardware and specialized microcode ... based on the S/390
processor" (paper §3.3).  The model gives the CF its own processor pool (a
command queues for a CF engine and holds it for the command's service
time), storage accounting for allocated structures, and the signal path
used for cross-invalidation and list-transition notification.

Signals are the paper's signature mechanism: they are applied at the
target after ``signal_latency`` with **no target CPU consumption and no
interrupt** — the specialized link hardware updates the local vector bit
directly.  ``CouplingFacility.signal`` therefore schedules a plain
callback, never a process on the target's CPU complex.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..config import CfConfig
from ..simkernel import Resource, Simulator

__all__ = ["CouplingFacility", "CfFailedError", "StructureExistsError"]


class CfFailedError(Exception):
    """Raised when a command targets a failed Coupling Facility."""


class StructureExistsError(Exception):
    """Raised when allocating a structure name that is already allocated."""


class CouplingFacility:
    """One CF image: command engine + allocated structures."""

    def __init__(self, sim: Simulator, config: CfConfig, name: str = "CF01"):
        self.sim = sim
        self.config = config
        self.name = name
        self.processors = Resource(sim, capacity=config.n_cpus)
        self.structures: Dict[str, object] = {}
        self.failed = False
        self.commands_executed = 0
        self.signals_sent = 0
        #: optional repro.trace.Tracer — set by the sysplex builder when
        #: tracing is enabled; records per-command CF service spans
        self.trace = None
        self._failure_hooks: List[Callable[["CouplingFacility"], None]] = []

    def on_failure(self, hook: Callable[["CouplingFacility"], None]) -> None:
        """Register a callback fired when this facility fails."""
        self._failure_hooks.append(hook)

    # -- structure management ------------------------------------------------
    def allocate(self, structure) -> None:
        """Install a structure (built by the caller) into this CF."""
        if self.failed:
            raise CfFailedError(self.name)
        if structure.name in self.structures:
            raise StructureExistsError(structure.name)
        self.structures[structure.name] = structure
        structure.facility = self

    def deallocate(self, name: str) -> None:
        st = self.structures.pop(name, None)
        if st is not None:
            st.facility = None

    def structure(self, name: str):
        return self.structures.get(name)

    # -- command execution -----------------------------------------------------
    def execute(self, service_time: float):
        """Process step: run one command on a CF processor.

        Queues for a CF engine; the caller composes this inside a coupling
        link round trip.  Raises :class:`CfFailedError` if the CF dies
        before or during execution.
        """
        if self.failed:
            raise CfFailedError(self.name)
        tr = self.trace
        span = -1 if tr is None else tr.begin("cf.service")
        req = self.processors.request()
        try:
            yield req
            if self.failed:
                raise CfFailedError(self.name)
            yield self.sim.timeout(service_time)
            if self.failed:
                raise CfFailedError(self.name)
            self.commands_executed += 1
        finally:
            req.cancel()
            if tr is not None:
                tr.end(span)

    def signal(self, apply: Callable[[], None]) -> None:
        """Deliver a CF→system signal: apply after latency, zero target CPU."""
        self.signals_sent += 1
        self.sim.call_at(self.sim.now + self.config.signal_latency, apply)

    # -- failure -----------------------------------------------------------------
    def fail(self) -> None:
        """The CF dies: every structure's connectors get a loss callback."""
        if self.failed:
            return
        self.failed = True
        for st in list(self.structures.values()):
            st.on_facility_failed()
        for hook in list(self._failure_hooks):
            hook(self)

    def repair(self) -> None:
        """The CF returns to service after repair.

        CF storage is volatile across a failure: the facility comes back
        *empty* (any structures it held were lost at :meth:`fail` and
        rebuilt elsewhere, or remain lost).  It immediately becomes a
        valid allocation/rebuild target again.
        """
        if not self.failed:
            return
        for name in list(self.structures):
            self.deallocate(name)
        self.failed = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CouplingFacility {self.name} {'FAILED' if self.failed else 'up'}>"
