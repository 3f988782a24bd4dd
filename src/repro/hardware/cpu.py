"""CPU complex model: an n-way tightly coupled multiprocessor.

Work is expressed as *service seconds on the reference engine*; consuming
it on an n-way complex inflates the time by the multiprocessor-effect
factor from :class:`repro.config.CpuConfig`.  That inflation — hardware
cache cross-invalidation, conceptual sequencing, software serialization —
is exactly the mechanism the paper blames for the TCMP roll-off in
Figure 3, so it is modeled explicitly rather than folded into throughput.
"""

from __future__ import annotations

from typing import Generator

from ..config import CpuConfig
from ..simkernel import Resource, Simulator, NORMAL

__all__ = ["CpuComplex", "SystemDown"]


class SystemDown(Exception):
    """Raised when work is attempted on a failed system."""


class CpuComplex:
    """``n_cpus`` engines with a shared dispatch queue."""

    def __init__(self, sim: Simulator, config: CpuConfig, name: str = "cpu"):
        self.sim = sim
        self.config = config
        self.name = name
        self.engines = Resource(sim, capacity=config.n_cpus)
        self._inflation = config.inflation()
        self._speed = config.speed
        self.busy_seconds = 0.0  # inflated engine-seconds actually burned
        self.offline = False
        #: >1.0 while the complex is degraded ("sick but not dead"): every
        #: CPU-second takes ``sick_factor`` times longer, but the system
        #: stays alive, heartbeats, and keeps accepting work — the hard
        #: SFM case where nothing ever trips the failure detector.
        self.sick_factor = 1.0

    # -- core consumption ---------------------------------------------------
    def consume(self, cpu_seconds: float, priority: int = NORMAL) -> Generator:
        """Process step: burn ``cpu_seconds`` of reference-engine work.

        Queues for an engine, holds it for the MP-inflated duration, and
        releases.  Yields from inside a process.  On a collapsing
        simulator an idle engine is held with no grant event
        (:meth:`Resource.acquire <repro.simkernel.Resource.acquire>`):
        timing and busy-area accounting are identical, only same-instant
        interleaving moves, the statistically neutral trade the collapsed
        CF sync frame makes.
        """
        if cpu_seconds <= 0:
            return
        engines = self.engines
        req = engines.acquire(priority)
        try:
            if req is not None:
                yield req
            if self.offline:
                raise SystemDown(self.name)
            burn = cpu_seconds * self._inflation / self._speed
            self.busy_seconds += burn
            # the burn's end is often the next event anyway: then the
            # clock just moves there, with no calendar event
            sim = self.sim
            t_end = sim._now + burn
            if not sim.advance_to(t_end):
                yield sim.timeout_at(t_end)
        finally:
            engines.drop(req)

    # -- degradation (sick but not dead) -------------------------------------
    def degrade(self, factor: float) -> None:
        """Slow every engine by ``factor`` without taking the system down.

        Models a sick-but-not-dead system: thermal throttling, a failing
        memory card driving recovery loops, a runaway monitor — the image
        is alive (heartbeats go out, work is accepted) but everything on
        it runs ``factor`` times slower.  Repeated calls replace, not
        stack, the factor; :meth:`recover` restores full speed.
        """
        if factor < 1.0:
            raise ValueError("degrade factor must be >= 1.0")
        self.sick_factor = factor
        self._speed = self.config.speed / factor

    def recover(self) -> None:
        """End a degradation: engines run at configured speed again."""
        self.sick_factor = 1.0
        self._speed = self.config.speed

    @property
    def degraded(self) -> bool:
        return self.sick_factor != 1.0

    def purge_queued(self) -> int:
        """Machine check: dispatchable work queued for an engine dies.

        Fails every waiting engine request with :class:`SystemDown` so
        blocked tasks learn of the failure instead of resuming whenever a
        (post-restart) engine frees up.  Returns the number purged.
        """
        purged = 0
        for _p, _s, req in list(self.engines._waiters):
            if req._key is not None and req._key is not False:
                req._key = None  # withdrawn from the queue
                if not req.triggered:
                    req.fail(SystemDown(self.name)).defused()
                purged += 1
        return purged

    # -- introspection --------------------------------------------------------
    @property
    def n_cpus(self) -> int:
        return self.config.n_cpus

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CpuComplex {self.name} {self.n_cpus}-way>"
