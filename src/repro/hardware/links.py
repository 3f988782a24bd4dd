"""Coupling links: the transport between a system and a Coupling Facility.

Two transports exist in a Parallel Sysplex and the paper is emphatic about
the difference:

* **Coupling links** — specialized fiber-optic channels to the Coupling
  Facility with protocols "for highly-optimized transport of commands";
  microsecond round trips, usable CPU-synchronously.  This module models
  them.
* **XCF signalling paths** (CTC-like) — general inter-system messaging:
  hundreds of microseconds of latency plus real CPU (SRB dispatch,
  interrupt handling) at both ends.  This is the "message passing
  overhead" that data-sharing via the CF *avoids* and the shared-nothing
  baseline pays constantly.  It has no transport object here: each
  sender — transaction shipping, lock negotiation, DSS fan-out and the
  baselines — charges ``XcfConfig.message_latency`` and ``message_cpu``
  where it sends.
"""

from __future__ import annotations

from ..config import LinkConfig
from ..simkernel import Resource, Simulator

__all__ = [
    "CouplingLink",
    "InterfaceControlCheck",
    "LinkDownError",
    "LinkSet",
]


class LinkDownError(Exception):
    """Raised when a command is attempted over a failed link set."""


class InterfaceControlCheck(LinkDownError):
    """The link carrying an in-flight command failed mid-transfer.

    Models the channel subsystem's interface-control-check condition:
    the command's fate at the CF is unknown to the requester, which must
    redrive it (over a surviving link) or surface the error.
    """


class CouplingLink:
    """One physical coupling link: subchannels + latency + bandwidth."""

    def __init__(self, sim: Simulator, config: LinkConfig, name: str = "chp"):
        self.sim = sim
        self.config = config
        self.name = name
        self.subchannels = Resource(sim, capacity=config.subchannels)
        self.operational = True
        self.ops = 0

    def occupy(self, nbytes_out: int, nbytes_in: int, cf_service):
        """Process step: hold a subchannel for one command round trip.

        ``cf_service`` is a generator performing the CF-side execution
        (queueing for a CF processor); the subchannel stays held for the
        whole round trip, like a real subchannel active with a command.
        Returns the total round-trip duration.

        If the link fails while the command is in flight, the next
        resume point raises :class:`InterfaceControlCheck` — the command
        may or may not have executed at the CF, exactly the ambiguity a
        real interface control check presents.
        """
        if not self.operational:
            raise LinkDownError(self.name)
        start = self.sim.now
        req = self.subchannels.request()
        try:
            yield req
            if not self.operational:
                raise InterfaceControlCheck(self.name)
            transfer = self.config.transfer_time(nbytes_out + nbytes_in)
            yield self.sim.timeout(self.config.latency + transfer)
            if not self.operational:
                raise InterfaceControlCheck(self.name)
            yield from cf_service
            yield self.sim.timeout(self.config.latency)
            if not self.operational:
                raise InterfaceControlCheck(self.name)
            self.ops += 1
        finally:
            req.cancel()
        return self.sim.now - start


class LinkSet:
    """All links between one system and one CF, with path selection."""

    def __init__(self, sim: Simulator, config: LinkConfig, name: str = "links"):
        self.sim = sim
        self.config = config
        self.name = name
        self.links = [
            CouplingLink(sim, config, name=f"{name}.{i}")
            for i in range(config.links_per_system)
        ]

    def pick(self) -> CouplingLink:
        """Least-busy operational link (channel subsystem path selection).

        First link wins ties (as ``min`` over the list would pick);
        written as a plain scan so the per-command path allocates no
        candidate list or key closures.
        """
        best = None
        best_busy = 0
        for link in self.links:
            if not link.operational:
                continue
            sub = link.subchannels
            busy = len(sub.users) + sub._held + len(sub._waiters)
            if best is None or busy < best_busy:
                best = link
                best_busy = busy
        if best is None:
            raise LinkDownError("all coupling links down")
        return best

    def fail_link(self, index: int = 0) -> None:
        self.links[index].operational = False

    def repair_link(self, index: int = 0) -> None:
        self.links[index].operational = True

    @property
    def operational(self) -> bool:
        return any(link.operational for link in self.links)
