"""A system node: one MVS image on one (possibly multiprocessor) machine.

Bundles the hardware a single sysplex member owns — CPU complex, TOD
clock, coupling links to each CF — plus the liveness state that the
failure-injection and recovery machinery manipulates.  Software components
(the heartbeat monitor) attach themselves via ``on_restart`` hooks so a
single ``restart()`` call brings the whole image back.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..config import SysplexConfig
from ..simkernel import Simulator
from .cpu import CpuComplex, SystemDown
from .links import LinkSet
from .timer import TodClock

__all__ = ["SystemNode", "SystemDown"]


class SystemNode:
    """Hardware identity of one sysplex member."""

    def __init__(self, sim: Simulator, config: SysplexConfig, index: int,
                 tod: Optional[TodClock] = None):
        self.sim = sim
        self.config = config
        self.index = index
        self.name = f"SYS{index:02d}"
        self.cpu = CpuComplex(sim, config.cpu, name=f"{self.name}.cpu")
        self.tod = tod
        #: LinkSets keyed by CF name, filled in by the sysplex builder.
        self.cf_links: Dict[str, LinkSet] = {}
        self.alive = True
        self.fenced = False
        self._restart_hooks: List[Callable[["SystemNode"], None]] = []
        self.failed_at: Optional[float] = None
        self.restarted_at: Optional[float] = None

    # -- lifecycle hooks ------------------------------------------------------
    def on_restart(self, hook: Callable[["SystemNode"], None]) -> None:
        self._restart_hooks.append(hook)

    def fail(self) -> None:
        """The image dies: its CPU stops and queued work is purged."""
        if not self.alive:
            return
        self.alive = False
        self.cpu.offline = True
        self.cpu.purge_queued()
        self.failed_at = self.sim.now

    def fence(self) -> None:
        """SFM isolation: I/O and coupling access forcibly cut off so the
        rest of the sysplex can treat the system as fail-stopped."""
        self.fenced = True

    def restart(self) -> None:
        """Bring the image back (planned re-IPL or post-repair)."""
        if self.alive:
            return
        self.alive = True
        self.cpu.offline = False
        self.fenced = False
        self.restarted_at = self.sim.now
        for hook in list(self._restart_hooks):
            hook(self)

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.alive else ("fenced" if self.fenced else "down")
        return f"<SystemNode {self.name} {state}>"

