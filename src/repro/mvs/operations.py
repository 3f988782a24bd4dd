"""Sysplex operations: the single point of control (paper §2.1).

"While the S/390 Parallel Sysplex is physically comprised of multiple MVS
systems, it has been designed to logically present ... a single point of
control to the systems operations staff."

:class:`OperationsConsole` is that point of control: sysplex-wide status
display and the VARY commands used for planned reconfiguration.  The
graceful path (§2.5's planned outage) is QUIESCE → drain → remove: the
target stops accepting new work (the router immediately redistributes),
in-flight transactions complete normally, and only then does the system
leave — so a planned removal loses *zero* transactions, unlike a crash.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from ..hardware.system import SystemNode
from ..simkernel import Simulator

__all__ = ["OperationsConsole"]


class OperationsConsole:
    """Operator's view of (and levers over) the whole sysplex."""

    def __init__(self, sysplex):
        self.sysplex = sysplex
        self.sim: Simulator = sysplex.sim
        self.command_log: List[tuple] = []

    # -- display ------------------------------------------------------------
    def display_status(self) -> Dict[str, dict]:
        """D XCF-style status of every system, one call, one place."""
        plex = self.sysplex
        out: Dict[str, dict] = {}
        for name, inst in plex.instances.items():
            node = inst.node
            state = (
                "ACTIVE" if node.alive and inst.tm.available
                else "QUIESCED" if node.alive
                else "FENCED" if node.fenced
                else "DOWN"
            )
            out[name] = {
                "state": state,
                "cpus": node.cpu.n_cpus,
                "util": round(plex.wlm.utilization(name), 3),
                "active_tasks": inst.tm.tasks.in_use,
                "completed": inst.tm.completed,
                "in_sysplex": plex.monitor.in_sysplex.get(name, False),
            }
        return out

    # -- planned reconfiguration ------------------------------------------------
    def vary_offline(self, node: SystemNode,
                     drain_timeout: float = 60.0) -> Generator:
        """Process step: gracefully remove a system (planned outage).

        Quiesce (no new work routed there), drain the accepted work —
        both running tasks and the region queue — then leave the sysplex
        and stop.  Returns True if the drain completed; if the operator's
        ``drain_timeout`` expires first, the removal is forced and the
        remaining tasks are lost (they show up in ``txn.failed``).
        """
        self.command_log.append((self.sim.now, f"VARY {node.name},OFFLINE"))
        plex = self.sysplex
        inst = plex.instances[node.name]
        # 1. quiesce: the TM stops accepting; routers skip it immediately
        inst.tm.quiesced = True
        # 2. drain: wait for in-flight tasks to finish (bounded)
        deadline = self.sim.now + drain_timeout
        while ((inst.tm.tasks.in_use > 0 or inst.tm.tasks.queue_length > 0)
               and self.sim.now < deadline):
            yield self.sim.timeout(0.02)
        drained = inst.tm.tasks.in_use == 0 and inst.tm.tasks.queue_length == 0
        # 3. leave: the system leaves the sysplex, then the image stops;
        # the monitor is told this is planned so SFM does not "detect" it
        plex.monitor.remove_planned(node)
        if inst.castout is not None:
            inst.castout.stop()
            plex._reassign_castout(exclude=node)
            inst.castout = None
        for xes in (inst.xes_lock, inst.xes_cache, inst.xes_list):
            if xes is not None and not xes.structure.lost:
                # connection-level disconnect: a duplexed secondary is
                # purged of this connector too, not just the primary
                xes.disconnect()
        inst.db.alive = False
        node.fail()
        return drained

    def vary_online(self, node: SystemNode) -> None:
        """Bring a varied-off system back (it re-IPLs and rejoins)."""
        self.command_log.append((self.sim.now, f"VARY {node.name},ONLINE"))
        node.restart()
