"""VTAM generic resources: single network image for the sysplex.

Paper §5.3: users "simply logon to 'CICS' without having to specify or be
cognizant of which system their session will be dynamically bound" —
session binds are distributed for balance using WLM recommendations, with
the generic-resource affinity table kept in a CF **list structure** (one
CF command per logon records the binding).

EXP-GR compares this against the pre-sysplex alternative: every user
hard-wired to a specific application instance.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from ..cf.list import ListEntry
from ..mvs.wlm import WorkloadManager
from ..mvs.xes import XesConnection
from ..simkernel import Simulator

__all__ = ["GenericResources"]


class GenericResources:
    """The sysplex-wide generic-resource name (e.g. the name "CICS")."""

    def __init__(self, sim: Simulator, name: str, wlm: WorkloadManager,
                 nodes: List, connections: Dict[str, XesConnection],
                 affinity_header: int = 1):
        self.sim = sim
        self.name = name
        self.wlm = wlm
        self.nodes = list(nodes)
        self.connections = connections
        self.affinity_header = affinity_header
        #: user -> (system name, list entry id)
        self.sessions: Dict[object, tuple] = {}
        self.binds = 0

    def logon(self, user: object, entry_node=None) -> Generator:
        """Process step: bind a session; returns the chosen SystemNode.

        ``entry_node`` is the system whose VTAM received the logon (any —
        single image).  The bind is recorded in the CF list structure.
        """
        live = [n for n in self.nodes if n.alive]
        if not live:
            raise RuntimeError("no system available for session bind")
        if entry_node is None or not entry_node.alive:
            entry_node = live[0]
        target = self.wlm.select_system(live)
        xes = self.connections[entry_node.name]
        entry = ListEntry(key=str(user), data={"user": user, "sys": target.name})
        yield from xes.sync(
            lambda s, c: s.push(c, self.affinity_header, entry, where="keyed"),
            write=True, out_bytes=128,
        )
        self.sessions[user] = (target.name, entry.entry_id)
        self.binds += 1
        return target

    def rebind_orphans(self, failed_name: str) -> List[object]:
        """Sessions bound to a failed system: they re-logon elsewhere
        (new work is "redirected to other data-sharing instances", §2.5)."""
        orphans = [u for u, (s, _e) in self.sessions.items() if s == failed_name]
        for user in orphans:
            self.sessions.pop(user, None)
        return orphans

    def session_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {n.name: 0 for n in self.nodes}
        for _user, (sys_name, _e) in self.sessions.items():
            counts[sys_name] = counts.get(sys_name, 0) + 1
        return counts

    def balance_index(self) -> float:
        """max/mean session count across live systems (1.0 = perfect)."""
        counts = [c for name, c in self.session_counts().items()
                  if any(n.name == name and n.alive for n in self.nodes)]
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0
