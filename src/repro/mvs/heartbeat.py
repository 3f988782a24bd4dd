"""System status monitoring and fail-stop enforcement (SFM).

Paper §3.2, third service: "processor heartbeat monitoring ... functions
are also provided to automatically terminate a failed processor and
disconnect the processor from its I/O devices.  This enables other
multi-system components to be designed with a 'fail-stop' strategy."

Each system writes a status timestamp into the couple data set on a fixed
interval; a detector sweep declares a system *status-missing* after the
configured number of missed updates, then **fences** it: marks the node
fenced, breaks any couple-data-set reserve it held, and invokes the
partition hooks (ARM, peer recovery, workload redistribution) — the
path by which the rest of the sysplex hears of the failure.

The fencing step is what makes a flaky system safe: a node that "appears
faulty because of the heartbeat function and then resumes processing"
finds itself cut off rather than corrupting shared state.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..config import XcfConfig
from ..hardware.system import SystemNode
from ..simkernel import Simulator
from .cds import CoupleDataSet

__all__ = ["SysplexMonitor"]


class SysplexMonitor:
    """Heartbeat writer per system + sysplex-wide failure detector."""

    def __init__(self, sim: Simulator, config: XcfConfig, cds: CoupleDataSet):
        self.sim = sim
        self.config = config
        self.cds = cds
        self.nodes: List[SystemNode] = []
        self._partition_hooks: List[Callable[[SystemNode], None]] = []
        self._rejoin_hooks: List[Callable[[SystemNode], None]] = []
        #: systems currently considered in the sysplex by the detector
        self.in_sysplex: Dict[str, bool] = {}
        self.detections = 0
        self.detection_log: List[tuple] = []
        self._detector_started = False

    # -- wiring ----------------------------------------------------------------
    def on_partition(self, hook: Callable[[SystemNode], None]) -> None:
        """Called after a system has been fenced and partitioned out."""
        self._partition_hooks.append(hook)

    def on_rejoin(self, hook: Callable[[SystemNode], None]) -> None:
        self._rejoin_hooks.append(hook)

    def add_system(self, node: SystemNode) -> None:
        """Start heartbeating for a (newly active) system."""
        if node not in self.nodes:
            self.nodes.append(node)
        self.in_sysplex[node.name] = True
        self.sim.process(self._heartbeat_loop(node), name=f"hb-{node.name}")
        node.on_restart(self._system_restarted)
        if not self._detector_started:
            self._detector_started = True
            self.sim.process(self._detector_loop(), name="sfm-detector")

    # -- heartbeat writer ----------------------------------------------------------
    def _heartbeat_loop(self, node: SystemNode):
        interval = self.config.heartbeat_interval
        while node.alive:
            stamp = node.tod.read() if node.tod is not None else self.sim.now
            yield from self.cds.update(node.name, f"status:{node.name}", stamp)
            yield self.sim.timeout(interval)

    def _system_restarted(self, node: SystemNode) -> None:
        """A failed system came back: resume heartbeats and rejoin."""
        self.in_sysplex[node.name] = True
        self.sim.process(self._heartbeat_loop(node), name=f"hb-{node.name}")
        for hook in self._rejoin_hooks:
            hook(node)

    # -- detector / SFM ---------------------------------------------------------------
    def _detector_loop(self):
        interval = self.config.heartbeat_interval
        threshold = interval * (self.config.heartbeat_misses + 0.5)
        while True:
            yield self.sim.timeout(interval)
            if not any(n.alive for n in self.nodes):
                continue
            table = yield from self.cds.read_all()
            # break reserves held past the timeout by (possibly) dead systems
            self.cds.break_stale_reserves()
            now = self.sim.now
            for node in self.nodes:
                if not self.in_sysplex.get(node.name, False):
                    continue
                stamp = table.get(f"status:{node.name}")
                if stamp is None:
                    continue  # never heartbeated yet
                if now - stamp > threshold and not node.alive:
                    self._partition(node)
                elif now - stamp > threshold and node.alive:
                    # Status missing but the processor may still be running:
                    # fail-stop policy terminates it outright (SFM ISOLATETIME).
                    node.fail()
                    self._partition(node)

    def _partition(self, node: SystemNode) -> None:
        """Fence and remove a status-missing system."""
        self.detections += 1
        self.detection_log.append((self.sim.now, node.name))
        self.in_sysplex[node.name] = False
        node.fence()
        self.cds.break_reserve_of(node.name)
        for hook in self._partition_hooks:
            hook(node)

    def remove_planned(self, node: SystemNode) -> None:
        """Planned removal: the system leaves without failure semantics
        (the caller has already drained work), so the detector neither
        counts it nor runs the partition hooks."""
        self.in_sysplex[node.name] = False
