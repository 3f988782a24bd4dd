"""Workload Manager: policy-driven resource management and routing.

Paper §2.1/§5.1: WLM dynamically manages system resources against
workload objectives and "is a key component in sysplex-wide workload
balancing mechanisms".  The model provides:

* per-system **utilization sampling** (EWMA over a fixed interval),
* **service classes** with response-time goals and a performance index
  (achieved / goal — over 1.0 means the goal is missed),
* **routing recommendations**: the probability-weighted server selection
  used by VTAM generic resources for session binds and by the
  transaction managers for individual work requests ("work can be
  directed to other less-utilized system nodes", §2.3); each
  recommendation advances the stream by exactly one uniform draw,
  however many systems are live,
* the restart-placement advice ARM consumes (§2.5: ARM "is integrated
  with the WLM so that it can provide a target restart system based on
  the current resource utilization").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from ..config import WlmConfig
from ..hardware.system import SystemNode
from ..simkernel import Simulator, Tally

__all__ = ["WorkloadManager", "ServiceClass"]


@dataclass
class ServiceClass:
    """A named workload goal: average response time target."""

    name: str
    response_goal: float
    importance: int = 2
    responses: Tally = field(default_factory=lambda: Tally())

    def performance_index(self) -> float:
        """Achieved / goal.  <1 good, >1 missing the goal.  NaN if no data."""
        return self.responses.mean / self.response_goal


class _SystemState:
    __slots__ = ("node", "util", "area_prev")

    def __init__(self, node: SystemNode):
        self.node = node
        self.util = 0.0
        self.area_prev = node.cpu.engines.busy_area()


class WorkloadManager:
    """Sysplex-wide WLM view (each MVS runs WLM; they share this state
    through the CF — modeled as one council object, costs in the sampler)."""

    def __init__(self, sim: Simulator, config: WlmConfig,
                 rng: np.random.Generator):
        self.sim = sim
        self.config = config
        self.rng = rng
        self._systems: Dict[str, _SystemState] = {}
        self.service_classes: Dict[str, ServiceClass] = {}
        self.define_service_class("OLTP", config.response_goal)

    # -- systems ----------------------------------------------------------
    def watch(self, node: SystemNode) -> None:
        """Begin sampling a system's utilization."""
        if node.name in self._systems:
            return
        self._systems[node.name] = _SystemState(node)
        self.sim.process(self._sampler(node), name=f"wlm-{node.name}")

    def _sampler(self, node: SystemNode):
        state = self._systems[node.name]
        alpha = self.config.smoothing
        interval = self.config.interval
        while True:
            yield self.sim.timeout(interval)
            if not node.alive:
                state.util = 1.0  # dead systems are never recommended
                state.area_prev = node.cpu.engines.busy_area()
                continue
            area = node.cpu.engines.busy_area()
            window = (area - state.area_prev) / (interval * node.cpu.n_cpus)
            state.area_prev = area
            state.util = alpha * window + (1 - alpha) * state.util

    def utilization(self, name: str) -> float:
        state = self._systems.get(name)
        return state.util if state else 0.0

    # -- routing recommendations -----------------------------------------------
    def _weights(self, candidates: Sequence[SystemNode]) -> np.ndarray:
        weights = []
        for node in candidates:
            util = self.utilization(node.name)
            capacity = node.cpu.config.effective_engines() * node.cpu.config.speed
            weights.append(max(1e-6, (1.0 - min(util, 1.0))) * capacity)
        return np.asarray(weights)

    def select_system(self, candidates: Sequence[SystemNode]) -> SystemNode:
        """Weighted-random routing recommendation among live systems.

        Weight = available capacity (headroom x engine capacity), so a
        newly added or under-utilized system naturally attracts work "at an
        increased rate ... until its utilization has reached steady-state"
        (paper §2.4).

        The draw is ``Generator.choice(len(live), p=w / w.sum())``
        written out: one ``random()`` against the normalised cumulative
        weights, the same index and the same stream position, without
        ``choice``'s validation of ``p`` (which cost most of the call).
        A single live system builds no weights but still takes its draw,
        as ``choice(1, p=[1.0])`` does.
        """
        live = [n for n in candidates if n.alive]
        if not live:
            raise RuntimeError("no live system to route to")
        u = self.rng.random()
        if len(live) == 1:
            return live[0]
        w = self._weights(live)
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        return live[int(cdf.searchsorted(u, side="right"))]

    def least_utilized(self, candidates: Sequence[SystemNode]) -> SystemNode:
        """Deterministic pick for restart placement (ARM)."""
        live = [n for n in candidates if n.alive]
        if not live:
            raise RuntimeError("no live system available")
        return min(live, key=lambda n: self.utilization(n.name))

    # -- service classes --------------------------------------------------------
    def define_service_class(self, name: str, response_goal: float,
                             importance: int = 2) -> ServiceClass:
        sc = ServiceClass(name, response_goal, importance)
        self.service_classes[name] = sc
        return sc

    def record_response(self, service_class: str, response_time: float) -> None:
        sc = self.service_classes.get(service_class)
        if sc is not None:
            sc.responses.record(response_time)

    def performance_index(self, service_class: str) -> float:
        sc = self.service_classes.get(service_class)
        return sc.performance_index() if sc else float("nan")

    def dispatch_priority(self, service_class: str) -> int:
        """CPU dispatch priority for a class (1 = highest).

        Goal mode in miniature: importance maps to priority, so
        discretionary/batch work (importance >= 3) runs beneath the
        response-goal classes and cannot push them off their goals.
        """
        sc = self.service_classes.get(service_class)
        if sc is None:
            return 3
        return max(1, min(9, sc.importance))

