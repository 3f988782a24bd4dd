"""Run-level results: what every experiment reports.

A :class:`RunResult` is the normalized output of one measured simulation
window — throughput, response-time distribution, utilizations, CF and
lock statistics — so benchmark tables print uniformly across experiments.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["RunResult", "Window"]


@dataclass
class RunResult:
    """Measurements from one simulation window."""

    label: str
    duration: float
    completed: int
    throughput: float  # transactions per simulated second
    response_mean: float
    response_p50: float
    response_p90: float
    response_p95: float
    response_p99: float
    cpu_utilization: Dict[str, float] = field(default_factory=dict)
    cf_utilization: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)
    #: failure/repair event timeline from the sysplex's injector, as
    #: ``[time, label]`` rows (empty for undisturbed runs)
    events: List[list] = field(default_factory=list)
    #: simulator events processed during the measured window (a machine
    #: cost, not a model output — excluded from serialization and from
    #: equality, see :meth:`to_dict`)
    sim_events: int = field(default=0, compare=False)

    @property
    def events_per_committed_txn(self) -> float:
        """Kernel events processed per committed transaction.

        The simulator's efficiency metric: wall time divides into
        events/txn (how much machinery one transaction costs) times
        seconds/event (kernel speed).  Fast-path work lowers the former
        without touching model results."""
        if self.completed <= 0:
            return 0.0
        return self.sim_events / self.completed

    @property
    def mean_utilization(self) -> float:
        if not self.cpu_utilization:
            return 0.0
        return float(np.mean(list(self.cpu_utilization.values())))

    @property
    def utilization_spread(self) -> float:
        """max - min system utilization: the balancing quality metric."""
        if not self.cpu_utilization:
            return 0.0
        vals = list(self.cpu_utilization.values())
        return max(vals) - min(vals)

    def to_dict(self) -> dict:
        """A plain-data (JSON-serializable) view; see :meth:`from_dict`.

        ``events`` is omitted when empty so results from undisturbed
        runs serialize byte-identically to pre-chaos versions (cache
        entries and regression baselines stay valid).  ``sim_events`` is
        always omitted: it measures the simulator, not the modeled
        sysplex, and keeping it out of payloads means kernel work that
        changes the event count cannot churn golden results.
        """
        d = asdict(self)
        if not self.events:
            del d["events"]
        del d["sim_events"]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output, losslessly."""
        return cls(**data)

    def row(self) -> str:
        return (
            f"{self.label:<28s} {self.throughput:>9.1f} tps   "
            f"rt mean {1e3 * self.response_mean:7.2f} ms   "
            f"p95 {1e3 * self.response_p95:7.2f} ms   "
            f"util {100 * self.mean_utilization:5.1f}%"
        )


class Window:
    """The measured window of one model run.

    Opening snapshots what the window subtracts: the systems' engine and
    the CFs' processor busy areas, the completed-transaction count and
    the kernel event count; it clears the tallies.  A snapshot, not a
    reset: the WLM samplers read the same busy-area counters.  A model
    opens one window at construction, so a :meth:`result` with no
    ``reset`` in between measures from t = 0.  ``nodes`` and ``cfs`` are
    the model's own lists, read live: a system added after the window
    opened counts from zero busy time (the CFs all exist at
    construction).
    """

    def __init__(self, sim, metrics, nodes: Sequence, cfs: Sequence = ()):
        self.sim = sim
        self.metrics = metrics
        self.nodes = nodes
        self.cfs = cfs
        self.reset()

    def reset(self) -> None:
        """Open the window now."""
        for tally in self.metrics.tallies.values():
            tally.reset()
        self.busy0 = {node.name: node.cpu.engines.busy_area()
                      for node in self.nodes}
        self.cf0 = [cf.processors.busy_area() for cf in self.cfs]
        self.start = self.sim.now
        self.completed0 = self.metrics.counter("txn.completed").count
        self.events0 = self.sim.events_processed

    def result(self, label: str, extras: Dict[str, float],
               events: Optional[List[list]] = None) -> RunResult:
        """Close the window at the current time into a :class:`RunResult`."""
        duration = self.sim.now - self.start
        completed = (self.metrics.counter("txn.completed").count
                     - self.completed0)
        rt = self.metrics.tally("txn.response")
        rt_p50, rt_p90, rt_p95, rt_p99 = rt.percentiles((50, 90, 95, 99))

        def util(resource, base: float, capacity: int) -> float:
            if duration <= 0:
                return 0.0
            return (resource.busy_area() - base) / (duration * capacity)

        cf_util = 0.0
        for cf, base in zip(self.cfs, self.cf0):
            cf_util = max(cf_util,
                          util(cf.processors, base, cf.config.n_cpus))
        return RunResult(
            label=label,
            duration=duration,
            completed=completed,
            throughput=completed / duration if duration > 0 else 0.0,
            response_mean=rt.mean,
            response_p50=rt_p50,
            response_p90=rt_p90,
            response_p95=rt_p95,
            response_p99=rt_p99,
            cpu_utilization={
                node.name: util(node.cpu.engines,
                                self.busy0.get(node.name, 0.0),
                                node.cpu.n_cpus)
                for node in self.nodes
                if node.alive
            },
            cf_utilization=cf_util,
            extras=extras,
            events=events or [],
            sim_events=self.sim.events_processed - self.events0,
        )
