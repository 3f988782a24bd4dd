"""Run-level results: what every experiment reports.

A :class:`RunResult` is the normalized output of one measured simulation
window — throughput, response-time distribution, utilizations, CF and
lock statistics — so benchmark tables print uniformly across experiments.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["RunResult"]


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
