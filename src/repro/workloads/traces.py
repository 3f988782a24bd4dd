"""Demand-fluctuation traces.

Paper §2.3: "Significant fluctuations in the demand for system processor
resources and access to data occur during real-time workload execution" —
and these "real-time spikes and troughs" are precisely what breaks
capacity planning for data-partitioned systems.  A trace gives each
system's *offered* arrival-rate multiplier over time; EXP-BAL drives both
architectures with the same trace.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["DemandTrace", "rotating_hotspot_trace"]


class DemandTrace:
    """Per-stream arrival-rate multipliers as piecewise-constant steps."""

    def __init__(self, n_streams: int, step: float,
                 multipliers: Sequence[Sequence[float]]):
        """``multipliers[k][i]`` scales stream ``i`` during step ``k``."""
        if n_streams < 1 or step <= 0:
            raise ValueError("need streams and a positive step")
        self.n_streams = n_streams
        self.step = step
        self.multipliers = [list(row) for row in multipliers]
        for row in self.multipliers:
            if len(row) != n_streams:
                raise ValueError("each step needs one multiplier per stream")

    def multiplier(self, t: float, stream: int) -> float:
        if not self.multipliers:
            return 1.0
        k = min(int(t / self.step), len(self.multipliers) - 1)
        return self.multipliers[k][stream]

    def peak(self) -> float:
        return max(max(row) for row in self.multipliers) if self.multipliers else 1.0


def rotating_hotspot_trace(n_streams: int, step: float, n_steps: int,
                           spike_factor: float = 3.0,
                           base: float = 0.6) -> DemandTrace:
    """Deterministic version: the hot stream rotates round-robin."""
    rows: List[List[float]] = []
    for k in range(n_steps):
        row = [base] * n_streams
        row[k % n_streams] = spike_factor
        total = sum(row)
        rows.append([v * n_streams / total for v in row])
    return DemandTrace(n_streams, step, rows)
