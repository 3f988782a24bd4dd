"""Measurement primitives: counters and tallies.

These feed the experiment harness; every per-transaction metric the
benchmark tables print comes from one of these two collectors (resource
utilization is time-weighted by the resources themselves).
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

__all__ = ["Counter", "Tally", "MetricSet"]


class Counter:
    """A monotonically increasing event count."""

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n


class Tally:
    """Collects individual observations (e.g. response times)."""

    def __init__(self, name: str = ""):
        self.name = name
        self._values: List[float] = []

    def record(self, value: float) -> None:
        self._values.append(value)

    @property
    def n(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        return float(np.mean(self._values)) if self._values else math.nan

    @property
    def maximum(self) -> float:
        return float(np.max(self._values)) if self._values else math.nan

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100])."""
        if not self._values:
            return math.nan
        return float(np.percentile(self._values, q))

    def percentiles(self, qs) -> List[float]:
        """Several percentiles in one pass (one sort instead of len(qs)).

        Values are identical to calling :meth:`percentile` per ``q``;
        result collection (e.g. p50/p90/p95/p99 at window close) uses
        this batched form.
        """
        if not self._values:
            return [math.nan] * len(qs)
        return [float(v) for v in np.percentile(self._values, list(qs))]

    def reset(self) -> None:
        self._values.clear()


class MetricSet:
    """A named bag of collectors with lazy creation."""

    def __init__(self, sim):
        self.sim = sim
        self.counters: Dict[str, Counter] = {}
        self.tallies: Dict[str, Tally] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def tally(self, name: str) -> Tally:
        t = self.tallies.get(name)
        if t is None:
            t = self.tallies[name] = Tally(name)
        return t
