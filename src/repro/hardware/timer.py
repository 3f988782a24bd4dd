"""Sysplex Timer and per-system time-of-day clocks.

The Sysplex Timer (9037) is the common time reference that lets every
system trust timestamps produced by every other system (paper §3.1).  Each
system's TOD clock drifts at a fixed ppm rate and is *steered* back toward
the reference at every synchronisation interval, so cross-system skew is
bounded — the invariant the database log-merge and lock-recovery protocols
rely on, and which the test suite checks.
"""

from __future__ import annotations

from typing import List

from ..simkernel import Simulator

__all__ = ["SysplexTimer", "TodClock"]


class TodClock:
    """A system's time-of-day clock: reference time + drift, steered."""

    def __init__(self, sim: Simulator, drift_ppm: float = 0.0):
        self.sim = sim
        self.drift_ppm = drift_ppm
        self._base_sim = sim.now  # sim time of last steering
        self._base_tod = sim.now  # TOD value at last steering
        self._last_read = self._base_tod

    def read(self) -> float:
        """Current TOD value.  Monotonic non-decreasing by construction."""
        elapsed = self.sim.now - self._base_sim
        tod = self._base_tod + elapsed * (1.0 + self.drift_ppm * 1e-6)
        # A steering correction may step the clock backward relative to the
        # drifted value; real TOD steering slews instead of stepping, which
        # we approximate by clamping to the last value read.
        if tod < self._last_read:
            tod = self._last_read
        self._last_read = tod
        return tod

    def steer(self, reference: float) -> None:
        """Synchronise to the Sysplex Timer's reference time."""
        self._base_sim = self.sim.now
        self._base_tod = reference

    def skew(self) -> float:
        """Signed offset of this clock from true simulated time."""
        elapsed = self.sim.now - self._base_sim
        tod = self._base_tod + elapsed * (1.0 + self.drift_ppm * 1e-6)
        return tod - self.sim.now


class SysplexTimer:
    """Central reference clock that periodically steers attached TODs."""

    def __init__(self, sim: Simulator, sync_interval: float = 1.0):
        self.sim = sim
        self.sync_interval = sync_interval
        self.clocks: List[TodClock] = []
        self._running = False

    def attach(self, drift_ppm: float = 0.0) -> TodClock:
        """Create and register a TOD clock for one system."""
        clock = TodClock(self.sim, drift_ppm)
        self.clocks.append(clock)
        if not self._running:
            self._running = True
            self.sim.process(self._sync_loop(), name="sysplex-timer")
        return clock

    def _sync_loop(self):
        while True:
            yield self.sim.timeout(self.sync_interval)
            reference = self.sim.now
            for clock in self.clocks:
                clock.steer(reference)

    def max_skew(self) -> float:
        """Largest pairwise clock disagreement right now."""
        if len(self.clocks) < 2:
            return 0.0
        offsets = [c.skew() for c in self.clocks]
        return max(offsets) - min(offsets)
