"""Couple data sets: shared operating-system state on DASD.

Paper §3.2, second service: "efficient, shared access to operating system
resource state data ... located on shared disks", with **serialized access**
(hardware reserve with "special time-out logic to handle faulty
processors") and **duplexing** of the disks holding the state.  The
paper's "hot switching" of the duplexed pair is not modelled: no
experiment loses a couple data set.

The system status (heartbeat) table lives here.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..hardware.dasd import DasdDevice
from ..simkernel import Simulator

__all__ = ["CoupleDataSet"]


class CoupleDataSet:
    """A duplexed key-value state repository with reserve serialization."""

    def __init__(self, sim: Simulator, primary: DasdDevice,
                 alternate: Optional[DasdDevice] = None,
                 reserve_timeout: float = 5.0):
        self.sim = sim
        self.primary = primary
        self.alternate = alternate
        self.reserve_timeout = reserve_timeout
        # The logical content is one copy; duplexing buys availability,
        # not divergence.
        self._data: Dict[str, Any] = {}
        self.writes = 0
        self.reads = 0
        # reserve holder -> acquisition time, for the timeout logic
        self._reserve_taken_at: Dict[object, float] = {}

    # -- serialized update ----------------------------------------------------
    def update(self, holder: object, key: str, value: Any):
        """Process step: serialized read-modify-write of one key.

        Acquires the primary device reserve, writes primary and alternate,
        releases.  ``holder`` identifies the system for timeout logic.
        """
        dev = self.primary
        ev = dev.reserve(holder)
        yield ev
        self._reserve_taken_at[holder] = self.sim.now
        try:
            yield from dev.io()
            self._data[key] = value
            if self.alternate is not None:
                yield from self.alternate.io()  # duplexed write
            self.writes += 1
        finally:
            self._reserve_taken_at.pop(holder, None)
            dev.release(holder)

    def read(self, key: str):
        """Process step: read one key (I/O against the primary)."""
        yield from self.primary.io()
        self.reads += 1
        return self._data.get(key)

    def read_all(self):
        """Process step: scan the whole repository (status-table sweep)."""
        yield from self.primary.io()
        self.reads += 1
        return dict(self._data)

    # -- fault handling ----------------------------------------------------------
    def break_stale_reserves(self) -> int:
        """Timeout logic: free reserves held longer than the threshold
        (their holder is presumed failed).  Returns how many were broken."""
        broken = 0
        now = self.sim.now
        holder = self.primary.reserved_by
        if holder is not None:
            taken = self._reserve_taken_at.get(holder)
            if taken is not None and now - taken > self.reserve_timeout:
                self.primary.break_reserve(holder)
                self._reserve_taken_at.pop(holder, None)
                broken += 1
        return broken

    def break_reserve_of(self, holder: object) -> None:
        """Fencing support: release any reserve held by a failed system."""
        self.primary.break_reserve(holder)
        self._reserve_taken_at.pop(holder, None)
