"""Shared DASD: ESCON-attached disk devices visible to every system.

"The disks are fully connected to all processors" (paper §3.1).  Each
device has multiple channel paths (a Resource); an I/O queues for a path,
holds it for a lognormal service time, and completes.  Path failure/repair
is modeled by capacity loss with automatic reconfiguration — surviving
paths keep the device reachable, reproducing the availability property the
paper cites from the ESCON architecture [4].

Devices also support hardware RESERVE/RELEASE, which the couple-data-set
model uses for cross-system serialization (with the paper's "special
time-out logic to handle faulty processors").
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config import DasdConfig
from ..simkernel import Event, Resource, Simulator

__all__ = ["DasdDevice", "DasdFarm"]


class DasdDevice:
    """One shared disk device with multi-path access and RESERVE support."""

    def __init__(self, sim: Simulator, config: DasdConfig, rng: np.random.Generator,
                 name: str = "dasd"):
        self.sim = sim
        self.config = config
        self.rng = rng
        self.name = name
        self.paths = Resource(sim, capacity=config.paths)
        self._failed_paths = 0
        # lognormal parameterised so the mean equals config.service_mean
        sigma = config.service_sigma
        self._mu = float(np.log(config.service_mean) - 0.5 * sigma * sigma)
        self._sigma = sigma
        self.io_count = 0
        # RESERVE state: holder token or None, plus FIFO of waiting events.
        self._reserve_holder: Optional[object] = None
        self._reserve_queue: List[tuple] = []

    # -- I/O ---------------------------------------------------------------
    def service_time(self) -> float:
        return float(self.rng.lognormal(self._mu, self._sigma))

    def io(self, pages: int = 1, priority: int = 1):
        """Process step: one I/O of ``pages`` pages (sequential chaining).

        ``priority`` orders the path queue (lower = first); background
        writers (castout, deferred write) run at lower priority so they
        never starve demand reads.  On a collapsing simulator an idle path
        is held with no grant event, so an uncontended I/O costs one
        calendar event (the service timeout) instead of two.
        """
        paths = self.paths
        req = paths.acquire(priority)
        try:
            if req is not None:
                yield req
            t = self.service_time()
            if pages > 1:
                # chained pages ride the same positioning: transfer-only adds
                t += (pages - 1) * self.config.page_size / 17e6  # ESCON 17MB/s
            self.io_count += 1
            yield self.sim.timeout(t)
        finally:
            paths.drop(req)

    # -- path availability ------------------------------------------------------
    def fail_path(self) -> None:
        """Take one channel path out of service (dynamic reconfiguration)."""
        if self._failed_paths < self.config.paths - 1:
            self._failed_paths += 1
            self.paths.capacity -= 1

    def repair_path(self) -> None:
        if self._failed_paths > 0:
            self._failed_paths -= 1
            paths = self.paths
            # close the busy area at the old occupancy before the freed
            # path grants a waiter: the hand-off itself does not account
            paths._account()
            paths.capacity += 1
            paths._dispatch()

    @property
    def available_paths(self) -> int:
        return self.config.paths - self._failed_paths

    # -- RESERVE / RELEASE --------------------------------------------------------
    def reserve(self, holder: object) -> Event:
        """Acquire the device-level hardware reserve (FIFO)."""
        ev = Event(self.sim)
        if self._reserve_holder is None:
            self._reserve_holder = holder
            ev.succeed(holder)
        else:
            self._reserve_queue.append((holder, ev))
        return ev

    def release(self, holder: object) -> None:
        if self._reserve_holder is not holder:
            return
        if self._reserve_queue:
            nxt, ev = self._reserve_queue.pop(0)
            self._reserve_holder = nxt
            ev.succeed(nxt)
        else:
            self._reserve_holder = None

    def break_reserve(self, holder: object) -> None:
        """Forcibly clear a reserve held by a failed system (timeout logic)."""
        if self._reserve_holder is holder:
            self.release(holder)

    @property
    def reserved_by(self) -> Optional[object]:
        return self._reserve_holder


class DasdFarm:
    """A set of devices with pages striped across them."""

    def __init__(self, sim: Simulator, config: DasdConfig, rng: np.random.Generator,
                 n_devices: int = 16):
        if n_devices < 1:
            raise ValueError("need at least one device")
        self.sim = sim
        self.config = config
        self.devices = [
            DasdDevice(sim, config, rng, name=f"dasd{i}") for i in range(n_devices)
        ]

    def device_for(self, page: int) -> DasdDevice:
        return self.devices[page % len(self.devices)]

    def read_page(self, page: int):
        """Process step: read one page from its device."""
        yield from self.device_for(page).io(pages=1)

    def write_page(self, page: int, priority: int = 1):
        """Process step: write one page to its device."""
        yield from self.device_for(page).io(pages=1, priority=priority)

    @property
    def total_ios(self) -> int:
        return sum(d.io_count for d in self.devices)
