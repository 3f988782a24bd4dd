"""OLTP workload generation: the CICS/DBCTL-like testbed of paper §4.

Transactions are "relatively atomic in [their] execution with respect to
other transactions" (§2.3): a handful of reads, a few updates, Zipf-skewed
page access.  Two drive modes:

* **closed loop** — a fixed population of terminals, each submitting the
  next transaction after the previous completes (plus think time).  With
  zero think time this saturates the configuration, which is how the
  effective-capacity points of Figure 3 are measured.
* **open loop** — Poisson arrivals at an offered rate, optionally shaped
  by a :class:`DemandTrace`; used for response-time and balancing
  experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

import numpy as np

from ..config import OltpConfig
from ..simkernel import Event, Simulator, zipf_weights
from .traces import DemandTrace

__all__ = ["Transaction", "PageSampler", "OltpGenerator"]


@dataclass
class Transaction:
    """One unit of OLTP work."""

    txn_id: int
    arrival: float
    home: int  # index of the system whose network endpoint received it
    reads: List[int]
    writes: List[int]
    service_class: str = "OLTP"
    done: Optional[Event] = None


class PageSampler:
    """Zipf-skewed page sampling with O(log n) draws.

    Each rejection round maps its ``k`` uniforms to page ids in numpy and
    hands back plain ints, so a transaction's pages are built without a
    numpy scalar per draw.
    """

    def __init__(self, n_pages: int, theta: float, rng: np.random.Generator):
        self.n_pages = n_pages
        self.rng = rng
        weights = zipf_weights(n_pages, theta)
        self._cum = np.cumsum(weights)
        # hot pages are scattered across the page space, not clustered at
        # the front, so partitioned baselines aren't trivially pessimal
        perm_rng = np.random.default_rng(12345)
        self._perm = perm_rng.permutation(n_pages)

    def hottest(self, k: int) -> List[int]:
        """The ``k`` most-popular page ids (for buffer-pool prewarming)."""
        return self._perm[:k].tolist()

    def sample(self, k: int) -> List[int]:
        """Draw ``k`` distinct pages (sorted, for ordered lock acquisition)."""
        out: set = set()
        # distinct-sample by rejection; skew makes duplicates common for
        # small k, so cap the attempts and top up uniformly if needed
        attempts = 0
        last = self.n_pages - 1
        while len(out) < k and attempts < 8 * k:
            ranks = np.searchsorted(self._cum, self.rng.random(k))
            for page in self._perm[np.minimum(ranks, last)].tolist():
                out.add(page)
                if len(out) >= k:
                    break
            attempts += k
        while len(out) < k:
            out.add(int(self.rng.integers(self.n_pages)))
        return sorted(out)


class OltpGenerator:
    """Drives a router (SysplexRouter-compatible: ``route(txn)``)."""

    def __init__(self, sim: Simulator, config: OltpConfig, n_pages: int,
                 n_systems: int, rng: np.random.Generator,
                 router, trace: Optional[DemandTrace] = None,
                 partition_affinity: bool = False,
                 remote_fraction: float = 0.1,
                 tracer=None):
        """``partition_affinity`` models a *tuned* partitioned workload:
        stream ``i``'s transactions predominantly access the ``i``-th
        contiguous segment of the page space (the data a shared-nothing
        system would assign to node ``i``), with ``remote_fraction`` of
        accesses landing elsewhere.  §2.3's argument is about demand
        spikes against such data segments."""
        self.sim = sim
        self.config = config
        self.n_systems = n_systems
        self.n_pages = n_pages
        self.rng = rng
        self.router = router
        self.trace = trace
        self.tracer = tracer  # span Tracer or None (distinct from trace,
        # which is the demand-shape DemandTrace)
        self.sampler = PageSampler(n_pages, config.zipf_theta, rng)
        self.partition_affinity = partition_affinity
        self.remote_fraction = remote_fraction
        if partition_affinity:
            seg = n_pages // n_systems
            self._segments = [
                (i * seg, PageSampler(seg, config.zipf_theta, rng))
                for i in range(n_systems)
            ]
        self._next_id = 0
        self.generated = 0

    # -- transaction synthesis ---------------------------------------------
    def make_transaction(self, home: int) -> Transaction:
        """Draw one transaction's pages and split them into reads and
        writes: ``writes_per_txn`` of them, picked by a permutation."""
        self._next_id += 1
        self.generated += 1
        if self.tracer is not None:
            self.tracer.count("txn.generated")
        k = self.config.reads_per_txn + self.config.writes_per_txn
        w = self.config.writes_per_txn
        if self.partition_affinity:
            offset, seg_sampler = self._segments[home % len(self._segments)]
            n_remote = int(self.rng.binomial(k, self.remote_fraction))
            local = [offset + p for p in seg_sampler.sample(k - n_remote)]
            remote = self.sampler.sample(n_remote) if n_remote else []
            pages = sorted(set(local) | set(remote))
            while len(pages) < k:  # collision between local and remote draw
                pages.append(int(self.rng.integers(self.n_pages)))
            pages = sorted(pages)[:k]
        else:
            pages = self.sampler.sample(k)
        idx = self.rng.permutation(k).tolist()  # updates hit a random subset
        return Transaction(
            txn_id=self._next_id,
            arrival=self.sim.now,
            home=home,
            reads=sorted(pages[i] for i in idx[w:]),
            writes=sorted(pages[i] for i in idx[:w]),
        )

    # -- closed loop ----------------------------------------------------------
    def start_closed_loop(self, terminals_per_system: int) -> int:
        """Spawn terminal processes; returns the total population."""
        total = 0
        for home in range(self.n_systems):
            for _ in range(terminals_per_system):
                self.sim.process(self._terminal(home), name=f"term-{home}")
                total += 1
        return total

    def _terminal(self, home: int) -> Generator:
        think = self.config.think_time
        while True:
            if think > 0:
                yield self.sim.timeout(float(self.rng.exponential(think)))
            txn = self.make_transaction(home)
            txn.done = Event(self.sim)
            self.router.route(txn)
            yield txn.done

    # -- open loop ----------------------------------------------------------------
    def start_open_loop(self, tps_per_system: float) -> None:
        """Poisson arrivals per system, shaped by the trace if present."""
        for home in range(self.n_systems):
            self.sim.process(
                self._arrivals(home, tps_per_system), name=f"arrivals-{home}"
            )

    def _arrivals(self, home: int, base_rate: float) -> Generator:
        if base_rate <= 0:
            return  # idle stream (used when arrivals are driven manually)
        peak = self.trace.peak() if self.trace else 1.0
        max_rate = base_rate * peak
        while True:
            # thinning for the time-varying Poisson process
            yield self.sim.timeout(float(self.rng.exponential(1.0 / max_rate)))
            mult = (
                self.trace.multiplier(self.sim.now, home) if self.trace else 1.0
            )
            if self.rng.random() <= (base_rate * mult) / max_rate:
                self.router.route(self.make_transaction(home))
