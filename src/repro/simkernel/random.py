"""Reproducible random streams.

Every stochastic component in the simulation draws from its own named
stream, spawned deterministically from one root seed.  Changing one
component's draw count therefore never perturbs another component's
sequence — runs are comparable across configurations, which the
benchmark harness relies on (common random numbers variance reduction).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["RandomStreams", "zipf_weights"]


class RandomStreams:
    """A registry of independent, deterministically seeded generators."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created on first use.

        The same (root seed, name) pair always yields the same sequence.
        """
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence(
                entropy=self.seed,
                spawn_key=tuple(name.encode("utf-8")),
            )
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen


def zipf_weights(n: int, theta: float) -> np.ndarray:
    """Normalised Zipf(θ) popularity weights over ``n`` items.

    θ = 0 is uniform; θ around 0.8–1.0 matches commonly cited OLTP record
    access skew.  Returned array sums to 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if theta < 0:
        raise ValueError("theta must be >= 0")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-theta)
    w /= w.sum()
    return w
