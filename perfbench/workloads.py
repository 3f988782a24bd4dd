"""The benchmark's workloads: what each one runs, and why it exists.

Every workload is a pure function of ``--seed``: the seed becomes the
sysplex configuration seed (or the campaign grid seed), so the same seed
always simulates the same inputs and yields the same payload bytes.
``repro`` is imported lazily, inside the builders, so ``run.py`` can
list workloads without importing the program it measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Workload", "WORKLOADS", "CAMPAIGN_POINTS", "oltp_spec",
           "campaign_specs"]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"oltp"`` (one long window in-process) or ``"campaign"`` (a grid
    #: driven through the work-queue backend with one spawned worker)
    kind: str
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "scaleout", "oltp",
        "16-system data-sharing sysplex at saturation, default mix: the "
        "shape of the fig3/tab1 grid; CF sync path, kernel and lock "
        "manager do most of the work"),
    Workload(
        "write_heavy", "oltp",
        "8-system data sharing, 4 reads + 8 writes per transaction: "
        "write_and_invalidate, XI misses, castout and lock waits beside "
        "reads"),
    Workload(
        "nosharing", "oltp",
        "1 system, no CF at all, long enough for the deferred writer to "
        "fall behind: buffer steal scan, DASD and local locks; the "
        "bypass case for every CF change"),
    Workload(
        "campaign", "campaign",
        "a micro grid through the work-queue backend with one spawned "
        "worker: per-point setup, executor and wire overhead dominate"),
)}

#: Points in one campaign run (cycling 2-, 3- and 4-system micro points).
CAMPAIGN_POINTS = 30


def oltp_spec(name: str, seed: int):
    """The :class:`repro.RunSpec` of one OLTP workload at ``seed``."""
    from dataclasses import replace

    from repro import RunOptions, RunSpec
    from repro.experiments.common import scaled_config

    options: Optional[RunOptions] = None
    if name == "scaleout":
        # closed loop, 15 terminals per engine, zero think time (the
        # Figure-3 saturation drive); default sweep profile
        config = scaled_config(16, 1, seed=seed)
        warmup, duration = 0.3, 0.3
        options = RunOptions()
    elif name == "write_heavy":
        base = scaled_config(8, 1, seed=seed)
        # more writes than reads per transaction.  The skew stays at the
        # default 0.6: at 0.7 this mix collapses into lock convoys (one
        # commit in half a second), which measures nothing.  An open loop
        # at 100 tps per system (80 % of the slowest seed's saturated
        # rate) keeps the simulated work per run nearly seed-independent;
        # the closed loop's throughput swung 1.9x across seeds.
        config = replace(base, oltp=replace(
            base.oltp, reads_per_txn=4, writes_per_txn=8))
        warmup, duration = 0.3, 2.0
        options = RunOptions(mode="open", offered_tps_per_system=100.0)
    elif name == "nosharing":
        # closed-loop saturation of one engine; the run ends 16 s in,
        # past the knee (about 11 s) where the cold end of the LRU chain
        # turns all-dirty and every steal scans it
        config = scaled_config(1, 1, data_sharing=False, seed=seed)
        warmup, duration = 0.3, 15.7
        options = RunOptions()
    else:
        raise ValueError(f"{name!r} is not an OLTP workload")
    return RunSpec(config=config, duration=duration, warmup=warmup,
                   options=options, label=f"perfbench-{name}-s{seed}")


def campaign_specs(seed: int):
    """The campaign workload's grid at ``seed``."""
    from repro.campaign import build_grid

    return build_grid("micro", CAMPAIGN_POINTS, seed)
