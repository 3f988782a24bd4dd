"""EXP-GROW — granular, non-disruptive growth (paper §2.4).

Both architectures run at steady load, then a system is added mid-run:

* **Sysplex** — the new member joins non-disruptively; WLM drives work to
  it "at an increased rate ... until its utilization has reached
  steady-state".  No repartitioning, no outage.
* **Partitioned** — the database must be re-balanced across N+1 owners:
  an offline window proportional to the data moved, exactly the
  "considerable costs to re-partition the databases" the paper cites.

Reported: throughput timeline across the addition, the newcomer's
utilization ramp, and the partitioned baseline's outage window.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..baselines.partitioned import PartitionedCluster
from ..options import RunOptions
from ..runner import build_loaded_sysplex
from ..runspec import RunSpec
from ..workloads.oltp import OltpGenerator
from .common import Execution, print_rows, scaled_config, sweep

__all__ = ["run_growth", "growth_specs", "main"]

SYSPLEX_RUNNER = "repro.experiments.exp_growth:run_sysplex_spec"
PARTITIONED_RUNNER = "repro.experiments.exp_growth:run_partitioned_spec"

N_WINDOWS = 16


def growth_specs(n_initial: int = 3,
                 offered_per_system: float = 250.0,
                 window: float = 0.4,
                 seed: int = 1) -> List[RunSpec]:
    """Declare the two architectures' mid-run-growth scenarios."""
    params = {"n_initial": n_initial, "window": window}
    return [
        RunSpec(
            runner=SYSPLEX_RUNNER,
            config=scaled_config(n_initial, seed=seed),
            options=RunOptions(mode="open",
                               offered_tps_per_system=offered_per_system,
                               router_policy="wlm"),
            label="growth-sysplex", params=params,
        ),
        RunSpec(
            runner=PARTITIONED_RUNNER,
            config=scaled_config(n_initial, data_sharing=False, seed=seed),
            options=RunOptions(mode="open",
                               offered_tps_per_system=offered_per_system),
            label="growth-partitioned", params=params,
        ),
    ]


def run_sysplex_spec(spec: RunSpec) -> Dict:
    """Scenario runner: a system joins the sysplex non-disruptively."""
    n_initial = spec.params["n_initial"]
    window = spec.params["window"]
    add_at = 4 * window
    plex, gen = build_loaded_sysplex(spec.config, options=spec.options)
    counter = plex.metrics.counter("txn.completed")
    timeline: List[dict] = []
    prev = 0
    new_inst = None
    for k in range(1, N_WINDOWS + 1):
        plex.sim.run(until=k * window)
        if new_inst is None and k * window >= add_at:
            new_inst = plex.add_system()
            # offered load rises with the new capacity (more users arrive)
            gen.n_systems = n_initial  # arrivals stay on original streams
        c = counter.count
        timeline.append(
            {
                "t": round(k * window, 2),
                "sysplex_tput": (c - prev) / window,
                "newcomer_util": (
                    round(plex.wlm.utilization(new_inst.node.name), 3)
                    if new_inst is not None else None
                ),
            }
        )
        prev = c
    return {"timeline": timeline, "add_at": add_at}


def run_partitioned_spec(spec: RunSpec) -> Dict:
    """Scenario runner: the shared-nothing cluster repartitions to grow."""
    n_initial = spec.params["n_initial"]
    window = spec.params["window"]
    add_at = 4 * window
    pconfig = spec.config
    cluster = PartitionedCluster(pconfig)
    pgen = OltpGenerator(
        cluster.sim, pconfig.oltp, pconfig.db.n_pages, n_initial,
        cluster.streams.stream("oltp"), router=cluster,
    )
    cluster.prewarm(pgen.sampler.hottest(pconfig.db.buffer_pages))
    pgen.start_open_loop(spec.offered_tps_per_system)
    pcounter = cluster.metrics.counter("txn.completed")
    timeline: List[dict] = []
    prev = 0
    outage = None
    for k in range(1, N_WINDOWS + 1):
        cluster.sim.run(until=k * window)
        if outage is None and k * window >= add_at:
            outage = cluster.add_system()
        c = pcounter.count
        timeline.append(
            {
                "t": round(k * window, 2),
                "partitioned_tput": (c - prev) / window,
            }
        )
        prev = c
    return {
        "timeline": timeline,
        "repartition_window_s": outage,
        "lost_txns": cluster.failed_txns,
    }


def run_growth(n_initial: int = 3,
               offered_per_system: float = 250.0,
               window: float = 0.4,
               seed: int = 1,
               execution: Optional[Execution] = None) -> Dict:
    add_at = 4 * window
    plex_out, part_out = sweep(
        growth_specs(n_initial, offered_per_system, window, seed),
        execution=execution,
    )
    plex_timeline = plex_out["timeline"]
    part_timeline = part_out["timeline"]
    sysplex_min = min(w["sysplex_tput"] for w in plex_timeline)
    timeline = [
        {**a, "partitioned_tput": b["partitioned_tput"]}
        for a, b in zip(plex_timeline, part_timeline)
    ]
    part_min = min(w["partitioned_tput"] for w in part_timeline
                   if w["t"] > add_at)
    return {
        "timeline": timeline,
        "summary": {
            "add_at": add_at,
            "sysplex_min_tput": sysplex_min,
            "partitioned_min_tput_after_add": part_min,
            "repartition_window_s": part_out["repartition_window_s"],
            "partitioned_lost_txns": part_out["lost_txns"],
            "newcomer_final_util": plex_timeline[-1]["newcomer_util"],
        },
    }


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    out = run_growth(window=0.3 if quick else 0.5, seed=seed,
                     execution=execution)
    print_rows(
        "EXP-GROW — adding a system mid-run (sysplex vs partitioned)",
        out["timeline"],
        ["t", "sysplex_tput", "newcomer_util", "partitioned_tput"],
        execution=execution,
    )
    s = out["summary"]
    print(
        f"\nsysplex min tput {s['sysplex_min_tput']:.0f}; partitioned "
        f"repartition window {s['repartition_window_s']:.2f}s losing "
        f"{s['partitioned_lost_txns']:.0f} transactions "
        f"(min tput after add {s['partitioned_min_tput_after_add']:.0f})"
    )
    return out


if __name__ == "__main__":
    main(quick=False)
