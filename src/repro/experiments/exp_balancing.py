"""EXP-BAL — dynamic workload balancing (paper §2.3).

Drives the data-sharing sysplex and the data-partitioning baseline with
the *same* tuned workload and the same rotating demand-hotspot trace:

* the workload has **partition affinity** — stream *i* predominantly
  touches the *i*-th data segment, exactly how a shared-nothing system
  is tuned ("match each system node's processing capacity to the
  projected workload demand for access to data owned by that given
  system");
* the trace holds total offered load constant but rotates which stream
  surges ("significant fluctuations in the demand ... spikes and troughs").

The partitioned cluster must run stream *i*'s surge on the one system
owning segment *i*; the sysplex spreads the same surge across everyone.
Reported: throughput, mean/p95 response, utilization spread (max−min;
small = balanced), and lost transactions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..baselines.partitioned import PartitionedCluster
from ..options import RunOptions
from ..runspec import RunSpec
from ..sysplex import Sysplex
from ..workloads.oltp import OltpGenerator
from ..workloads.traces import rotating_hotspot_trace
from .common import Execution, print_rows, scaled_config, sweep

__all__ = ["run_balancing", "balancing_specs", "main"]

#: Dotted runner path for one architecture-under-hotspot case.
CASE_RUNNER = "repro.experiments.exp_balancing:run_case_spec"


def _make_generator(sim_owner, config, trace, router):
    return OltpGenerator(
        sim_owner.sim, config.oltp, config.db.n_pages, config.n_systems,
        sim_owner.streams.stream("oltp"), router=router, trace=trace,
        partition_affinity=True,
    )


def _prewarm_partitioned(cluster, gen, config):
    for i, (offset, seg_sampler) in enumerate(gen._segments):
        hot = [offset + p for p in seg_sampler.hottest(config.db.buffer_pages)]
        cluster.prewarm(hot, index=i)


def _prewarm_sysplex(plex, gen, config):
    per_seg = config.db.buffer_pages // len(gen._segments)
    hot = [
        offset + p
        for offset, seg in gen._segments
        for p in seg.hottest(per_seg)
    ]
    first, *peers = [inst.buffers for inst in plex.instances.values()]
    first.prewarm(hot, peers=peers)


def _measure(owner, gen, offered, duration, warmup, label):
    gen.start_open_loop(offered)
    owner.sim.run(until=warmup)
    owner.reset_measurement()
    owner.sim.run(until=warmup + duration)
    return owner.collect(label)


def run_case_spec(spec: RunSpec):
    """Scenario runner: one architecture under the rotating hotspot.

    ``spec.params["case"]`` selects ``"partitioned"`` or a sysplex router
    policy; the demand trace is rebuilt from the spec so every case sees
    the same spikes-and-troughs schedule.
    """
    case = spec.params["case"]
    spike_factor = spec.params["spike_factor"]
    config = spec.config
    step = 0.3
    n_steps = int((spec.duration + spec.warmup) / step) + 2
    trace = rotating_hotspot_trace(config.n_systems, step, n_steps,
                                   spike_factor)
    if case == "partitioned":
        owner = PartitionedCluster(config)
        gen = _make_generator(owner, config, trace, owner)
        _prewarm_partitioned(owner, gen, config)
    else:
        owner = Sysplex(config, spec.options.replace(router_policy=case))
        gen = _make_generator(owner, config, trace, owner.router)
        _prewarm_sysplex(owner, gen, config)
    return _measure(owner, gen, spec.offered_tps_per_system, spec.duration,
                    spec.warmup, spec.label)


def balancing_specs(n_systems: int = 4,
                    offered_per_system: float = 220.0,
                    spike_factor: float = 3.0,
                    duration: float = 1.2,
                    warmup: float = 0.4,
                    seed: int = 1) -> List[RunSpec]:
    """Declare the four architecture cases as one sweep."""
    specs = [RunSpec(
        runner=CASE_RUNNER,
        config=scaled_config(n_systems, data_sharing=False, seed=seed),
        duration=duration, warmup=warmup,
        options=RunOptions(offered_tps_per_system=offered_per_system),
        label="partitioned",
        params={"case": "partitioned", "spike_factor": spike_factor},
    )]
    specs += [
        RunSpec(
            runner=CASE_RUNNER,
            config=scaled_config(n_systems, seed=seed),
            duration=duration, warmup=warmup,
            options=RunOptions(offered_tps_per_system=offered_per_system),
            label=f"sysplex-{policy}",
            params={"case": policy, "spike_factor": spike_factor},
        )
        for policy in ("local", "threshold", "wlm")
    ]
    return specs


def run_balancing(n_systems: int = 4,
                  offered_per_system: float = 220.0,
                  spike_factor: float = 3.0,
                  duration: float = 1.2,
                  warmup: float = 0.4,
                  seed: int = 1,
                  execution: Optional[Execution] = None) -> Dict:
    """Compare architectures under the same skewed, shifting demand."""
    results = sweep(balancing_specs(n_systems, offered_per_system,
                                    spike_factor, duration, warmup, seed),
                    execution=execution)
    rows = [
        {
            "architecture": r.label,
            "throughput": r.throughput,
            "mean_rt_ms": 1e3 * r.response_mean,
            "p95_ms": 1e3 * r.response_p95,
            "util_spread": round(r.utilization_spread, 3),
            "failed": r.extras.get("failed", 0.0),
        }
        for r in results
    ]
    return {"rows": rows}


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    out = run_balancing(
        duration=0.9 if quick else 2.4, warmup=0.3 if quick else 0.8,
        seed=seed, execution=execution,
    )
    print_rows(
        "EXP-BAL — balancing under a rotating demand hotspot",
        out["rows"],
        ["architecture", "throughput", "mean_rt_ms", "p95_ms",
         "util_spread", "failed"],
        execution=execution,
    )
    return out


if __name__ == "__main__":
    main(quick=False)
