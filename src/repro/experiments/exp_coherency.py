"""EXP-COHER — CF coherency vs. message-broadcast coherency (paper §3.3).

The paper's justification for building the Coupling Facility at all: the
"fundamental performance obstacles" of data sharing were (1) lock traffic
and (2) buffer-invalidation broadcasts.  This experiment runs the same
OLTP workload on

* the CF-based sysplex (cross-invalidation signals: zero target CPU,
  microsecond locks), and
* the :class:`BroadcastCluster` (message-based DLM + invalidation
  broadcast to all N−1 peers),

sweeping N.  Reported per point: CPU ms per transaction (overhead grows
~O(N) for broadcast, ~flat for the CF), throughput, and p95.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..baselines.broadcast import BroadcastCluster
from ..runspec import RunSpec
from ..workloads.oltp import OltpGenerator
from .common import QUICK, Execution, print_rows, scaled_config
from .common import sweep as _sweep

__all__ = ["run_coherency", "coherency_specs", "main"]

SWEEP = (2, 4, 8, 12)

#: Dotted runner path for the broadcast-coherency scenario (importable
#: from a pool worker regardless of how this module was loaded).
BROADCAST_RUNNER = "repro.experiments.exp_coherency:run_broadcast_spec"


def run_broadcast_spec(spec: RunSpec):
    """Scenario runner: one measured window on the broadcast baseline."""
    config = spec.config
    cluster = BroadcastCluster(config)
    gen = OltpGenerator(
        cluster.sim, config.oltp, config.db.n_pages, config.n_systems,
        cluster.streams.stream("oltp"), router=cluster,
    )
    cluster.prewarm(gen.sampler.hottest(config.db.buffer_pages))
    gen.start_closed_loop(config.oltp.terminals_per_cpu * config.cpu.n_cpus)
    cluster.sim.run(until=spec.warmup)
    cluster.reset_measurement()
    cluster.sim.run(until=spec.warmup + spec.duration)
    return cluster.collect(spec.label or f"broadcast-{config.n_systems}")


def coherency_specs(sweep: Sequence[int] = SWEEP,
                    duration: float = QUICK["duration"],
                    warmup: float = QUICK["warmup"],
                    seed: int = 1) -> List[RunSpec]:
    """Declare (CF, broadcast) spec pairs for each sysplex size."""
    specs: List[RunSpec] = []
    for n in sweep:
        specs.append(RunSpec(
            config=scaled_config(n, seed=seed),
            duration=duration, warmup=warmup, label=f"cf-{n}",
        ))
        specs.append(RunSpec(
            runner=BROADCAST_RUNNER,
            config=scaled_config(n, data_sharing=False, seed=seed),
            duration=duration, warmup=warmup, label=f"broadcast-{n}",
        ))
    return specs


def run_coherency(sweep: Sequence[int] = SWEEP,
                  duration: float = QUICK["duration"],
                  warmup: float = QUICK["warmup"],
                  seed: int = 1,
                  execution: Optional[Execution] = None) -> Dict:
    results = _sweep(coherency_specs(sweep, duration, warmup, seed),
                     execution=execution)
    rows: List[dict] = []
    for i, n in enumerate(sweep):
        r_cf, r_bc = results[2 * i], results[2 * i + 1]
        cpu_cf = (r_cf.mean_utilization * n * r_cf.duration
                  / max(r_cf.completed, 1))
        cpu_bc = (r_bc.mean_utilization * n * r_bc.duration
                  / max(r_bc.completed, 1))

        rows.append(
            {
                "systems": n,
                "cf_cpu_ms": 1e3 * cpu_cf,
                "bcast_cpu_ms": 1e3 * cpu_bc,
                "cf_tput": r_cf.throughput,
                "bcast_tput": r_bc.throughput,
                "cf_p95_ms": 1e3 * r_cf.response_p95,
                "bcast_p95_ms": 1e3 * r_bc.response_p95,
                "bcast_inval_msgs": r_bc.extras["invalidation_messages"],
            }
        )
    return {"rows": rows}


def check_shape(rows: List[dict]) -> List[str]:
    problems = []
    # broadcast per-txn CPU must grow materially with N; CF must not
    if rows[-1]["bcast_cpu_ms"] <= rows[0]["bcast_cpu_ms"] * 1.05:
        problems.append("broadcast overhead does not grow with N")
    if rows[-1]["cf_cpu_ms"] > rows[0]["cf_cpu_ms"] * 1.15:
        problems.append("CF overhead grows too much with N")
    # at the largest N the CF wins on CPU per transaction
    if rows[-1]["cf_cpu_ms"] >= rows[-1]["bcast_cpu_ms"]:
        problems.append("CF does not win at scale")
    return problems


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    kw = QUICK if quick else {"duration": 1.0, "warmup": 0.5}
    out = run_coherency(duration=kw["duration"], warmup=kw["warmup"],
                        seed=seed, execution=execution)
    print_rows(
        "EXP-COHER — CF vs broadcast coherency",
        out["rows"],
        ["systems", "cf_cpu_ms", "bcast_cpu_ms", "cf_tput", "bcast_tput",
         "cf_p95_ms", "bcast_p95_ms", "bcast_inval_msgs"],
        execution=execution,
    )
    problems = check_shape(out["rows"])
    print("\nshape check:", "OK" if not problems else problems)
    return out


if __name__ == "__main__":
    main(quick=False)
