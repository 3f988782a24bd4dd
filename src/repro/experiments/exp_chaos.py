"""EXP-CHAOS — stochastic fault soak with invariant checking.

The availability experiments script *one* outage and inspect the
timeline.  This experiment instead turns the :class:`~repro.chaos.
ChaosEngine` loose on a running sysplex: systems crash and re-IPL,
coupling facilities die and come back empty, individual coupling links
drop mid-command, DASD paths bounce — all from seeded fault processes,
overlapping however the draws land.  Request-level robustness
(``CfConfig.request_timeout``) is enabled so in-flight CF commands
survive link loss by redriving on surviving links.

Throughout the run an :class:`~repro.invariants.InvariantChecker`
asserts the §2.5/§3.3 promises — lock safety, commit durability,
transaction conservation, rebuild termination, retained-lock release —
and the payload carries its full report plus the sampled fault schedule,
the fired-event timeline, and windowed throughput.

The **soak harness** sweeps many seeds (the CI ``chaos-soak`` job runs
``python -m repro.experiments.exp_chaos --seeds 20``) and fails loudly
if any seed records a violation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..chaos import (
    ChaosConfig,
    ChaosEngine,
    FaultClassConfig,
    summarize_schedule,
)
from ..config import MILLI, CfConfig
from ..invariants import InvariantChecker, check_reconvergence
from ..options import RunOptions
from ..runner import build_loaded_sysplex
from ..runspec import RunSpec
from .common import Execution, print_rows, scaled_config, sweep

__all__ = [
    "chaos_spec",
    "soak_specs",
    "run_chaos_spec",
    "run_soak",
    "main",
]

CHAOS_RUNNER = "repro.experiments.exp_chaos:run_chaos_spec"


def chaos_spec(n_systems: int = 3,
               seed: int = 1,
               horizon: float = 6.0,
               drain: float = 2.0,
               offered_tps_per_system: float = 120.0,
               intensity: float = 1.0,
               window: float = 0.5,
               duplex: str = "none") -> RunSpec:
    """Declare one chaos soak run.

    ``intensity`` scales fault frequency (2.0 = twice as many expected
    faults).  The sysplex gets two CFs (so rebuilds have a target) and
    request-level robustness enabled; the chaos parameters ride in
    ``params["chaos"]`` so the content hash covers the exact fault
    distributions.  ``duplex`` turns on system-managed structure
    duplexing for the named structure class (``"all"`` = every class) —
    CF failures then take the duplex-switch path instead of rebuilds.
    """
    from ..config import ArmConfig, XcfConfig

    config = scaled_config(
        n_systems, seed=seed, n_cfs=2,
        cf=CfConfig(request_timeout=20 * MILLI, request_retries=4,
                    duplex=duplex),
        arm=ArmConfig(restart_time=0.5, log_replay_time=0.3),
        xcf=XcfConfig(heartbeat_interval=0.25),
    )
    k = max(intensity, 1e-9)
    chaos = ChaosConfig(
        start=1.0,
        horizon=horizon,
        systems=FaultClassConfig(mtbf=6.0 / k, mttr=1.2, max_faults=2),
        cfs=FaultClassConfig(mtbf=10.0 / k, mttr=1.5, max_faults=1),
        links=FaultClassConfig(mtbf=30.0 / k, mttr=0.6, max_faults=2),
        dasd=FaultClassConfig(mtbf=60.0 / k, mttr=0.8, max_faults=1),
        min_live_systems=1,
        min_live_cfs=1,
    )
    return RunSpec(
        runner=CHAOS_RUNNER, config=config,
        options=RunOptions(
            mode="open", router_policy="wlm",
            offered_tps_per_system=offered_tps_per_system,
        ),
        label=(f"chaos-{n_systems}sys-seed{seed}"
               + (f"-duplex-{duplex}" if duplex != "none" else "")),
        params={
            "chaos": chaos.to_dict(),
            "window": window,
            "drain": drain,
            "grace": 3.0,
            "check_interval": 0.1,
            "reconverge_fraction": 0.5,
        },
    )


def run_chaos_spec(spec: RunSpec) -> Dict:
    """Scenario runner: chaos + invariants over one seeded sysplex."""
    chaos_cfg = ChaosConfig.from_dict(spec.params["chaos"])
    window = spec.params["window"]
    total = chaos_cfg.horizon + spec.params["drain"]

    plex, gen = build_loaded_sysplex(spec.config, options=spec.options)
    engine = ChaosEngine(plex, chaos_cfg)
    engine.arm()
    checker = InvariantChecker(
        plex, generator=gen, interval=spec.params["check_interval"]
    )

    counter = plex.metrics.counter("txn.completed")
    failed_counter = plex.metrics.counter("txn.failed")
    timeline: List[dict] = []
    prev = prev_failed = 0
    k = 0
    while k * window < total:
        k += 1
        plex.sim.run(until=k * window)
        c, f = counter.count, failed_counter.count
        timeline.append(
            {
                "t": round(k * window, 3),
                "throughput": (c - prev) / window,
                "failed": f - prev_failed,
                "down": ",".join(
                    n.name for n in plex.nodes if not n.alive) or "-",
                "cfs_down": ",".join(
                    cf.name for cf in plex.cfs if cf.failed) or "-",
            }
        )
        prev, prev_failed = c, f

    report = checker.finalize(grace=spec.params["grace"])

    # availability promise: throughput reconverges to the offered load
    # once the last state-changing fault/repair has settled
    state_changes = [
        t for t, label in plex.injector.log
        if not label.startswith("chaos-skip:")
    ]
    offered_total = spec.options.offered_tps_per_system * spec.config.n_systems
    v = check_reconvergence(
        timeline, offered_total,
        last_repair=max(state_changes, default=0.0),
        fraction=spec.params["reconverge_fraction"],
        degraded=bool(plex.degraded_events),
    )
    if v is not None:
        report["violations"].append(v)
        report["ok"] = False

    ports = _live_ports(plex)
    summary = {
        "pathology": _pathology_observables(plex),
        "generated": gen.generated,
        "completed": counter.count,
        "failed": failed_counter.count,
        "lost": plex.router.lost,
        "submitted": plex.metrics.counter("txn.submitted").count,
        "rebuilds_started": plex.metrics.counter("cf.rebuilds_started").count,
        "rebuilds_finished": plex.metrics.counter("cf.rebuilds").count,
        "recoveries": len(plex.recovery.recoveries),
        "degraded_events": len(plex.degraded_events),
        "cf_timeouts": sum(p.timeouts for p in ports),
        "cf_iccs": sum(p.iccs for p in ports),
        "cf_retries": sum(p.retries for p in ports),
        "schedule_by_kind": summarize_schedule(engine.schedule_rows()),
        "ok": report["ok"],
    }
    return {
        "schedule": engine.schedule_rows(),
        "outcomes": engine.outcome_rows(),
        "events": plex.injector.log_events(),
        "degraded": [[t, label] for t, label in plex.degraded_events],
        "timeline": timeline,
        "invariants": report,
        "sfm": plex.sfm.report(),
        "summary": summary,
    }


def _pathology_observables(plex) -> Dict:
    """Quantified sysplex pathologies, read from the live plex at end of run.

    These are the observables the adversarial scenario library asserts
    against and the fuzzer's coverage map buckets: lock convoys show up as
    waits/deadlocks, coarse hashing as false contention, coherency storms
    as cross-invalidate signals, and castout laggards as an undrained
    changed-block backlog.  Structure counters reflect the *current*
    structure (a rebuild starts them fresh); per-system completions count
    the current incarnation of each instance.
    """
    from ..sysplex import CACHE_STRUCTURE, LOCK_STRUCTURE

    lock = plex.xes.find(LOCK_STRUCTURE) if plex.cfs else None
    cache = plex.xes.find(CACHE_STRUCTURE) if plex.cfs else None
    rt = plex.metrics.tally("txn.response")
    p50, p95, p99 = rt.percentiles((50, 95, 99))
    out = {
        "lock_waits": plex.lock_space.waits,
        "deadlocks": plex.lock_space.deadlocks,
        "retained_locks": len(plex.lock_space.retained),
        "partitioned": plex.metrics.counter("failures.partitioned").count,
        "cache_full": plex.metrics.counter("txn.cache_full").count,
        "response_p50": p50,
        "response_p95": p95,
        "response_p99": p99,
        "sick_systems": sum(1 for n in plex.nodes if n.cpu.degraded),
        "sick_names": sorted(n.name for n in plex.nodes if n.cpu.degraded),
        "per_system_completed": {
            name: inst.tm.completed for name, inst in plex.instances.items()
        },
        "duplex_pairs": len(getattr(plex.xes, "duplex_pairs", {})),
        "duplex_breaks": plex.metrics.counter("duplex.breaks").count,
        "duplex_switches": plex.metrics.counter("cf.switches").count,
        "duplex_reestablished": (
            plex.metrics.counter("duplex.reestablished").count
        ),
    }
    if lock is not None:
        out["false_contention_rate"] = lock.false_contention_rate()
        out["cf_lock_requests"] = lock.requests
    if cache is not None:
        out["xi_signals"] = cache.xi_signals
        out["cache_reclaims"] = cache.reclaims
        out["castouts"] = cache.castouts
        out["castout_backlog"] = len(cache._changed)
    return out


def _live_ports(plex) -> List:
    """Every current CfPort (robustness counters live on the ports)."""
    ports = []
    for inst in plex.instances.values():
        for xes in (inst.xes_lock, inst.xes_cache, inst.xes_list):
            port = getattr(xes, "port", None)
            if port is not None:
                ports.append(port)
    return ports


def soak_specs(n_seeds: int = 20, seed0: int = 1, **kw) -> List[RunSpec]:
    """The soak sweep: one chaos spec per seed."""
    return [chaos_spec(seed=seed0 + i, **kw) for i in range(n_seeds)]


def run_soak(n_seeds: int = 20, seed0: int = 1,
             execution: Optional[Execution] = None, **kw) -> Dict:
    """Run the soak and aggregate the per-seed invariant reports."""
    specs = soak_specs(n_seeds, seed0, **kw)
    payloads = sweep(specs, execution=execution)
    rows = []
    violations = []
    for spec, payload in zip(specs, payloads):
        s = payload["summary"]
        rows.append(
            {
                "label": spec.label,
                "completed": s["completed"],
                "failed": s["failed"],
                "lost": s["lost"],
                "rebuilds": (
                    f"{s['rebuilds_finished']}/{s['rebuilds_started']}"
                ),
                "iccs": s["cf_iccs"],
                "retries": s["cf_retries"],
                "degraded": s["degraded_events"],
                "ok": s["ok"],
            }
        )
        for v in payload["invariants"]["violations"]:
            violations.append({"label": spec.label, **v})
    return {
        "rows": rows,
        "violations": violations,
        "seeds": n_seeds,
        "ok": not violations,
    }


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    n_seeds = 3 if quick else 8
    out = run_soak(
        n_seeds=n_seeds, seed0=seed,
        execution=execution,
        horizon=4.0 if quick else 8.0,
        drain=2.0 if quick else 3.0,
    )
    print_rows(
        f"EXP-CHAOS — {n_seeds}-seed fault soak with invariant checking",
        out["rows"],
        ["label", "completed", "failed", "lost", "rebuilds", "iccs",
         "retries", "degraded", "ok"],
        execution=execution,
    )
    if out["violations"]:
        print(f"\nINVARIANT VIOLATIONS ({len(out['violations'])}):")
        for v in out["violations"]:
            print(f"  {v['label']} t={v['time']:.2f} {v['name']}: "
                  f"{v['detail']}")
    else:
        print(f"\nall {n_seeds} seeds clean: no invariant violations")
    return out


def _cli(argv: Optional[List[str]] = None) -> int:
    """The CI soak entry point: nonzero exit on any violation."""
    import argparse
    import json

    from ..distrib.launcher import worker_backend

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.exp_chaos",
        description="Seeded chaos soak with sysplex invariant checking.",
    )
    parser.add_argument("--seeds", type=int, default=20,
                        help="number of seeds to soak (default: 20)")
    parser.add_argument("--seed0", type=int, default=1,
                        help="first seed (default: 1)")
    parser.add_argument("--horizon", type=float, default=6.0,
                        help="chaos window in simulated seconds")
    parser.add_argument("--duplex", default="none",
                        choices=("none", "lock", "cache", "list", "all"),
                        help="structure-duplexing policy for every seed "
                             "(default: none)")
    parser.add_argument("--workers", default=None, metavar="SPEC",
                        help="run the seeds on work-queue workers: a count "
                        "('4', 0 = one per CPU) or ssh hosts "
                        "('host1:4,host2:8'); default: in-process")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache directory")
    parser.add_argument("--csv-dir", default=None, metavar="DIR",
                        help="archive printed tables as CSV under DIR")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the violation report as JSON to PATH")
    args = parser.parse_args(argv)
    try:
        backend = worker_backend(args.workers)
    except ValueError as exc:
        parser.error(str(exc))
    execution = Execution(backend=backend, progress=True,
                          cache=args.cache_dir,
                          csv_dir=args.csv_dir)
    out = run_soak(n_seeds=args.seeds, seed0=args.seed0,
                   horizon=args.horizon, duplex=args.duplex,
                   execution=execution)
    print_rows(
        f"chaos soak — {args.seeds} seeds",
        out["rows"],
        ["label", "completed", "failed", "lost", "rebuilds", "iccs",
         "retries", "degraded", "ok"],
        execution=execution,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
        print(f"report written to {args.report}")
    if out["violations"]:
        print(f"\nFAIL: {len(out['violations'])} invariant violation(s)")
        for v in out["violations"]:
            print(f"  {v['label']} t={v['time']:.2f} {v['name']}: "
                  f"{v['detail']}")
        return 1
    print(f"\nOK: all {args.seeds} seeds clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(_cli())
