#!/usr/bin/env python
"""Simkernel microbenchmarks: the perf smoke for the event-loop hot path.

Unlike the experiment benchmarks (which regenerate the paper's figures),
these time the *kernel mechanics* the whole reproduction sits on: raw
event churn through the calendar, timeout scheduling storms, resource
dispatch under contention, and one end-to-end Figure-3 quick point as the
integrated check.  Every sweep in the repo pays these costs per event, so
a regression here multiplies across all experiments.

Run:

    PYTHONPATH=src python benchmarks/kernel/bench_kernel.py
    PYTHONPATH=src python benchmarks/kernel/bench_kernel.py \
        --out BENCH_kernel.json --check benchmarks/kernel/baseline.json

``--check`` compares against committed baseline wall times and fails
(exit 1) when a gated benchmark regresses beyond its tolerance; CI runs
it on every push (see the ``kernel-bench`` job).  ``--update-baseline`` rewrites the baseline
file from this machine's numbers.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

# Allow running as a plain script from the repo root without PYTHONPATH.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.simkernel import Resource, Simulator  # noqa: E402

#: Bumped when benchmark workloads change, so stale baselines and
#: BENCH_kernel.json artifacts cannot be compared across definitions.
#: v2: pluggable-scheduler refactor — every workload takes a
#: ``scheduler`` backend, ``scheduler_churn`` added, and ``fig3_quick``
#: runs under the new sweep-profile default (collapsed events).  The
#: calendar backend, its ``scheduler_churn`` A/B and the ``scheduler``
#: argument were later deleted; the remaining workloads kept their v2
#: definitions, so v2 baselines still compare.
SCHEMA_VERSION = 2

#: Regression gates: fraction of slowdown vs. baseline that fails the
#: check.  Only the pure-kernel benchmarks gate CI (the end-to-end point
#: has real model variance on shared runners, so it is report-only).
GATES = {
    "event_churn": 0.25,
    "timeout_storm": 0.25,
    "resource_contention": 0.25,
}


# -- workloads --------------------------------------------------------------

def bench_event_churn(n_processes: int = 200, n_rounds: int = 500) -> dict:
    """Ping-pong event churn: processes waiting on each other's events.

    Exercises the dominant kernel cycle — event trigger, calendar
    push/pop, callback dispatch, process resume — with no model code at
    all.
    """
    sim = Simulator()
    events = 0

    def churner(i: int):
        nonlocal events
        for r in range(n_rounds):
            ev = sim.event()
            ev.succeed(r)
            yield ev
            yield sim.timeout(1e-6)
            events += 2

    for i in range(n_processes):
        sim.process(churner(i), name=f"churn-{i}")
    t0 = time.perf_counter()
    sim.run()
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "events": events,
            "events_per_sec": events / seconds}


def bench_timeout_storm(n_timeouts: int = 300_000) -> dict:
    """Raw calendar stress: a flood of timeouts at interleaving times."""
    sim = Simulator()
    fired = 0

    def storm():
        nonlocal fired
        for i in range(n_timeouts):
            # alternate short/long delays so the heap actually reorders
            yield sim.timeout(1e-6 if i % 2 else 5e-6)
            fired += 1

    sim.process(storm(), name="storm")
    t0 = time.perf_counter()
    sim.run()
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "events": fired,
            "events_per_sec": fired / seconds}


def bench_resource_contention(n_tasks: int = 400, n_acquires: int = 250,
                              capacity: int = 8) -> dict:
    """Resource dispatch under heavy queueing (CPU-engine contention)."""
    sim = Simulator()
    engines = Resource(sim, capacity=capacity)
    grants = 0

    def worker(i: int):
        nonlocal grants
        for _ in range(n_acquires):
            req = engines.request()
            yield req
            yield sim.timeout(1e-5)
            req.cancel()
            grants += 1

    for i in range(n_tasks):
        sim.process(worker(i), name=f"w{i}")
    t0 = time.perf_counter()
    sim.run()
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "events": grants,
            "events_per_sec": grants / seconds}


def bench_fig3_quick() -> dict:
    """End-to-end integrated point: one Figure-3 quick run (4-way plex).

    The kernel share of this number is what the micro-benchmarks above
    isolate; reported (not gated) so kernel wins show up end to end.
    Runs under the default sweep profile (collapsed events).
    """
    from repro import RunOptions, run
    from repro.experiments.common import QUICK, scaled_config

    t0 = time.perf_counter()
    result = run(scaled_config(4, 1, seed=1),
                 options=RunOptions(),
                 duration=QUICK["duration"], warmup=QUICK["warmup"],
                 label="kernel-bench-fig3")
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "events": result.completed,
            "events_per_sec": result.completed / seconds,
            "throughput": result.throughput}


BENCHMARKS = {
    "event_churn": bench_event_churn,
    "timeout_storm": bench_timeout_storm,
    "resource_contention": bench_resource_contention,
    "fig3_quick": bench_fig3_quick,
}


# -- harness ----------------------------------------------------------------

def run_benchmarks(repeat: int = 3, only=None) -> dict:
    """Run each benchmark ``repeat`` times; keep the fastest round.

    Min-of-N is the stable statistic for wall-clock microbenchmarks: noise
    (GC, scheduler) only ever adds time.
    """
    out = {}
    for name, fn in BENCHMARKS.items():
        if only and name not in only:
            continue
        best = None
        for _ in range(repeat):
            sample = fn()
            if best is None or sample["seconds"] < best["seconds"]:
                best = sample
        best["rounds"] = repeat
        out[name] = best
        print(f"  {name:<22s} {best['seconds']:8.3f} s   "
              f"{best['events_per_sec']:>12,.0f} events/s")
    return out


def check_baseline(results: dict, baseline: dict) -> list:
    """Gated benchmarks must stay within tolerance of the baseline."""
    problems = []
    base = baseline.get("benchmarks", {})
    for name, tolerance in GATES.items():
        if name not in results or name not in base:
            continue
        now = results[name]["seconds"]
        ref = base[name]["seconds"]
        if ref > 0 and now > ref * (1.0 + tolerance):
            problems.append(
                f"{name}: {now:.3f}s vs baseline {ref:.3f}s "
                f"(+{100 * (now / ref - 1):.0f}%, tolerance "
                f"{100 * tolerance:.0f}%)"
            )
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, default=Path("BENCH_kernel.json"),
                    help="where to write the results JSON")
    ap.add_argument("--check", type=Path, default=None,
                    help="baseline JSON to gate against (exit 1 on regression)")
    ap.add_argument("--update-baseline", type=Path, default=None,
                    help="rewrite this baseline file from the fresh numbers")
    ap.add_argument("--repeat", type=int, default=3,
                    help="rounds per benchmark; fastest round is kept")
    ap.add_argument("--only", nargs="*", default=None,
                    help=f"subset of benchmarks ({', '.join(BENCHMARKS)})")
    args = ap.parse_args(argv)

    print(f"simkernel microbenchmarks (best of {args.repeat} rounds):")
    results = run_benchmarks(repeat=args.repeat, only=args.only)
    doc = {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "benchmarks": results,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    if args.update_baseline is not None:
        args.update_baseline.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"updated baseline {args.update_baseline}")

    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        if baseline.get("schema") != SCHEMA_VERSION:
            print(f"baseline schema {baseline.get('schema')} != "
                  f"{SCHEMA_VERSION}; skipping gate (update the baseline)")
            return 0
        problems = check_baseline(results, baseline)
        if problems:
            print("PERF REGRESSION:")
            for p in problems:
                print(f"  {p}")
            return 1
        print("baseline check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
