#!/usr/bin/env python3
"""The sysplex simulator's benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload scaleout --seed 1 --seconds 30 --trace 0

Each repetition runs the workload in a fresh interpreter (``child.py``)
with ``PYTHONHASHSEED`` pinned, one after another, never two at once,
pinned to one CPU beside the speed probe (``probe.py``).  Host times
are the workload's CPU seconds divided by the probe's speed over the
same interval: reference seconds, which hold still while a shared
machine's speed drifts.  ``--trace 0`` repeats the workload until
``--seconds`` are spent (at least twice) and reports the medians of the
end-to-end metrics.  ``--trace 1`` runs it once untraced and once with
every layer's entry points wrapped (``spans.py``), reports the per-layer
metrics, and writes the spans and a per-layer table under
``.perfbench/trace/``.

Every repetition's canonical payload is hashed; the hashes must agree
across the repetitions of one invocation, traced and untraced alike.
Simulated statistics (tps, p95, CF utilization, events) and the probe's
median chunk time (``calibration_s``) are printed beside the metrics;
they are not metrics.  The last stdout line is the JSON result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import CAMPAIGN_POINTS, WORKLOADS  # noqa: E402

MIN_REPS = 2
MAX_REPS = 25
#: an invocation must finish within 180 s; no child may outlive this,
#: and the probe must still be stopped after it
DEADLINE_S = 160.0
#: CPU seconds of one probe chunk at the reference speed: one
#: reference second is as much work as 1/REF_CHUNK_S probe chunks
REF_CHUNK_S = 0.002
#: fewest probe chunks one speed reading averages
MIN_PROBE_CHUNKS = 20


class Probe:
    """The speed probe (``probe.py``), pinned to the workload's CPU.

    ``speed(a, b)`` is the probe's mean chunk CPU time between two
    ``time.monotonic()`` readings, as a multiple of ``REF_CHUNK_S``:
    2.0 means the CPU ran Python at half the reference speed."""

    def __init__(self, cpu: int, path: Path):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "--out", str(path),
             "--cpu", str(cpu)], cwd=str(ROOT))
        self.times: list = []
        self.chunks: list = []

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.path.exists():
            lines = self.path.read_text().splitlines()
            # a probe killed mid-write leaves a short last line
            rows = sorted((float(f[0]), float(f[1]))
                          for f in map(str.split, lines) if len(f) == 2)
            self.times = [t for t, _ in rows]
            self.chunks = [c for _, c in rows]

    def speed(self, a: float, b: float) -> float:
        lo = bisect.bisect_left(self.times, a)
        hi = bisect.bisect_right(self.times, b)
        if hi - lo < MIN_PROBE_CHUNKS:
            # too short an interval: the chunks nearest to it
            mid = bisect.bisect_left(self.times, (a + b) / 2)
            lo = max(0, mid - MIN_PROBE_CHUNKS // 2)
            hi = min(len(self.times), lo + MIN_PROBE_CHUNKS)
        return statistics.fmean(self.chunks[lo:hi]) / REF_CHUNK_S


def warm_bytecode() -> None:
    """Compile the program once so no timed repetition pays for it."""
    import compileall

    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)


def run_child(workload: str, seed: int, trace: bool, cpu: int,
              deadline: float) -> dict:
    """Run one repetition; returns its record (``ok`` False on failure)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(OUT / "trace")]
    if trace:
        cmd.append("--trace")
    t_spawn = time.monotonic()
    # its own process group, so a timeout also stops campaign's worker
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "error": "timed out", "traced": trace}
    except BaseException:
        # interrupted (SIGINT, or SIGTERM through main's handler)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    t_exit = time.monotonic()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "traced": trace,
                "error": f"exit code {proc.returncode}"}
    rec = json.loads(lines[-1])
    rec.update(ok=True, traced=trace, spawn=t_spawn, exit=t_exit)
    return rec


def end_to_end(rec: dict, probe: Probe) -> None:
    """Fill in one repetition's end-to-end metrics, in reference seconds.

    A time is the CPU seconds of the workload's processes in a phase
    divided by the probe's speed over that phase.  The workload runs
    single-threaded (campaign: the submitter and its worker take turns
    on one CPU), so on an unloaded machine of reference speed its CPU
    seconds are its wall seconds."""
    setup_s = rec["setup_cpu"] / probe.speed(rec["spawn"], rec["setup_end"])
    run_s = ((rec["cpu_end"] - rec["setup_cpu"])
             / probe.speed(rec["setup_end"], rec["exit"]))
    rec["e2e"] = {
        "wall_s": setup_s + run_s,
        "setup_s": setup_s,
        "sim_txn_per_s": rec["committed"] / run_s,
        "peak_rss_mb": rec["rss_kb"] / 1024.0,
        "points_per_s": rec["points"] / run_s,
    }
    rec["run_s"] = run_s
    rec["speed"] = probe.speed(rec["spawn"], rec["exit"])


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "sim_txn_per_s": "1/s",
             "peak_rss_mb": "MB", "points_per_s": "1/s"}

PER_LAYER_UNITS = {
    "simkernel.events": "count", "simkernel.ns_per_event": "ns",
    "simkernel.self_s": "s",
    "cf.sync_calls": "count", "cf.async_calls": "count",
    "cf.collapsed_ratio": "ratio", "cf.sync_sim_us": "us",
    "cf.retries": "count", "cf.utilization": "ratio", "cf.self_s": "s",
    "lockmgr.lock_calls": "count", "lockmgr.waits": "count",
    "lockmgr.deadlocks": "count", "lockmgr.false_contention_rate": "ratio",
    "lockmgr.lock_sim_us": "us", "lockmgr.self_s": "s",
    "buffermgr.reads": "count", "buffermgr.hit_ratio": "ratio",
    "buffermgr.xi_misses": "count", "buffermgr.cf_refreshes": "count",
    "buffermgr.pages_written": "count", "buffermgr.dirty_pages_end": "count",
    "buffermgr.self_s": "s",
    "dasd.ios": "count", "dasd.io_sim_ms": "ms", "dasd.self_s": "s",
    "cpu.utilization": "ratio", "cpu.self_s": "s",
    "database.self_s": "s", "txn.self_s": "s", "txn.shipped": "count",
    "setup.import_s": "s", "setup.build_s": "s", "setup.prewarm_s": "s",
    "setup.collect_s": "s",
    "executor.points": "count", "executor.self_s": "s",
    "distrib.frames": "count", "distrib.self_s": "s",
    "distrib.overhead_share": "ratio", "distrib.requeues": "count",
    "campaign.manifest_s": "s",
    "trace.overhead": "ratio",
}


def per_layer(untraced: dict, traced: dict) -> dict:
    """Every per-layer metric from one untraced and one traced run.

    Counts come from the traced run (they equal the untraced run's, as
    the payload hashes show); set-up phases and ns/event come from the
    untraced run.  Metrics a workload does not exercise read 0."""
    counters = traced["counters"]
    layers = traced["trace"]["layers"]
    entries = traced["trace"]["entries"]

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    def mean_sim(names, scale):
        calls = sum(entries[n]["calls"] for n in names)
        sim = sum(entries[n]["sim_s"] for n in names)
        return scale * sim / calls if calls else 0.0

    events = counters.get("simkernel.events", 0)
    out = {name: 0 for name in PER_LAYER_UNITS}
    out.update(counters)
    out.update({
        "simkernel.ns_per_event": (1e9 * untraced["run_s"] / events
                                   if events else 0.0),
        "cf.sync_sim_us": mean_sim(["CfPort.sync"], 1e6),
        "lockmgr.lock_calls": entries["LockManager.lock"]["calls"],
        "lockmgr.lock_sim_us": mean_sim(["LockManager.lock"], 1e6),
        "dasd.io_sim_ms": mean_sim(["DasdFarm.read_page",
                                    "DasdFarm.write_page"], 1e3),
        "distrib.frames": (entries["send_message"]["calls"]
                           + entries["recv_message"]["calls"]),
        "distrib.requeues": entries["SweepServer._requeue"]["calls"],
        "campaign.manifest_s": entries["Manifest.mark"]["host_s"],
        "trace.overhead": traced["e2e"]["wall_s"] / untraced["e2e"]["wall_s"],
    })
    for layer in ("simkernel", "cf", "lockmgr", "buffermgr", "dasd", "cpu",
                  "database", "txn", "executor", "distrib"):
        out[f"{layer}.self_s"] = self_s(layer)
    for phase in ("import_s", "build_s", "prewarm_s", "collect_s"):
        out[f"setup.{phase}"] = untraced["phases"][phase]
    return out


def check(workload: str, reps: list) -> tuple:
    """``(attempted, failed, problems)`` over every repetition."""
    attempted = failed = 0
    problems = []
    reference = None
    for rec in reps:
        if not rec["ok"]:
            points = CAMPAIGN_POINTS if workload == "campaign" else 1
            attempted += points
            failed += points
            problems.append(f"a repetition failed: {rec['error']}")
            continue
        attempted += rec["points"]
        if reference is None:
            reference = rec["digests"]
        for i, d in enumerate(rec["digests"]):
            if d is None or d != reference[i]:
                failed += 1
        problems += rec["errors"]
        if rec["committed"] <= 0:
            problems.append("no transaction committed")
        c = rec["counters"]
        if workload == "nosharing" and (c["cf.sync_calls"]
                                        or c["cf.async_calls"]):
            problems.append("nosharing issued CF commands")
        if workload in ("scaleout", "write_heavy") and not c["cf.sync_calls"]:
            problems.append(f"{workload} issued no CF commands")
    if failed:
        problems.append(f"{failed} point(s) failed or disagreed with the "
                        "first repetition's payload hash")
    return attempted, failed, problems


def repetitions(args, cpu: int, deadline: float) -> list:
    """Run the workload: untraced then traced with ``--trace 1``, else
    again and again until ``--seconds`` are spent (at least
    ``MIN_REPS`` times)."""
    if args.trace:
        return [run_child(args.workload, args.seed, traced, cpu, deadline)
                for traced in (False, True)]
    reps = []
    t_measure = time.monotonic()
    while len(reps) < MAX_REPS:
        reps.append(run_child(args.workload, args.seed, False, cpu, deadline))
        walls = [r["exit"] - r["spawn"] for r in reps if r["ok"]]
        if not walls:
            break
        elapsed = time.monotonic() - t_measure
        if len(reps) >= MIN_REPS and \
                elapsed + statistics.median(walls) > args.seconds:
            break
    return reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
              "is missing); run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind so the running repetition and the probe stop
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    warm_bytecode()
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    # the workload and the probe share one CPU, the last this process
    # may use, so the probe sees what the workload sees
    cpu = max(os.sched_getaffinity(0))
    probe = Probe(cpu, OUT / f"{args.workload}.seed{args.seed}"
                  f".trace{args.trace}.probe.txt")
    try:
        reps = repetitions(args, cpu, deadline)
    finally:
        probe.stop()
    if not any(r["ok"] for r in reps):
        for r in reps:
            print(f"perfbench: {r['error']}", file=sys.stderr)
        return 1
    if not probe.chunks:
        print("perfbench: the speed probe recorded nothing", file=sys.stderr)
        return 1
    calibration_s = statistics.median(probe.chunks)
    for r in reps:
        if r["ok"]:
            end_to_end(r, probe)

    attempted, failed, problems = check(args.workload, reps)
    ok = [r for r in reps if r["ok"]]
    first = ok[0]
    if args.trace:
        metrics = {}
        if len(ok) == 2:
            values = per_layer(*ok)
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                       for k, v in values.items()}
            write_trace_table(args.workload, *ok)
        else:
            problems.append("the traced or untraced run failed")
    else:
        metrics = {
            k: {"value": statistics.median(r["e2e"][k] for r in ok),
                "unit": unit}
            for k, unit in E2E_UNITS.items()
        }

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} repetitions={len(reps)}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"  simulated (not metrics): {json.dumps(first['sim'])}")
    print(f"  calibration_s (probe chunk CPU s, median; not a metric): "
          f"{calibration_s:.6f}")
    print(f"  payload sha256: {first['digests'][0]}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "calibration_s": calibration_s,
              "metrics": metrics, "problems": problems,
              "repetitions": [{k: r.get(k) for k in
                               ("ok", "traced", "e2e", "speed", "sim",
                                "error", "spawn", "setup_end", "exit",
                                "setup_cpu", "cpu_end")}
                              for r in reps]}
    (OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def write_trace_table(workload: str, untraced: dict, traced: dict) -> None:
    from spans import layer_table

    trace = traced["trace"]
    table = layer_table(workload, trace["layers"], trace["entries"],
                        traced["e2e"]["wall_s"], untraced["e2e"]["wall_s"],
                        traced["exit"] - traced["spawn"],
                        trace["kept"], trace["dropped"])
    (OUT / "trace" / f"{workload}.layers.txt").write_text(table)
    print(table)


if __name__ == "__main__":
    sys.exit(main())
