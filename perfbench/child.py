"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.
Timestamps are ``time.monotonic()`` readings, which share one clock with
the parent on Linux, so the parent can measure set-up from the moment it
spawned this process.  With ``--trace`` the layers' entry points are
wrapped (see ``spans.py``) and the spans and per-layer table are written
to ``--out``.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import SpanTracer  # noqa: E402
from workloads import WORKLOADS, campaign_specs, oltp_spec  # noqa: E402


def digest(payload) -> str:
    from repro.runspec import canonical_json

    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def tree_cpu_s() -> float:
    """CPU seconds (user + system) of this process and its descendants.

    Reaped children count through ``RUSAGE_CHILDREN``, live ones (the
    campaign worker during set-up) through ``/proc/<pid>/schedstat``."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    done = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + done.ru_utime + done.ru_stime
    pending = [os.getpid()]
    while pending:
        pid = pending.pop()
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as f:
                    kids = [int(k) for k in f.read().split()]
                for kid in kids:
                    with open(f"/proc/{kid}/schedstat") as f:
                        total += int(f.read().split()[0]) / 1e9
                    pending.append(kid)
        except (FileNotFoundError, ProcessLookupError):
            continue  # a process that ended while being read
    return total


def peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids)


class Timer:
    """Accumulated host seconds of one wrapped call site."""

    def __init__(self):
        self.seconds = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.monotonic() - t0
        return timed


def run_oltp_workload(name: str, seed: int) -> dict:
    import repro.runner as runner
    from repro.subsystems.buffermgr import BufferManager
    from repro.sysplex import Sysplex

    t_imported = time.monotonic()
    spec = oltp_spec(name, seed)
    # phase stamps: one call each, so the untraced run pays nothing per
    # event for them
    box = {}
    build = runner.build_loaded_sysplex
    prewarm, collect = Timer(), Timer()

    def stamped_build(*args, **kwargs):
        plex, gen = build(*args, **kwargs)
        box["plex"] = plex
        box["setup_end"] = time.monotonic()
        box["setup_cpu"] = tree_cpu_s()
        return plex, gen

    runner.build_loaded_sysplex = stamped_build
    BufferManager.prewarm = prewarm.wrap(BufferManager.prewarm)
    Sysplex.collect = collect.wrap(Sysplex.collect)
    result = spec.run()
    t_run_end = time.monotonic()

    plex = box["plex"]
    instances = list(plex.instances.values())
    buffers = [inst.buffers for inst in instances]
    ports = [conn.port for inst in instances
             for conn in (inst.xes_lock, inst.xes_cache, inst.xes_list)
             if conn is not None]
    sync_ops = sum(p.sync_ops for p in ports)
    reads = sum(b.local_hits + b.cf_refreshes + b.dasd_reads for b in buffers)
    local_hits = sum(b.local_hits for b in buffers)
    cpu = result.cpu_utilization
    counters = {
        "simkernel.events": plex.sim.events_processed,
        "cf.sync_calls": sync_ops,
        "cf.async_calls": sum(p.async_ops for p in ports),
        "cf.collapsed_ratio": (sum(p.fast_syncs for p in ports) / sync_ops
                               if sync_ops else 0.0),
        "cf.retries": sum(p.retries for p in ports),
        "cf.utilization": result.cf_utilization,
        "lockmgr.waits": plex.lock_space.waits,
        "lockmgr.deadlocks": plex.lock_space.deadlocks,
        "lockmgr.false_contention_rate":
            result.extras.get("false_contention_rate", 0.0),
        "buffermgr.reads": reads,
        "buffermgr.hit_ratio": local_hits / reads if reads else 0.0,
        "buffermgr.xi_misses": sum(b.coherency_misses for b in buffers),
        "buffermgr.cf_refreshes": sum(b.cf_refreshes for b in buffers),
        "buffermgr.pages_written": sum(b.pages_written for b in buffers),
        "buffermgr.dirty_pages_end": sum(len(b.dirty_pages())
                                         for b in buffers),
        "dasd.ios": plex.farm.total_ios,
        "cpu.utilization": sum(cpu.values()) / len(cpu) if cpu else 0.0,
        "txn.shipped": result.extras.get("shipped", 0.0),
    }
    payload = result.to_dict()
    return {
        "setup_end": box["setup_end"],
        "setup_cpu": box["setup_cpu"],
        "run_end": t_run_end,
        "phases": {
            "import_s": t_imported - T_START,
            "build_s": box["setup_end"] - t_imported - prewarm.seconds,
            "prewarm_s": prewarm.seconds,
            "collect_s": collect.seconds,
        },
        # every commit since the first event, warmup included, to match
        # the host time it is divided by
        "committed": plex.metrics.counter("txn.completed").count,
        "points": 1,
        "digests": [digest(payload)],
        "errors": [],
        "sim": {
            "tps": result.throughput,
            "response_p95_ms": 1e3 * result.response_p95,
            "cf_utilization": result.cf_utilization,
            "events": plex.sim.events_processed,
        },
        "counters": counters,
    }


def run_campaign_workload(seed: int, scratch: Path) -> dict:
    import repro.distrib.server as server
    from repro.campaign import MANIFEST_NAME, Manifest, run_campaign
    from repro.executor import ResultCache, WorkQueueBackend

    t_imported = time.monotonic()
    specs = campaign_specs(seed)
    box = {}
    send = server.send_message

    def stamped_send(wfile, message, *args, **kwargs):
        # the welcome frame ends the hello handshake: set-up is over
        if "setup_end" not in box and message.get("op") == "welcome":
            box["setup_end"] = time.monotonic()
            box["setup_cpu"] = tree_cpu_s()
        return send(wfile, message, *args, **kwargs)

    server.send_message = stamped_send
    shutil.rmtree(scratch, ignore_errors=True)
    cache = ResultCache(scratch / "cache")
    backend = WorkQueueBackend(workers=1, spawn=True)
    summary = run_campaign(specs, scratch / "campaign", backend=backend,
                           cache=cache, progress=False, stream=None)
    t_run_end = time.monotonic()

    manifest = Manifest(scratch / "campaign" / MANIFEST_NAME)
    digests, errors, committed = [], [], 0
    worker_seconds = 0.0
    for spec in specs:
        rec = manifest.records.get(spec.content_hash(), {})
        payload = cache.get(spec)
        if rec.get("status") != "done" or payload is None:
            errors.append(f"{spec.label}: {rec.get('error') or 'missing'}")
            digests.append(None)
            continue
        worker_seconds += rec.get("seconds", 0.0)
        # payloads carry only the measured window's commits
        committed += payload["data"]["completed"]
        digests.append(digest(payload))
    shutil.rmtree(scratch, ignore_errors=True)
    run_s = t_run_end - box["setup_end"]
    return {
        "setup_end": box["setup_end"],
        "setup_cpu": box["setup_cpu"],
        "run_end": t_run_end,
        "phases": {
            "import_s": t_imported - T_START,
            "build_s": box["setup_end"] - t_imported,
            "prewarm_s": 0.0,
            "collect_s": 0.0,
        },
        "committed": committed,
        "points": len(specs),
        "digests": digests,
        "errors": errors,
        "sim": {"points_done": summary["done_this_run"]},
        "counters": {
            "executor.points": summary["done_this_run"]
            + summary["failed_this_run"],
            # manifest seconds are the workers' own per-point times
            "distrib.overhead_share": 1.0 - worker_seconds / run_s,
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path, required=True,
                    help="directory for trace files and scratch data")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = SpanTracer()
        tracer.install()
    workload = WORKLOADS[args.workload]
    if workload.kind == "campaign":
        out = run_campaign_workload(args.seed,
                                    args.out / f"scratch-{args.workload}")
    else:
        out = run_oltp_workload(args.workload, args.seed)
    out["rss_kb"] = peak_rss_kb()
    out["cpu_end"] = tree_cpu_s()

    if tracer is not None:
        tracer.finish_open()
        out["trace"] = {
            "layers": tracer.layer_stats(),
            "entries": {name: tracer.entry_stats(name)
                        for name in tracer.stats},
            "kept": len(tracer.spans),
            "dropped": tracer.dropped,
        }
        tracer.write_spans(args.out / f"{args.workload}.spans.tsv")
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
