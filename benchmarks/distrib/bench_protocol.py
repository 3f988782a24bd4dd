#!/usr/bin/env python
"""Work-queue protocol throughput: tasks/sec with a no-op runner.

The simulator is deliberately absent here — each task returns a small
canned payload instantly, so the number measures pure protocol cost:
frame encode/decode, dispatch and pipelining.  The matrix is pipeline
depth 1 (strict request/reply) vs 4 vs 16.  The clock starts at the
*first* result,
so fleet spin-up (interpreter start + imports, ~0.3 s per worker) never
pollutes the steady-state number.

Pipelining exists to hide wire latency, so on a bare loopback socket
(RTT ≈ 0) depth barely matters; ``--latency-ms`` inserts a TCP relay
that delays every hop, emulating the LAN/WAN round trip an
SSH-launched fleet actually pays.  At depth 1 every task then costs a
full RTT of idle worker time; at depth 4+ the next task is already in
the worker's local queue and the RTT vanishes from the wall clock.

Run:

    python benchmarks/distrib/bench_protocol.py
    python benchmarks/distrib/bench_protocol.py \
        --tasks 500 --workers 4 --latency-ms 5 --out BENCH_distrib.json

Report-only: CI uploads ``BENCH_distrib.json`` as an artifact but never
gates on it — socket throughput on a shared runner is weather, not
signal.  The schema version stamps the workload definition so numbers
are only ever compared within one definition.
"""

from __future__ import annotations

import argparse
import json
import platform
import socket
import threading
import time
from pathlib import Path
import sys

# Allow running as a plain script from the repo root without PYTHONPATH.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.distrib.launcher import LocalLauncher  # noqa: E402
from repro.distrib.server import SweepServer  # noqa: E402
from repro.runspec import RunSpec  # noqa: E402

HERE = Path(__file__).resolve().parent

#: Bumped when the benchmark workload changes (payload shape, matrix,
#: timing method), so BENCH_distrib.json artifacts are never compared
#: across definitions.
SCHEMA_VERSION = 2

#: Resolved by the workers, which get this directory on PYTHONPATH.
NOOP = "bench_protocol:noop_runner"

#: Pipeline depths — depth 1 is the pre-pipelining baseline.
DEPTHS = (1, 4, 16)


def noop_runner(spec):
    """Instant, deterministic, a few KB of JSON — a protocol-shaped load."""
    i = spec.params["i"]
    return {
        "i": i,
        "rows": [
            {"point": i, "col": j, "value": (i * 31 + j) % 997}
            for j in range(40)
        ],
    }


def bench_specs(n):
    return [RunSpec(runner=NOOP, label=f"noop-{i}", params={"i": i})
            for i in range(n)]


class LatencyRelay:
    """TCP relay adding a fixed one-way delay to every chunk, each hop."""

    def __init__(self, target: str, delay: float):
        host, _, port = target.rpartition(":")
        self._target = (host, int(port))
        self._delay = delay
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(32)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._closing = False
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while not self._closing:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            up = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                up.connect(self._target)
            except OSError:
                conn.close()
                continue
            for src, dst in ((conn, up), (up, conn)):
                threading.Thread(target=self._pump, args=(src, dst),
                                 daemon=True).start()

    def _pump(self, src, dst):
        try:
            while True:
                chunk = src.recv(65536)
                if not chunk:
                    break
                time.sleep(self._delay)
                dst.sendall(chunk)
        except OSError:
            pass
        for s in (src, dst):
            try:
                s.close()
            except OSError:
                pass

    def close(self):
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass


def run_point(specs, workers, depth, latency_ms):
    tasks = [(i, s.to_dict()) for i, s in enumerate(specs)]
    server = SweepServer(tasks, workers=workers, depth=depth)
    addr = server.start("127.0.0.1:0")
    relay = None
    connect = addr
    if latency_ms > 0:
        relay = LatencyRelay(addr, latency_ms / 1000.0)
        connect = relay.address
    launcher = LocalLauncher(count=workers, pythonpath=[HERE])
    t_first = None
    n = 0
    try:
        handles = launcher.launch(connect)
        for _done in server.results(procs=handles, startup_timeout=120.0):
            if t_first is None:
                t_first = time.perf_counter()
            n += 1
        wall = time.perf_counter() - t_first
    finally:
        server.close()
        launcher.stop()
        if relay is not None:
            relay.close()
    assert n == len(specs)
    # steady-state rate: the clock starts at the first result, so the
    # fleet's interpreter spin-up is excluded by construction
    return {
        "wall_seconds": round(wall, 4),
        "tasks_per_second": round((n - 1) / wall, 1) if wall > 0 else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tasks", type=int, default=200,
                    help="tasks per matrix point (default: 200)")
    ap.add_argument("--workers", type=int, default=4,
                    help="worker processes (default: 4)")
    ap.add_argument("--latency-ms", type=float, default=0.0,
                    help="emulated one-way wire latency per hop "
                    "(default: 0 = bare loopback)")
    ap.add_argument("--out", type=Path, default=Path("BENCH_distrib.json"),
                    help="where to write the JSON report")
    args = ap.parse_args(argv)

    specs = bench_specs(args.tasks)
    results = {}
    for depth in DEPTHS:
        name = f"depth{depth}"
        print(f"{name}: {args.tasks} tasks over {args.workers} worker(s)"
              + (f", {args.latency_ms:g}ms wire" if args.latency_ms else "")
              + "...", flush=True)
        point = run_point(specs, args.workers, depth, args.latency_ms)
        results[name] = point
        print(f"  {point['tasks_per_second']:>8.1f} tasks/s "
              f"({point['wall_seconds']:.2f}s)")

    doc = {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "tasks": args.tasks,
        "workers": args.workers,
        "latency_ms": args.latency_ms,
        "results": results,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"report written to {args.out}")

    base = results.get("depth1")
    best = max(results.values(), key=lambda r: r["tasks_per_second"])
    if base and base["tasks_per_second"]:
        print(f"best matrix point vs depth 1: "
              f"{best['tasks_per_second'] / base['tasks_per_second']:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
