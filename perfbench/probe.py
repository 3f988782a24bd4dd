"""The speed probe: a fixed pure-Python workload timed in short chunks.

``run.py`` starts one probe per invocation, pinned to the CPU that runs
the workload, so the two share that CPU for the whole measurement.  The
probe's code never changes with the program, so the CPU time of one of
its chunks tells how fast that CPU is running Python at that moment.
On a shared host that speed drifts by up to 2x over seconds to minutes;
``run.py`` divides the workload's CPU time by the probe's chunk time of
the same interval, which takes the drift out.

Each chunk mixes an integer loop with heap operations and look-ups
scattered over a 200,000-entry dict (some 70 MB in all), as the
simulator's event loop mixes arithmetic with its pools and tables.  One
line per chunk is written to ``--out``:
``<monotonic midpoint> <thread CPU seconds>``.

Run as ``python3 perfbench/probe.py --out FILE --cpu N``; it stops on
SIGTERM, or by itself once its parent has gone.
"""

from __future__ import annotations

import argparse
import heapq
import os
import signal
import time

#: look-up table of the dict part; a small table tracked the workloads'
#: speed worse
TABLE_SIZE = 200_000
LOOP_ITERATIONS = 6_000
HEAP_OPERATIONS = 1_000
#: the probe's niceness: with it the workload keeps about 90 % of the CPU
PROBE_NICE = 10


def make_state():
    table = {i: (i, str(i), [i]) for i in range(TABLE_SIZE)}
    keys = [(i * 7919) % TABLE_SIZE for i in range(4096)]
    return table, keys


def chunk(table, keys) -> int:
    """One unit of fixed work, about 2 ms on a 2 GHz Xeon."""
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    heap = []
    for j in range(HEAP_OPERATIONS):
        entry = table[(keys[j & 4095] + j) % TABLE_SIZE]
        heapq.heappush(heap, (entry[0] * 7 % 1009, j, entry))
        if len(heap) > 128:
            acc += len(heapq.heappop(heap)[2][1])
    return acc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--cpu", type=int, required=True)
    args = ap.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    # a small share of the CPU is enough to sample its speed.  Where the
    # scheduler shares the CPU between sessions first (autogroup), the
    # probe's own session gets the niceness too
    os.nice(PROBE_NICE)
    if os.path.exists("/proc/self/autogroup"):
        os.setsid()
        try:
            with open("/proc/self/autogroup", "w") as f:
                f.write(str(PROBE_NICE))
        except OSError:
            pass  # not allowed here: the probe takes a larger share
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    table, keys = make_state()
    with open(args.out, "w") as out:
        while not stop and os.getppid() == parent:
            c0 = time.thread_time()
            t0 = time.monotonic()
            chunk(table, keys)
            t1 = time.monotonic()
            c1 = time.thread_time()
            out.write(f"{(t0 + t1) / 2:.6f} {c1 - c0:.9f}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
