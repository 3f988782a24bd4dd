"""Layer spans recorded from outside the program.

:class:`SpanTracer` wraps the public entry points of each ``repro``
layer at run time (class attributes and module functions are replaced
in place; nothing under ``src/`` changes) and records one span per call:

* **host time** is the sum of the span's resumption slices.  Most entry
  points are simulation process steps (generators); a step runs in many
  slices between simulated waits, and only those slices cost host time.
* **self time** is host time minus the host time of the spans nested in
  it.  The parent of a span is the innermost wrapped call open when the
  span first runs, so ``Simulator.run`` is the root of every process
  slice and its self time is the event loop plus any process code that
  no wrapped entry point covers.
* **simulated time** runs from the span's first resume to its return:
  the layer's latency as the model sees it, waiting included.
* the **request** of a span is the name of the active simulation process,
  which is one per transaction (``txn-<id>``).

Spans are aggregated per entry point as they finish; the first
``keep`` spans are also kept whole, in memory, and written out at the
end.  Wire calls (``send_message``/``recv_message``) run on the work-queue
server's threads, so they are recorded as flat leaf spans that never
touch the span stack.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter, thread_time
from typing import Callable, Dict, List

__all__ = ["ENTRY_POINTS", "SpanTracer", "layer_table"]

#: ``(module, attribute path, layer, kind)`` for every wrapped entry point.
#: ``kind`` is ``gen`` for generator process steps, ``call`` for plain
#: calls and ``leaf`` for thread-side calls kept off the span stack.
#: Entry points of the ``CPU_CLOCKED`` layers run on the campaign
#: submitter, where most of the wall time is spent blocked on the worker;
#: their spans measure the calling thread's CPU time instead.
ENTRY_POINTS = (
    ("repro.simkernel.core", "Simulator.run", "simkernel", "call"),
    ("repro.cf.commands", "CfPort.sync", "cf", "gen"),
    ("repro.cf.commands", "CfPort.async_", "cf", "gen"),
    ("repro.subsystems.lockmgr", "LockManager.lock", "lockmgr", "gen"),
    ("repro.subsystems.lockmgr", "LockManager.unlock", "lockmgr", "gen"),
    ("repro.subsystems.lockmgr", "LockManager.unlock_all", "lockmgr", "gen"),
    ("repro.subsystems.buffermgr", "BufferManager.try_get_local",
     "buffermgr", "call"),
    ("repro.subsystems.buffermgr", "BufferManager.get_page",
     "buffermgr", "gen"),
    ("repro.subsystems.buffermgr", "BufferManager.commit_writes",
     "buffermgr", "gen"),
    ("repro.subsystems.buffermgr", "BufferManager.flush_deferred",
     "buffermgr", "gen"),
    ("repro.hardware.dasd", "DasdFarm.read_page", "dasd", "gen"),
    ("repro.hardware.dasd", "DasdFarm.write_page", "dasd", "gen"),
    ("repro.hardware.cpu", "CpuComplex.consume", "cpu", "gen"),
    ("repro.subsystems.database", "DatabaseManager.execute",
     "database", "gen"),
    ("repro.subsystems.database", "DatabaseManager.commit",
     "database", "gen"),
    ("repro.subsystems.txn", "TransactionManager.submit", "txn", "call"),
    # the transaction's process body: without it every line of the
    # transaction outside the layers above would count as kernel time
    ("repro.subsystems.txn", "TransactionManager._run", "txn", "gen"),
    ("repro.runner", "build_loaded_sysplex", "setup", "call"),
    ("repro.subsystems.buffermgr", "BufferManager.prewarm", "setup", "call"),
    ("repro.sysplex", "Sysplex.collect", "setup", "call"),
    # campaign side: looked up by name in the modules that call them
    ("repro.campaign", "execute_iter", "executor", "gen"),
    ("repro.campaign", "Manifest.mark", "campaign", "call"),
    ("repro.distrib.server", "send_message", "distrib", "leaf"),
    ("repro.distrib.server", "recv_message", "distrib", "leaf"),
    ("repro.distrib.server", "SweepServer._requeue", "distrib", "leaf"),
)

CPU_CLOCKED = frozenset({"executor", "campaign", "distrib"})

# span record fields (a list, mutated while the span is open)
_ID, _PARENT, _NAME, _REQ, _HOST, _CHILD, _SIM0 = range(7)


class SpanTracer:
    """Records layer spans around wrapped entry points."""

    def __init__(self, keep: int = 100_000):
        self.keep = keep
        #: open spans whose slice is running, innermost last
        self.stack: List[list] = []
        #: entry point -> [calls, host_s, self_s, sim_s]
        self.stats: Dict[str, list] = {}
        self.layer_of: Dict[str, str] = {}
        #: the first ``keep`` finished spans: (id, parent, entry, request,
        #: host_s, self_s, sim_start, sim_end)
        self.spans: List[tuple] = []
        self.dropped = 0
        #: spans started but not yet finished, by id
        self.open: Dict[int, list] = {}
        self.sim = None
        self._next_id = 0
        self._leaf_lock = threading.Lock()

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for module_name, path, layer, kind in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            # a class's own dict holds the plain function, not a method
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrap = {"gen": self._wrap_gen, "call": self._wrap_call,
                    "leaf": self._wrap_leaf}[kind]
            self.layer_of[path] = layer
            self.stats[path] = [0, 0.0, 0.0, 0.0]
            clock = thread_time if layer in CPU_CLOCKED else perf_counter
            setattr(owner, attr, wrap(path, original, clock))

    # -- span bookkeeping ------------------------------------------------
    def _now(self) -> float:
        sim = self.sim
        return sim.now if sim is not None else 0.0

    def _open(self, name: str) -> list:
        stack = self.stack
        sim = self.sim
        proc = sim.active_process if sim is not None else None
        self._next_id = sid = self._next_id + 1
        span = [sid, stack[-1][_ID] if stack else 0, name,
                proc.name if proc is not None else "",
                0.0, 0.0, self._now()]
        self.open[sid] = span
        return span

    def _finish(self, span: list) -> None:
        if self.open.pop(span[_ID], None) is None:
            return
        sim1 = self._now()
        host = span[_HOST]
        self_s = host - span[_CHILD]
        st = self.stats[span[_NAME]]
        st[0] += 1
        st[1] += host
        st[2] += self_s
        st[3] += sim1 - span[_SIM0]
        if len(self.spans) < self.keep:
            self.spans.append((span[_ID], span[_PARENT], span[_NAME],
                               span[_REQ], host, self_s, span[_SIM0], sim1))
        else:
            self.dropped += 1

    def finish_open(self) -> None:
        """Close spans still open at the end (transactions in flight when
        the window ended)."""
        for span in list(self.open.values()):
            self._finish(span)

    # -- wrappers ----------------------------------------------------------
    def _wrap_call(self, name: str, fn: Callable,
                   clock: Callable[[], float]) -> Callable:
        tracer = self
        stack = self.stack
        is_run = name == "Simulator.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_run:
                tracer.sim = args[0]
            span = tracer._open(name)
            stack.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                span[_HOST] += elapsed
                if stack:
                    stack[-1][_CHILD] += elapsed
                tracer._finish(span)

        return traced

    def _wrap_gen(self, name: str, fn: Callable,
                  clock: Callable[[], float]) -> Callable:
        """A generator that drives ``fn``'s generator by hand — the
        ``yield from`` protocol, with each resumption timed as a slice."""
        tracer = self
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span = None
            value = None
            error = None
            while True:
                if span is None:
                    span = tracer._open(name)
                stack.append(span)
                t0 = clock()
                try:
                    if error is None:
                        out = gen.send(value)
                    else:
                        out = gen.throw(error)
                except StopIteration as stop:
                    tracer._slice(span, clock() - t0)
                    tracer._finish(span)
                    return stop.value
                except BaseException:
                    tracer._slice(span, clock() - t0)
                    tracer._finish(span)
                    raise
                tracer._slice(span, clock() - t0)
                try:
                    value = yield out
                    error = None
                except GeneratorExit:
                    gen.close()
                    tracer._finish(span)
                    raise
                except BaseException as exc:  # forwarded into ``gen``
                    value = None
                    error = exc

        return traced

    def _slice(self, span: list, elapsed: float) -> None:
        stack = self.stack
        stack.pop()
        span[_HOST] += elapsed
        if stack:
            stack[-1][_CHILD] += elapsed

    def _wrap_leaf(self, name: str, fn: Callable,
                   clock: Callable[[], float]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                with tracer._leaf_lock:
                    st = tracer.stats[name]
                    st[0] += 1
                    st[1] += elapsed
                    st[2] += elapsed
                    tracer._next_id = sid = tracer._next_id + 1
                    if len(tracer.spans) < tracer.keep:
                        tracer.spans.append(
                            (sid, 0, name, threading.current_thread().name,
                             elapsed, elapsed, 0.0, 0.0))
                    else:
                        tracer.dropped += 1

        return traced

    # -- reporting -----------------------------------------------------------
    def layer_stats(self) -> Dict[str, dict]:
        """Per-layer totals: calls, host_s, self_s, sim_s."""
        out: Dict[str, dict] = {}
        for name, (calls, host, self_s, sim) in self.stats.items():
            row = out.setdefault(self.layer_of[name], {
                "calls": 0, "host_s": 0.0, "self_s": 0.0, "sim_s": 0.0})
            row["calls"] += calls
            row["host_s"] += host
            row["self_s"] += self_s
            row["sim_s"] += sim
        return out

    def entry_stats(self, name: str) -> dict:
        calls, host, self_s, sim = self.stats[name]
        return {"calls": calls, "host_s": host, "self_s": self_s,
                "sim_s": sim}

    def write_spans(self, path) -> None:
        """The kept spans as tab-separated text, one span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\tentry\trequest\thost_us\tself_us"
                     "\tsim_start_us\tsim_end_us\n")
            for sid, parent, name, req, host, self_s, s0, s1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{self.layer_of[name]}\t{name}"
                         f"\t{req}\t{host * 1e6:.3f}\t{self_s * 1e6:.3f}"
                         f"\t{s0 * 1e6:.3f}\t{s1 * 1e6:.3f}\n")


def layer_table(workload: str, layers: Dict[str, dict],
                entries: Dict[str, dict], traced_wall_s: float,
                untraced_wall_s: float, clock_wall_s: float,
                spans_kept: int, spans_dropped: int) -> str:
    """The readable per-layer table: one row per layer, by self time.

    ``traced_wall_s`` and ``untraced_wall_s`` are reference seconds;
    self times and ``clock_wall_s``, the traced run's spawn-to-exit
    time, are the traced run's own clock readings, so a share is one
    clock reading over another."""
    lines = [
        f"# {workload}: host self time by layer (traced run)",
        f"# traced wall {traced_wall_s:.3f} s, untraced wall "
        f"{untraced_wall_s:.3f} s (reference seconds), tracing overhead "
        f"{traced_wall_s / untraced_wall_s:.2f}x",
        f"# self_s by the traced run's clock; share of its "
        f"{clock_wall_s:.3f} s by that clock",
        f"# spans kept {spans_kept}, not kept {spans_dropped}",
        "",
        f"{'layer':<10} {'calls':>10} {'self_s':>9} {'share':>7} "
        f"{'mean_sim_us':>12}",
    ]
    layers = {k: v for k, v in layers.items() if v["calls"]}
    entries = {k: v for k, v in entries.items() if v["calls"]}
    for layer, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        mean_sim = 1e6 * row["sim_s"] / row["calls"] if row["calls"] else 0.0
        lines.append(
            f"{layer:<10} {row['calls']:>10d} {row['self_s']:>9.3f} "
            f"{100 * row['self_s'] / clock_wall_s:>6.1f}% "
            f"{mean_sim:>12.1f}")
    lines += ["", f"{'entry point':<34} {'calls':>10} {'self_s':>9} "
              f"{'host_s':>9} {'mean_sim_us':>12}"]
    for name, row in sorted(entries.items(), key=lambda kv: -kv[1]["self_s"]):
        mean_sim = 1e6 * row["sim_s"] / row["calls"] if row["calls"] else 0.0
        lines.append(
            f"{name:<34} {row['calls']:>10d} {row['self_s']:>9.3f} "
            f"{row['host_s']:>9.3f} {mean_sim:>12.1f}")
    return "\n".join(lines) + "\n"
