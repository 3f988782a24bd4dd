"""Transaction-level tracing: spans for every stage of a transaction's life.

The paper's §4 numbers — the < 18 % single→two-system data-sharing cost
and the < 0.5 % per-added-system increment — are *attribution* claims:
they say where cycles go (CF lock and cache round trips, buffer-coherency
invalidations, link latency) as systems are added.  This module records
enough structure to decompose a run's mean response time into those
stages instead of only reporting the end-to-end aggregate.

Design:

* A :class:`Tracer` is attached to one :class:`~repro.simkernel.Simulator`
  and records :class:`Span` intervals.  Spans opened while a simulation
  process is executing nest under that process's currently open span, so
  a CF sync command issued from inside a lock acquisition is recorded as
  a child of the ``lock`` span — :mod:`repro.trace_analysis` uses the
  parent links to compute exclusive times without double counting.
* Transaction context is *bound* to the executing process
  (:meth:`Tracer.bind`), so instrumentation deep in the stack (lock
  manager, buffer manager, CF command path) tags its spans with the
  transaction automatically.
* **One path, traced or not**: components hold ``trace=None`` by default
  and pass each instrumented process step through :func:`traced`, which
  hands the step back unchanged when there is no tracer.  A traced run
  executes the same steps, in the same profile, as an untraced one; no
  tracer object, no span allocation, no kernel watcher exists unless
  tracing was requested (``Sysplex(config, tracing=True)``).

Span categories come in two layers:

* **stage** categories (:data:`STAGES`) partition a transaction's
  response time: ``dispatch`` (arrival → region task start, including
  routing/function-shipping and admission queueing), ``lock``,
  ``coherency`` (buffer registration / refresh), ``io`` (demand DASD
  reads), ``commit`` (log force, page externalization with
  cross-invalidate, lock release) and ``cpu`` (application + database
  path length).  Stage spans never overlap within one transaction.
* **detail** categories (dotted names: ``cf.sync``, ``cf.service``,
  ``lock.wait``, ``lock.negotiate``, ``dispatch.ship``) nest inside
  stage spans and subdivide them for drill-down reporting.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "STAGES", "traced"]

#: Top-level lifecycle categories; ``repro.trace_analysis`` attributes
#: every traced microsecond of a transaction to exactly one of these.
STAGES: Tuple[str, ...] = (
    "dispatch", "lock", "coherency", "io", "commit", "cpu",
)


class Span:
    """One timed interval in a transaction's (or system task's) life."""

    __slots__ = ("category", "start", "end", "txn_id", "system",
                 "parent", "depth")

    def __init__(self, category: str, start: float,
                 txn_id: Optional[int] = None, system: Optional[str] = None,
                 parent: int = -1, depth: int = 0):
        self.category = category
        self.start = start
        self.end: Optional[float] = None  # set when the span closes
        self.txn_id = txn_id
        self.system = system
        self.parent = parent  # index into Tracer.spans, -1 for roots
        self.depth = depth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.category} [{self.start:.6f}, "
            f"{self.end if self.end is None else f'{self.end:.6f}'}] "
            f"txn={self.txn_id} depth={self.depth}>"
        )


class Tracer:
    """Records spans and completed-transaction facts for one simulator.

    The tracer keys open-span stacks by the kernel's *active process*, so
    concurrent transactions (each a separate process) trace independently
    even though they interleave on the event calendar.  It registers a
    kernel process watcher to close dangling spans when an instrumented
    process dies mid-span (system failure, deadlock victim, CF loss).

    The tracer is strictly passive: it never schedules events, so an
    identically seeded run produces identical results traced or not.
    """

    def __init__(self, sim):
        self.sim = sim
        self.spans: List[Span] = []
        #: (txn_id, arrival, completion_time, response) per completed txn
        self.completed: List[Tuple[Any, float, float, float]] = []
        self.counts: Dict[str, int] = {}
        self._stacks: Dict[object, List[int]] = {}  # process -> span idxs
        self._ctx: Dict[object, Tuple[Any, str]] = {}  # process -> (txn, sys)
        sim.add_process_watcher(self._on_process)

    # -- transaction context ------------------------------------------------
    def bind(self, txn_id: Any, system: str) -> None:
        """Tag all further spans of the active process with this txn."""
        proc = self.sim.active_process
        if proc is not None:
            self._ctx[proc] = (txn_id, system)

    def unbind(self) -> None:
        self._ctx.pop(self.sim.active_process, None)

    def txn_complete(self, txn_id: Any, arrival: float,
                     response: float) -> None:
        """A transaction committed; remember it for attribution."""
        self.completed.append((txn_id, arrival, self.sim.now, response))

    # -- span recording -----------------------------------------------------
    def begin(self, category: str) -> int:
        """Open a span in ``category``; returns its index for :meth:`end`."""
        proc = self.sim.active_process
        stack = self._stacks.get(proc)
        if stack is None:
            stack = self._stacks[proc] = []
        ctx = self._ctx.get(proc)
        span = Span(
            category, self.sim.now,
            txn_id=ctx[0] if ctx else None,
            system=ctx[1] if ctx else None,
            parent=stack[-1] if stack else -1,
            depth=len(stack),
        )
        idx = len(self.spans)
        self.spans.append(span)
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        """Close the span opened as ``idx`` at the current time."""
        span = self.spans[idx]
        if span.end is None:
            span.end = self.sim.now
        stack = self._stacks.get(self.sim.active_process)
        if stack:
            # normally idx is the top; self-heal if an inner span leaked
            while stack:
                top = stack.pop()
                if self.spans[top].end is None:
                    self.spans[top].end = self.sim.now
                if top == idx:
                    break

    def record(self, category: str, start: float, end: float,
               txn_id: Any = None, system: Optional[str] = None) -> None:
        """Record a complete root-level span from externally kept times
        (e.g. ``dispatch``: transaction arrival → region task start)."""
        span = Span(category, start, txn_id=txn_id, system=system)
        span.end = end
        self.spans.append(span)

    def traced(self, category: str, gen: Generator) -> Generator:
        """Run a process-step generator inside a span of ``category``.

        Instrumentation points call the module-level :func:`traced`,
        which also accepts ``tr=None``::

            yield from traced(tr, "lock", self.locks.lock(owner, page, mode))
        """
        idx = self.begin(category)
        try:
            result = yield from gen
        finally:
            self.end(idx)
        return result

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named event counter (no timing attached)."""
        self.counts[name] = self.counts.get(name, 0) + n

    # -- kernel hook --------------------------------------------------------
    def _on_process(self, process, event: str) -> None:
        if event != "end":
            return
        stack = self._stacks.pop(process, None)
        if stack:
            # the process died with spans open (failure paths): close them
            # at the time of death so durations stay well-defined
            for idx in stack:
                if self.spans[idx].end is None:
                    self.spans[idx].end = self.sim.now
        self._ctx.pop(process, None)


def traced(tr: Optional[Tracer], category: str,
           gen: Generator) -> Generator:
    """``gen`` itself when ``tr`` is ``None``, else ``gen`` wrapped in a
    ``category`` span: one call at every instrumentation point, and the
    same process step runs traced or not."""
    if tr is None:
        return gen
    return tr.traced(category, gen)
