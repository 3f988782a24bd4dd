"""Sweep execution: in-process, or through the work queue.

Every quantitative target in the paper is produced by sweeping many
*independent* simulation runs, so the parallelism lives here — at the
embarrassingly-parallel sweep level — and never inside the
(deliberately deterministic) event kernel.  Two entry points:

* :func:`execute` takes a list of :class:`~repro.runspec.RunSpec` and
  returns their results **in spec order** (the barrier form every
  experiment uses);
* :func:`execute_iter` is the streaming form: it yields a
  :class:`Completion` per spec **as each one finishes** (cache hits
  first, then computed points in completion order), so a thousand-point
  sweep reports progress instead of going dark until the barrier.

A sweep runs one of two ways.  With ``backend=None`` (the default) each
uncached spec runs in the calling process, one after another.  Anything
parallel, local or remote, goes through :class:`WorkQueueBackend`: a
small work-queue server (:mod:`repro.distrib`) that N worker client
processes drain over newline-delimited JSON on a TCP or unix socket.
Workers are spawned locally by default but any ``python -m
repro.distrib.worker --connect HOST:PORT`` on any host with the repo
installed can join.

:meth:`WorkQueueBackend.run` takes ``(index, RunSpec)`` pairs (the cache
misses, deduplicated) and yields one :class:`TaskDone` per task in
whatever order the tasks complete.  The submitter is the only reader and
the only writer of the result cache: :func:`execute_iter` answers every
cached spec before anything is queued, and puts every computed payload
into its cache as it arrives, so a sweep drained by remote workers
leaves the local ``.runcache`` as warm as a local run would have.
Workers never see the cache.

Determinism contract: for a given spec hash, the returned result is
bit-identical whether it was computed in-process, in a work-queue
worker, or read back from the cache.  To enforce that, *every* path
round-trips the runner's output through canonical JSON before handing
it back — a fresh in-process run cannot differ from a cache hit by float
formatting or dict ordering, and a work-queue worker ships exactly the
bytes a cache file would contain.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from .metrics import RunResult
from .runspec import SCHEMA_VERSION, RunSpec, canonical_json

__all__ = [
    "execute",
    "execute_iter",
    "WorkQueueBackend",
    "ResultCache",
    "Progress",
]

#: Where the CLI keeps its cache, relative to the invocation directory.
DEFAULT_CACHE_DIR = ".runcache"


# -- payloads ---------------------------------------------------------------
# A payload is the JSON form of whatever a runner returned: RunResults are
# tagged so they rebuild as RunResult, anything else passes through as
# plain data.

def _payload_from(obj: Any) -> dict:
    if isinstance(obj, RunResult):
        return {"kind": "runresult", "data": obj.to_dict()}
    return {"kind": "json", "data": obj}


def _result_from(payload: dict) -> Any:
    if payload["kind"] == "runresult":
        return RunResult.from_dict(payload["data"])
    return payload["data"]


def canonical_payload(spec: RunSpec) -> Any:
    """Run ``spec`` in-process and return its canonically round-tripped
    result.

    The runner's output goes through the same canonical-JSON round trip
    a cache file or a work-queue worker applies, so the fuzzer's
    byte-determinism oracle judges exactly the bytes every execution
    path would carry — "deterministic" means the same thing there as it
    does here.
    """
    return _result_from(json.loads(canonical_json(_payload_from(spec.run()))))


def run_task(spec_dict: dict) -> dict:
    """Run one spec, in-process or in a worker, and return its payload.

    Takes and returns plain JSON-shaped data so the only things crossing
    a process or socket boundary are bytes — no code objects, no live
    simulators.
    """
    result = RunSpec.from_dict(spec_dict).run()
    # A finished simulation is cyclic garbage (processes, generators,
    # events), and run_oltp pauses the cycle collector over the next
    # point's run.  Free it now, while little else is live, so that it
    # is not still resident while the next point runs.  Finalizing the
    # run's suspended generators defers what their frames reach to a
    # later pass, so collect until a pass finds nothing.
    while gc.collect():
        pass
    return json.loads(canonical_json(_payload_from(result)))


class ResultCache:
    """On-disk content-addressed store: ``<root>/<spec hash>.json``.

    Each file records the full spec alongside its payload, so a cache
    directory is self-describing (and auditable with ``jq``).  Writes are
    atomic (tempfile + rename); corrupt or schema-stale entries read as
    misses.  Because the key is the spec's content hash and the value is
    canonical JSON, a cache directory can be shared between hosts and
    backends: equal keys always map to equal bytes.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, spec: RunSpec) -> Path:
        return self.root / f"{spec.content_hash()}.json"

    def get(self, spec: RunSpec) -> Optional[dict]:
        return self.get_by_hash(spec.content_hash())

    def get_by_hash(self, content_hash: str) -> Optional[dict]:
        """Look up a payload by its spec's content hash directly.

        This is what the executor uses when it already holds the hash,
        so a spec is never canonicalised twice.
        """
        try:
            with open(self.root / f"{content_hash}.json", "r",
                      encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if entry.get("schema") != SCHEMA_VERSION:
            self.misses += 1
            return None
        self.hits += 1
        return entry["payload"]

    def put(self, spec: RunSpec, payload: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": SCHEMA_VERSION,
            "hash": spec.content_hash(),
            "spec": spec.to_dict(),
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(entry))
            os.replace(tmp, self.path_for(spec))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def _as_cache(cache: Union[None, str, Path, ResultCache]) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


# -- progress ---------------------------------------------------------------


class Progress:
    """Sweep-level progress: completed/total, cache hits, point cost, ETA.

    Feed it one :meth:`update` per finished spec (cache hits included).
    The per-point cost is an EWMA over *computed* points only, so a warm
    prefix of cache hits does not poison the estimate, and the ETA
    divides by the sweep's parallelism (its work-queue worker count, or
    1 in-process).
    With a ``stream``, each update prints a one-line report::

        [ 7/22  hits 3  1.9s/pt  eta 28s] plex-16
    """

    #: EWMA smoothing: ~the last 3-4 computed points dominate.
    ALPHA = 0.35

    def __init__(self, total: int, parallelism: int = 1,
                 stream: Optional[TextIO] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.total = int(total)
        self.parallelism = max(1, int(parallelism))
        self.completed = 0
        self.cache_hits = 0
        self.ewma_seconds: Optional[float] = None
        self._stream = stream
        self._clock = clock
        self.started_at = clock()

    def update(self, spec: RunSpec, cached: bool, seconds: float) -> None:
        self.completed += 1
        if cached:
            self.cache_hits += 1
        elif self.ewma_seconds is None:
            self.ewma_seconds = seconds
        else:
            self.ewma_seconds = (self.ALPHA * seconds
                                 + (1.0 - self.ALPHA) * self.ewma_seconds)
        if self._stream is not None:
            print(self.line(spec, cached, seconds), file=self._stream,
                  flush=True)

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.completed)

    def eta_seconds(self) -> Optional[float]:
        """Wall-clock estimate for the rest of the sweep (None = unknown).

        Remaining points are assumed uncached (the pessimistic estimate:
        hits only ever finish early) and to pipeline perfectly across
        the backend's parallel workers.
        """
        if self.remaining == 0:
            return 0.0
        if self.ewma_seconds is None:
            return None
        return self.remaining * self.ewma_seconds / self.parallelism

    def elapsed(self) -> float:
        return self._clock() - self.started_at

    def line(self, spec: RunSpec, cached: bool, seconds: float) -> str:
        label = spec.label or f"{spec.runner}@{spec.short_hash()}"
        note = "cache" if cached else f"{seconds:4.1f}s"
        width = len(str(self.total))
        eta = self.eta_seconds()
        eta_note = "--" if eta is None else _fmt_seconds(eta)
        cost = ("" if self.ewma_seconds is None
                else f"  {self.ewma_seconds:.1f}s/pt")
        return (f"  [{self.completed:>{width}}/{self.total} {note}  "
                f"hits {self.cache_hits}{cost}  eta {eta_note}] {label}")

    def summary(self) -> str:
        done = _fmt_seconds(self.elapsed())
        return (f"{self.completed}/{self.total} points in {done} "
                f"({self.cache_hits} cache hits)")


def _fmt_seconds(s: float) -> str:
    if s >= 3600:
        return f"{s / 3600:.1f}h"
    if s >= 60:
        return f"{int(s // 60)}m{int(s % 60):02d}s"
    return f"{s:.0f}s"


# -- execution paths --------------------------------------------------------


class TaskDone(NamedTuple):
    """One finished task: the payload for ``specs[index]``.

    A *failed* task is a TaskDone too: ``payload`` is None and
    ``error`` holds the formatted failure (``exc`` additionally carries
    the live exception when the failure happened in this process, so
    the caller can re-raise the original).  Neither path raises for a
    task failure — whether a failure aborts the sweep is the caller's
    policy (see ``execute_iter(errors=...)``).
    """

    index: int
    payload: Optional[dict]
    seconds: float
    error: Optional[str] = None
    exc: Optional[BaseException] = None


def _run_in_process(tasks: Sequence[Tuple[int, RunSpec]]
                    ) -> Iterator[TaskDone]:
    """Run each task in the calling process, in order."""
    for index, spec in tasks:
        t0 = time.perf_counter()
        try:
            payload = run_task(spec.to_dict())
        except Exception as exc:  # noqa: BLE001 - caller's policy
            yield TaskDone(index, None, time.perf_counter() - t0,
                           error=f"{type(exc).__name__}: {exc}", exc=exc)
            continue
        yield TaskDone(index, payload, time.perf_counter() - t0)


class WorkQueueBackend:
    """Drain a sweep through the :mod:`repro.distrib` work-queue server.

    The submitter starts a server holding the pending specs; worker
    client processes connect, pull tasks over newline-delimited JSON
    frames, and stream canonical payloads back.  Dispatch is
    **pipelined**: the server keeps up to ``depth`` tasks in flight per
    worker (refills batched into single frames) so workers never idle
    for a round trip between points; in a fleet of two or more, no
    worker holds more than its share of the tasks left.  A worker that
    dies mid-task has its in-flight tasks resubmitted to the queue (up
    to ``max_resubmits`` attempts per task); a worker whose *runner*
    raises reports the error, which surfaces at the submitter.

    ``spawn`` selects who starts the workers:

    * ``True`` (default) — ``workers`` local processes via
      :class:`~repro.distrib.launcher.LocalLauncher`;
    * a :class:`~repro.distrib.launcher.WorkerLauncher` — e.g.
      :class:`~repro.distrib.launcher.SshLauncher` for a
      ``host1:4,host2:8`` fleet or
      :class:`~repro.distrib.launcher.CommandLauncher` for an arbitrary
      shell template;
    * ``False`` — the server just listens; start workers yourself
      (possibly on other hosts) against the address in
      :attr:`last_address`.

    ``address`` may be ``"host:port"`` (TCP; ``"127.0.0.1:0"`` picks a
    free port) or ``"unix:/path.sock"``; the default is an ephemeral
    loopback TCP port.  ``pythonpath`` prepends extra entries to the
    spawned workers' ``PYTHONPATH`` (the directory containing
    :mod:`repro` is always included).  Workers never read the result
    cache: the tasks this backend receives are the submitter's misses.
    """

    def __init__(self, workers: int = 2,
                 address: Optional[str] = None,
                 spawn: Union[bool, "WorkerLauncher"] = True,
                 max_resubmits: int = 3,
                 pythonpath: Sequence[Union[str, Path]] = (),
                 startup_timeout: float = 60.0,
                 depth: int = 4):
        self.workers = max(1, int(workers))
        self.address = address
        self.spawn = spawn
        self.max_resubmits = max_resubmits
        self.pythonpath = [str(p) for p in pythonpath]
        self.startup_timeout = startup_timeout
        self.depth = max(1, int(depth))
        #: The address the last server actually bound (for external
        #: workers when ``spawn=False``).
        self.last_address: Optional[str] = None

    def parallelism(self) -> int:
        count = getattr(self.spawn, "count", None)
        if count:
            return int(count)
        return self.workers

    def _launcher(self, n_tasks: int):
        from .distrib.launcher import LocalLauncher, WorkerLauncher

        if isinstance(self.spawn, WorkerLauncher):
            return self.spawn
        if self.spawn:
            return LocalLauncher(count=min(self.workers, n_tasks),
                                 pythonpath=self.pythonpath)
        return None

    def run(self, tasks: Sequence[Tuple[int, RunSpec]]
            ) -> Iterator[TaskDone]:
        from .distrib.server import SweepServer

        server = SweepServer(
            [(index, spec.to_dict()) for index, spec in tasks],
            max_resubmits=self.max_resubmits,
            depth=self.depth,
            workers=self.parallelism(),
        )
        address = server.start(self.address)
        self.last_address = address
        launcher = self._launcher(len(tasks))
        handles: List = []
        try:
            if launcher is not None:
                handles = list(launcher.launch(address))
            yield from server.results(
                procs=handles, startup_timeout=self.startup_timeout)
        finally:
            # closing the server sends/forces EOF on every worker
            # connection, so remote (e.g. SSH-launched) workers exit on
            # their own; the launcher then reaps local processes
            server.close()
            if launcher is not None:
                launcher.stop()


# -- entry points -----------------------------------------------------------


class Completion(NamedTuple):
    """One streamed sweep result: ``specs[index]`` finished.

    With ``execute_iter(errors="yield")`` a failed spec completes too:
    ``result`` is None and ``error`` holds the formatted failure.
    """

    index: int
    spec: RunSpec
    result: Any
    cached: bool
    seconds: float
    error: Optional[str] = None


def execute_iter(specs: Sequence[RunSpec],
                 cache: Union[None, str, Path, ResultCache] = None,
                 backend: Optional[WorkQueueBackend] = None,
                 progress: Union[None, bool, Progress] = None,
                 errors: str = "raise"
                 ) -> Iterator[Completion]:
    """Run ``specs``, yielding a :class:`Completion` per spec as it lands.

    Submitter-side cache hits stream first (in spec order, instantly),
    then the computed points in whatever order they finish — so
    consumers see results incrementally instead of waiting for the
    barrier.  Uncached specs run in this process with ``backend=None``,
    else through the :class:`WorkQueueBackend`.  Every computed payload
    is written back to ``cache`` as it arrives.  ``progress`` may be a
    :class:`Progress` (it is updated per completion), ``True`` for a
    default one printing to stderr, or ``None``/``False`` for none.

    **Deduplication**: specs with equal content hashes are computed
    once — the one result fans out to every index that asked for it, so
    a sweep with repeated points costs one simulation even on a cold
    cache.

    **Failure policy**: with ``errors="raise"`` (the default) the first
    failed spec aborts the sweep — in-process failures re-raise the
    original exception, worker-side failures raise
    :class:`~repro.distrib.WorkerTaskError`.  With ``errors="yield"``
    a failed spec is yielded as a Completion with ``error`` set and the
    sweep keeps going — the campaign driver's mode, where one bad point
    must not sink a thousand-point night.
    """
    if errors not in ("raise", "yield"):
        raise ValueError(f"errors must be 'raise' or 'yield', not {errors!r}")
    cache = _as_cache(cache)
    if progress is True:
        progress = Progress(
            len(specs),
            parallelism=backend.parallelism() if backend is not None else 1,
            stream=sys.stderr)
    elif progress is False:
        progress = None

    def emit(index: int, spec: RunSpec, result: Any, cached: bool,
             seconds: float, error: Optional[str] = None) -> Completion:
        if progress is not None:
            progress.update(spec, cached, seconds)
        return Completion(index, spec, result, cached, seconds, error)

    pending: List[Tuple[int, RunSpec]] = []
    hits: List[Tuple[int, dict]] = []
    duplicates: Dict[int, List[int]] = {}
    first_with_hash: Dict[str, int] = {}
    for i, spec in enumerate(specs):
        content_hash = spec.content_hash()
        hit = (cache.get_by_hash(content_hash)
               if cache is not None else None)
        if hit is not None:
            hits.append((i, hit))
            continue
        rep = first_with_hash.get(content_hash)
        if rep is None:
            first_with_hash[content_hash] = i
            pending.append((i, spec))
        else:
            # identical spec already submitted: fan its result out here
            duplicates.setdefault(rep, []).append(i)
    for i, payload in hits:
        yield emit(i, specs[i], _result_from(payload), True, 0.0)
    if not pending:
        return
    done_stream = (_run_in_process(pending) if backend is None
                   else backend.run(pending))
    for done in done_stream:
        fanout = [done.index, *duplicates.get(done.index, ())]
        if done.error is not None:
            if errors == "raise":
                if done.exc is not None:
                    raise done.exc
                from .distrib.server import WorkerTaskError

                raise WorkerTaskError(
                    f"task {done.index} failed on a worker: {done.error}"
                )
            for j in fanout:
                yield emit(j, specs[j], None, False,
                           done.seconds if j == done.index else 0.0,
                           error=done.error)
            continue
        if cache is not None:
            cache.put(specs[done.index], done.payload)
        for j in fanout:
            yield emit(j, specs[j], _result_from(done.payload),
                       False, done.seconds if j == done.index else 0.0)


def execute(specs: Sequence[RunSpec],
            cache: Union[None, str, Path, ResultCache] = None,
            backend: Optional[WorkQueueBackend] = None,
            progress: Union[None, bool, Progress] = None,
            errors: str = "raise") -> List[Any]:
    """Run ``specs`` and return their results, in spec order.

    The barrier form of :func:`execute_iter`: results stream internally
    (progress fires as points finish) but the return value is assembled
    in deterministic spec order regardless of completion order.
    ``backend=None`` runs every uncached spec in this process; a
    :class:`WorkQueueBackend` fans them out over its workers.  ``cache``
    may be a :class:`ResultCache`, a directory path, or None.  With
    ``errors="yield"``, failed specs come back as None.
    """
    results: List[Any] = [None] * len(specs)
    for c in execute_iter(specs, cache=cache, backend=backend,
                          progress=progress, errors=errors):
        results[c.index] = c.result
    return results
