"""The submitter-side work-queue server for distributed sweeps.

A :class:`SweepServer` holds the pending ``(index, spec_dict)`` tasks of
one sweep and serves them to worker connections.  Dispatch is
**pipelined**: the server keeps up to ``depth`` tasks in flight per
worker, so a worker always has its next task buffered locally and never
idles for a network round trip between points.  Multi-task refills go
out as one batched ``tasks`` frame; each result comes back in its own
frame.
With a fleet of two or more ``workers`` no worker is refilled past its
share of the tasks left, one held back: a short sweep is then not
split statically among the workers as they connect, and its tail,
where the largest points of a size-ordered grid sit, goes to whichever
worker frees up first.
A worker whose ``hello`` names another protocol version than this
server's gets an ``error`` frame and is disconnected.

The server knows nothing of the result cache: the submitter answers
cached specs before they are queued, so every task here is a point to
compute, and nothing a worker sends names a file on this host.

Fault model (the paper's, scaled down): a worker is allowed to die.  If
a connection drops with tasks outstanding, they go back on the queue
for another worker — up to ``max_resubmits`` extra attempts each, after
which the task surfaces as a failure (a spec that kills every worker
that touches it should fail the sweep, not spin forever).  A *runner*
exception inside a healthy worker is not retried: specs are
deterministic, so the error would simply repeat.  A worker that leaves
**cleanly** (SIGTERM teardown: it finishes its running task, sends
``bye`` naming its unstarted pipelined tasks) has every task still in
flight to it requeued without any resubmission penalty — fleet teardown
is routine, not churn.  That holds when a send to the departing worker
fails before its buffered ``bye`` is read: the dispatcher drains the
worker's frames up to EOF before it calls the connection crashed.
Workers stay connected (polling for requeued work) until every task
has a result, so late resubmissions always have somewhere to go.

Each connection runs two daemon threads: a reader pumping decoded
frames into an inbox queue, and a dispatcher multiplexing that inbox
against the shared task queue.  That split is what lets the server
notice a half-closed socket, a buffered ``bye``, and a requeued task
without ever blocking on the wrong one.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..executor import TaskDone
from .protocol import (
    PROTO_VERSION,
    ProtocolError,
    format_address,
    no_delay,
    parse_address,
    recv_message,
    send_message,
)

__all__ = ["SweepServer", "WorkerTaskError"]

log = logging.getLogger("repro.distrib")

#: Default bind: loopback TCP on an ephemeral port.
DEFAULT_ADDRESS = "127.0.0.1:0"

#: Default pipeline depth: tasks kept in flight per worker.  1 is strict
#: pull-per-round-trip.
DEFAULT_DEPTH = 4

#: Seconds to wait for a worker's remaining frames after a send to it
#: failed; its reader sees EOF as soon as the socket is gone.
SETTLE_TIMEOUT = 5.0


class WorkerTaskError(RuntimeError):
    """A sweep task failed on the worker side (runner raised, or the
    task exhausted its resubmission budget), or the worker fleet died
    before the sweep could finish."""


class SweepServer:
    """Serve one sweep's tasks to worker connections (see module docs)."""

    def __init__(self, tasks: Sequence[Tuple[int, dict]],
                 workers: int,
                 max_resubmits: int = 3,
                 depth: int = DEFAULT_DEPTH):
        self._tasks = list(tasks)
        self._total = len(self._tasks)
        self._max_resubmits = max_resubmits
        self._depth = max(1, int(depth))
        #: the fleet size the sweep is launched with
        self._workers = max(1, int(workers))
        self._todo: "queue.Queue[Tuple[int, dict]]" = queue.Queue()
        for task in self._tasks:
            self._todo.put(task)
        self._out: "queue.Queue[TaskDone]" = queue.Queue()
        self._lock = threading.Lock()
        self._attempts: Dict[int, int] = {}
        self._completed = 0
        self._active_workers = 0
        self._ever_connected = False
        self._clean_departures = 0
        self._closing = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._unix_path: Optional[str] = None
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self, address: Optional[str] = None) -> str:
        """Bind, listen, and start accepting; returns the bound address."""
        address = address or DEFAULT_ADDRESS
        family, sockaddr = parse_address(address)
        self._listener = socket.socket(family, socket.SOCK_STREAM)
        if family == socket.AF_INET:
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
        else:
            self._unix_path = str(sockaddr)
        self._listener.bind(sockaddr)
        self._listener.listen()
        bound = format_address(family, self._listener.getsockname())
        acceptor = threading.Thread(target=self._accept_loop,
                                    name="sweep-server-accept", daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        log.info("sweep server listening on %s (%d tasks, depth %d)",
                 bound, self._total, self._depth)
        return bound

    def close(self) -> None:
        self._closing.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        # shut down live worker connections so their handlers (and any
        # remote worker blocked on this socket) unblock immediately —
        # this is also what tears down an SSH-launched fleet cleanly
        # when the submitter aborts
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._unix_path is not None:
            import os

            try:
                os.unlink(self._unix_path)
            except OSError:
                pass

    # -- submitter side -----------------------------------------------------

    def results(self, procs: Sequence = (),
                startup_timeout: float = 60.0) -> Iterator[TaskDone]:
        """Yield one :class:`~repro.executor.TaskDone` per task.

        Task *failures* come back as TaskDones with ``error`` set (the
        caller decides whether to raise or keep sweeping); fleet-level
        failures raise :class:`WorkerTaskError` here.  ``procs`` are the
        launched worker handles (anything with ``poll()``, e.g.
        ``subprocess.Popen``) used for liveness: if every one has
        permanently exited, none is connected, and tasks remain, the
        sweep raises instead of hanging.  ``startup_timeout`` bounds the
        wait for the *first* worker to appear.
        """
        import time

        yielded = 0
        deadline = time.monotonic() + startup_timeout
        while yielded < self._total:
            try:
                item = self._out.get(timeout=0.5)
            except queue.Empty:
                with self._lock:
                    connected = self._active_workers
                    seen_any = self._ever_connected
                if connected == 0:
                    if procs and all(p.poll() is not None for p in procs):
                        raise WorkerTaskError(
                            f"all {len(procs)} worker(s) exited with "
                            f"{self._total - yielded} task(s) unfinished"
                        )
                    if not seen_any and time.monotonic() > deadline:
                        raise WorkerTaskError(
                            f"no worker connected within {startup_timeout:.0f}s"
                        )
                continue
            yielded += 1
            yield item

    # -- worker side --------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            no_delay(conn)
            with self._lock:
                self._conns.append(conn)
            handler = threading.Thread(target=self._serve_conn, args=(conn,),
                                       name="sweep-server-worker",
                                       daemon=True)
            handler.start()
            self._threads.append(handler)

    def _deliver(self, item: TaskDone) -> None:
        with self._lock:
            self._completed += 1
        self._out.put(item)

    def _read_loop(self, rfile, inbox: "queue.Queue") -> None:
        """Pump decoded frames from one worker into its inbox."""
        try:
            while True:
                msg = recv_message(rfile)
                if msg is None:
                    inbox.put(("eof", None))
                    return
                inbox.put(("msg", msg))
        except (ProtocolError, ValueError) as exc:
            inbox.put(("err", exc))
        except OSError:
            inbox.put(("eof", None))

    def _serve_conn(self, conn: socket.socket) -> None:
        with self._lock:
            self._active_workers += 1
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        in_flight: Dict[int, Tuple[int, dict]] = {}
        worker = "?"
        try:
            hello = recv_message(rfile)
            if not isinstance(hello, dict) or hello.get("op") != "hello":
                raise ProtocolError(
                    f"expected hello, got "
                    f"{hello.get('op') if isinstance(hello, dict) else hello!r}"
                )
            worker = str(hello.get("worker", "?"))
            if hello.get("proto") != PROTO_VERSION:
                error = (f"protocol version mismatch: server speaks "
                         f"{PROTO_VERSION}, worker offered "
                         f"{hello.get('proto')!r}")
                send_message(wfile, {"op": "error", "error": error})
                log.warning("worker %s refused: %s", worker, error)
                return
            with self._lock:
                self._ever_connected = True
            send_message(wfile, {
                "op": "welcome",
                "proto": PROTO_VERSION,
                "depth": self._depth,
            })
            log.info("worker %s connected", worker)
            inbox: "queue.Queue" = queue.Queue()
            reader = threading.Thread(
                target=self._read_loop, args=(rfile, inbox),
                name=f"sweep-server-read-{worker}", daemon=True)
            reader.start()
            self._dispatch(worker, wfile, inbox, in_flight)
        except (ConnectionError, OSError, ProtocolError, ValueError,
                KeyError, TypeError) as exc:
            if self._closing.is_set():
                pass  # teardown reset, not a worker failure
            elif in_flight:
                log.warning(
                    "connection to worker %s failed (%s); requeueing "
                    "%d task(s)", worker, exc, len(in_flight))
            else:
                log.warning("connection to worker %s failed: %s", worker, exc)
        finally:
            for task in in_flight.values():
                self._requeue(task)
            with self._lock:
                self._active_workers -= 1
                try:
                    self._conns.remove(conn)
                except ValueError:
                    pass
            for f in (rfile, wfile):
                try:
                    f.close()
                except OSError:
                    pass
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, worker: str, wfile, inbox: "queue.Queue",
                  in_flight: Dict[int, Tuple[int, dict]]) -> None:
        """Multiplex one worker's inbox against the shared task queue."""
        try:
            self._pump(worker, wfile, inbox, in_flight)
        except (BrokenPipeError, ConnectionResetError) as exc:
            # a send failed: the worker may have said bye and hung up
            # before reading it, so settle what it sent first
            self._settle(worker, inbox, in_flight, exc)

    def _pump(self, worker: str, wfile, inbox: "queue.Queue",
              in_flight: Dict[int, Tuple[int, dict]]) -> None:
        while not self._closing.is_set():
            # refill the pipeline up to its room; multi-task refills go
            # out as one batched frame
            batch: List[Tuple[int, dict]] = []
            room = self._room()
            while len(in_flight) < room:
                try:
                    task = self._todo.get_nowait()
                except queue.Empty:
                    break
                with self._lock:
                    self._attempts[task[0]] = (
                        self._attempts.get(task[0], 0) + 1)
                in_flight[task[0]] = task
                batch.append(task)
            if batch:
                if len(batch) > 1:
                    send_message(wfile, {
                        "op": "tasks",
                        "tasks": [{"id": i, "spec": s} for i, s in batch],
                    })
                else:
                    i, s = batch[0]
                    send_message(wfile, {"op": "task", "id": i, "spec": s})
            if not in_flight:
                with self._lock:
                    done = self._completed >= self._total
                if done:
                    send_message(wfile, {"op": "bye"})
                    log.info("worker %s released: sweep complete", worker)
                    return
            try:
                kind, msg = inbox.get(timeout=0.2)
            except queue.Empty:
                continue  # idle: a resubmission may still arrive
            if kind == "eof":
                if in_flight:
                    raise ConnectionError("worker hung up with "
                                          f"{len(in_flight)} task(s) in "
                                          "flight")
                log.info("worker %s disconnected while idle", worker)
                return
            if kind == "err":
                raise msg
            if self._handle(worker, msg, in_flight):
                return

    def _room(self) -> int:
        """How many tasks one worker may hold in flight: ``depth``, but in
        a fleet no more than its share of the tasks left with one held
        back (at least one), so the fleet never holds the whole queue and
        its tail goes to whichever worker frees up first.  One worker has
        nobody to balance against and keeps its full pipeline."""
        with self._lock:
            left = self._total - self._completed
            fleet = max(self._workers, self._active_workers)
        if fleet == 1:
            return self._depth
        return max(1, min(self._depth, (left - 1) // fleet))

    def _handle(self, worker: str, msg,
                in_flight: Dict[int, Tuple[int, dict]]) -> bool:
        """Act on one worker frame; True when it was the worker's bye."""
        op = msg.get("op") if isinstance(msg, dict) else None
        if op in ("result", "error"):
            self._finish(worker, msg, in_flight)
        elif op == "bye":
            self._depart(worker, in_flight)
            return True
        else:
            raise ProtocolError(f"unknown op {op!r} from worker")
        return False

    def _settle(self, worker: str, inbox: "queue.Queue",
                in_flight: Dict[int, Tuple[int, dict]],
                exc: OSError) -> None:
        """Drain a worker's inbox after a failed send, up to its EOF.

        Results it sent before hanging up still count.  A ``bye`` among
        them makes this a clean departure; EOF without one re-raises
        ``exc``, the crash path.
        """
        while True:
            try:
                kind, msg = inbox.get(timeout=SETTLE_TIMEOUT)
            except queue.Empty:
                raise exc
            if kind != "msg":
                raise exc
            if self._handle(worker, msg, in_flight):
                return

    def _finish(self, worker: str, msg: dict,
                in_flight: Dict[int, Tuple[int, dict]]) -> None:
        index = msg.get("id")
        if index not in in_flight:
            raise ProtocolError(
                f"{msg.get('op')} for task {index!r}, which is not in "
                "flight on this connection"
            )
        del in_flight[index]
        if msg.get("op") == "error":
            # deterministic runner failure: retrying would repeat it
            detail = str(msg.get("traceback", "")).rstrip()
            error = str(msg.get("error", "?")) + (
                f"\n{detail}" if detail else "")
            log.warning("task %d failed on worker %s: %s",
                        index, worker, msg.get("error", "?"))
            self._deliver(TaskDone(index, None, 0.0, error=error))
        else:
            self._deliver(TaskDone(
                index, msg["payload"], float(msg.get("seconds", 0.0))))

    def _depart(self, worker: str,
                in_flight: Dict[int, Tuple[int, dict]]) -> None:
        """A clean worker departure: requeue its tasks penalty-free.

        The ``bye`` lists the tasks the worker held unstarted; anything
        else still in flight was sent after it and never reached it.
        Either way no attempt ran, so none counts against the task's
        resubmission budget.
        """
        requeued = len(in_flight)
        for index, task in in_flight.items():
            with self._lock:
                self._attempts[index] = max(
                    0, self._attempts.get(index, 1) - 1)
            self._todo.put(task)
        in_flight.clear()
        with self._lock:
            self._clean_departures += 1
        log.info("worker %s departed cleanly (%d task(s) handed back)",
                 worker, requeued)

    def _requeue(self, task: Tuple[int, dict]) -> None:
        index = task[0]
        with self._lock:
            attempts = self._attempts.get(index, 0)
        if attempts > self._max_resubmits:
            self._deliver(TaskDone(
                index, None, 0.0,
                error=(f"crashed its worker on every one of {attempts} "
                       "attempt(s)"),
            ))
        else:
            self._todo.put(task)
