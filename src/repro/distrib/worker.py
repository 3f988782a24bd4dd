"""Work-queue worker client: drain sweep tasks from a SweepServer.

Run one (or many, on any host that can reach the server and import
``repro``)::

    python -m repro.distrib.worker --connect 127.0.0.1:41733
    python -m repro.distrib.worker --connect unix:/tmp/sweep.sock

A worker is a pure function from a spec to a payload: it never reads
the result cache.  The submitter has already answered every cached
spec and deduplicated the rest before a task reaches the queue, so a
worker-side lookup could only miss.

The worker names its protocol version at hello; a server that speaks
another one refuses it, and the CLI exits 1 with the server's reason.
The server may keep several tasks in flight here (pipelining); they
queue locally and run one at a time, so the next task's bytes are
already on hand when the current one finishes.  Each ``result`` or
``error`` frame ships as soon as it is ready, so the server can refill
the pipeline.  A runner exception becomes an ``error`` message — the
worker itself survives and asks for the next task.  The server owns
all scheduling and retry policy.

**Clean teardown**: the CLI installs SIGTERM/SIGINT handlers that
finish (never abort) the in-flight task, hand unstarted pipelined
tasks back to the server in a ``bye`` frame, and exit 0 — so tearing
down a fleet does not masquerade as worker death and resubmission
churn.  A second signal kills the process immediately.
"""

from __future__ import annotations

import argparse
import gc
import logging
import signal
import socket
import sys
import threading
import time
import traceback
from collections import deque
from typing import Deque, List, Optional

from ..executor import run_task
from .protocol import (
    PROTO_VERSION,
    ProtocolError,
    connect,
    recv_message,
    send_message,
)

__all__ = ["GracefulExit", "main", "serve"]

log = logging.getLogger("repro.distrib")


class GracefulExit(BaseException):
    """Raised by the signal handler to interrupt an idle ``recv`` so the
    worker can say goodbye; derives from BaseException so no runner's
    ``except Exception`` can swallow a teardown request."""


def _run_and_freeze(spec_dict: dict) -> dict:
    """:func:`~repro.executor.run_task`, then freeze the surviving heap.

    ``run_task`` collects a computed point's garbage before returning;
    what survives is this process's long-lived heap, and freezing it
    means the next point's collections walk only that point's objects.
    A worker owns its heap, so the freeze is safe here; in a caller's
    process it would pin the caller's own cyclic garbage for good.
    """
    payload = run_task(spec_dict)
    gc.freeze()
    return payload


def serve(address: str, name: str = "worker",
          connect_timeout: float = 30.0,
          *,
          stop_event: Optional[threading.Event] = None,
          _state: Optional[dict] = None) -> int:
    """Connect to ``address`` and process tasks until told to stop.

    Returns the number of tasks completed; raises
    :class:`ProtocolError` if the server refuses the worker at hello.
    ``stop_event`` requests a graceful departure: the in-flight task
    finishes, unstarted tasks go back to the server, and the loop
    returns.
    """
    stop = stop_event if stop_event is not None else threading.Event()
    state = _state if _state is not None else {"phase": "run"}
    sock = connect(address, timeout=connect_timeout)
    sock.settimeout(None)  # task runs are unbounded; the server paces us
    rfile = sock.makefile("rb")
    wfile = sock.makefile("wb")
    done = 0
    pending: Deque[dict] = deque()
    try:
        send_message(wfile, {"op": "hello", "worker": name,
                             "proto": PROTO_VERSION})
        welcome = recv_message(rfile)
        if not isinstance(welcome, dict) or welcome.get("op") != "welcome":
            reason = (welcome.get("error") if isinstance(welcome, dict)
                      else None) or f"no welcome, got {welcome!r}"
            raise ProtocolError(f"server refused this worker: {reason}")

        def ingest(msg) -> bool:
            """Absorb one server frame; False ends the connection."""
            op = msg.get("op") if isinstance(msg, dict) else None
            if op == "task":
                pending.append({"id": msg["id"], "spec": msg["spec"]})
                return True
            if op == "tasks":
                pending.extend(msg.get("tasks", ()))
                return True
            return False  # bye, or something we do not understand

        def goodbye() -> None:
            """Hand unstarted tasks back, and read until the server hangs
            up: closing with a refill still unread would reset the
            connection, and the reset can discard the bye."""
            send_message(wfile, {
                "op": "bye", "worker": name,
                "abandoned": [t["id"] for t in pending],
            })
            try:
                sock.shutdown(socket.SHUT_WR)
                sock.settimeout(10.0)  # the server hangs up on reading bye
                while sock.recv(1 << 16):
                    pass
            except OSError:
                pass  # gone or silent: the bye is out either way

        while True:
            if not pending:
                if stop.is_set():
                    goodbye()
                    return done
                state["phase"] = "recv"
                try:
                    msg = recv_message(rfile)
                except GracefulExit:
                    goodbye()
                    return done
                finally:
                    state["phase"] = "run"
                if msg is None or not ingest(msg):
                    return done
                continue
            if stop.is_set():
                goodbye()
                return done
            task = pending.popleft()
            t0 = time.perf_counter()
            try:
                payload = _run_and_freeze(task["spec"])
            except Exception as exc:  # noqa: BLE001 - shipped to submitter
                send_message(wfile, {
                    "op": "error",
                    "id": task["id"],
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                })
                continue
            send_message(wfile, {
                "op": "result",
                "id": task["id"],
                "payload": payload,
                "seconds": time.perf_counter() - t0,
            })
            done += 1
    finally:
        for f in (rfile, wfile):
            try:
                f.close()
            except OSError:
                pass
        try:
            sock.close()
        except OSError:
            pass


def _install_signals(stop: threading.Event, state: dict) -> None:
    """Graceful SIGTERM/SIGINT: finish the in-flight task, say bye.

    The handler only *interrupts* the worker when it is parked in an
    idle ``recv`` (phase "recv"); mid-task it just sets the stop flag,
    which the loop honours at the next task boundary.  The handler also
    restores the default disposition, so a second signal kills the
    process immediately.
    """

    def handler(signum, _frame):
        stop.set()
        signal.signal(signum, signal.SIG_DFL)
        if state["phase"] == "recv":
            raise GracefulExit

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, handler)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distrib.worker",
        description="Sweep worker: drain RunSpec tasks from a work-queue "
        "server.",
    )
    parser.add_argument("--connect", required=True, metavar="ADDR",
                        help="server address: HOST:PORT or unix:/path.sock")
    parser.add_argument("--name", default="worker",
                        help="worker name reported to the server")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(message)s")
    stop = threading.Event()
    state = {"phase": "run"}
    _install_signals(stop, state)
    try:
        done = serve(args.connect, name=args.name,
                     stop_event=stop, _state=state)
    except (ConnectionError, OSError, ProtocolError) as exc:
        log.error("%s: connection failed: %s", args.name, exc)
        return 1
    note = " (graceful stop)" if stop.is_set() else ""
    log.info("%s: %d task(s) done%s", args.name, done, note)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
