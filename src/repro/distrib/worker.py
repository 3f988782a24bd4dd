"""Work-queue worker client: drain sweep tasks from a SweepServer.

Run one (or many, on any host that can reach the server and import
``repro``)::

    python -m repro.distrib.worker --connect 127.0.0.1:41733
    python -m repro.distrib.worker --connect unix:/tmp/sweep.sock \\
        --cache /shared/.runcache
    python -m repro.distrib.worker --connect big-host:41733 \\
        --cache-mode proto          # no shared filesystem: read the
                                    # submitter's cache over the wire

The worker names its protocol version at hello; a server that speaks
another one refuses it, and the CLI exits 1 with the server's reason.
The server may keep several tasks in flight here (pipelining); they
queue locally and run one at a time, so the next task's bytes are
already on hand when the current one finishes.  Consecutive cache-hit answers are batched into
one ``results`` frame; computed results ship immediately so the server
can refill the pipeline.  A runner exception becomes an ``error``
message — the worker itself survives and asks for the next task.  The
server owns all scheduling and retry policy.

**Clean teardown**: the CLI installs SIGTERM/SIGINT handlers that
finish (never abort) the in-flight task, hand unstarted pipelined
tasks back to the server in a ``bye`` frame, and exit 0 — so tearing
down a fleet does not masquerade as worker death and resubmission
churn.  A second signal kills the process immediately.

Cache modes (``--cache-mode``):

* ``auto`` (default) — use ``--cache`` if given; else the directory the
  server advertises *if it exists on this host*; else protocol
  read-through when the server offers it; else no cache.
* ``fs`` — read the advertised (or ``--cache``) directory directly.
* ``proto`` — ask the server (``cache_get``) before simulating; the
  mode for remote hosts without a shared filesystem.
* ``off`` — always simulate.
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
from typing import Deque, List, Optional, Tuple

from ..executor import run_task
from ..runspec import RunSpec
from .protocol import (
    PROTO_VERSION,
    ProtocolError,
    connect,
    recv_message,
    send_message,
)

__all__ = ["GracefulExit", "main", "serve"]

CACHE_MODES = ("auto", "fs", "proto", "off")

log = logging.getLogger("repro.distrib")


class GracefulExit(BaseException):
    """Raised by the signal handler to interrupt an idle ``recv`` so the
    worker can say goodbye; derives from BaseException so no runner's
    ``except Exception`` can swallow a teardown request."""


def _resolve_cache(cache_mode: str, cache_root: Optional[str],
                   welcome: dict) -> Tuple[str, Optional[str]]:
    """Decide how this worker consults the result cache: (mode, root)."""
    import os

    advertised = welcome.get("cache")
    offers_proto = bool(welcome.get("cache_proto"))
    if cache_mode == "off":
        return "off", None
    if cache_mode == "fs":
        root = cache_root or advertised
        return ("fs", root) if root else ("off", None)
    if cache_mode == "proto":
        return ("proto", None) if offers_proto else ("off", None)
    # auto: prefer an explicitly-given local directory, then a shared
    # filesystem, then the wire
    if cache_root:
        return "fs", cache_root
    if advertised and os.path.isdir(advertised):
        return "fs", advertised
    if offers_proto:
        return "proto", None
    return "off", None


def _run_and_freeze(spec_dict: dict, cache_root: Optional[str]
                    ) -> Tuple[dict, bool]:
    """:func:`~repro.executor.run_task`, then freeze the surviving heap.

    ``run_task`` collects a computed point's garbage before returning;
    what survives is this process's long-lived heap, and freezing it
    means the next point's collections walk only that point's objects.
    A worker owns its heap, so the freeze is safe here; in a caller's
    process it would pin the caller's own cyclic garbage for good.
    """
    payload, cached = run_task(spec_dict, cache_root)
    if not cached:
        gc.freeze()
    return payload, cached


def serve(address: str, name: str = "worker",
          cache_root: Optional[str] = None,
          connect_timeout: float = 30.0,
          *,
          cache_mode: str = "auto",
          stop_event: Optional[threading.Event] = None,
          _state: Optional[dict] = None) -> int:
    """Connect to ``address`` and process tasks until told to stop.

    Returns the number of tasks completed; raises
    :class:`ProtocolError` if the server refuses the worker at hello.
    ``cache_root`` overrides the cache directory the server advertises
    (pass a path that is valid on *this* host when the submitter's path
    is not); ``cache_mode`` is the policy described in the module docs.
    ``stop_event`` requests a graceful departure: the in-flight task
    finishes, unstarted tasks go back to the server, and the loop
    returns.
    """
    if cache_mode not in CACHE_MODES:
        raise ValueError(f"cache_mode must be one of {CACHE_MODES}")
    stop = stop_event if stop_event is not None else threading.Event()
    state = _state if _state is not None else {"phase": "run"}
    sock = connect(address, timeout=connect_timeout)
    sock.settimeout(None)  # task runs are unbounded; the server paces us
    rfile = sock.makefile("rb")
    wfile = sock.makefile("wb")
    done = 0
    pending: Deque[dict] = deque()
    outbuf: List[dict] = []
    try:
        send_message(wfile, {"op": "hello", "worker": name,
                             "proto": PROTO_VERSION})
        welcome = recv_message(rfile)
        if not isinstance(welcome, dict) or welcome.get("op") != "welcome":
            reason = (welcome.get("error") if isinstance(welcome, dict)
                      else None) or f"no welcome, got {welcome!r}"
            raise ProtocolError(f"server refused this worker: {reason}")
        mode, root = _resolve_cache(cache_mode, cache_root, welcome)

        def flush() -> None:
            if not outbuf:
                return
            if len(outbuf) > 1:
                send_message(wfile, {"op": "results",
                                     "results": list(outbuf)})
            else:
                send_message(wfile, outbuf[0])
            outbuf.clear()

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
            """Flush results, hand unstarted tasks back, and read until
            the server hangs up: closing with a refill still unread would
            reset the connection, and the reset can discard the bye."""
            flush()
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

        def run_one(task: dict) -> Tuple[dict, bool]:
            spec_dict = task["spec"]
            if mode == "fs":
                return _run_and_freeze(spec_dict, root)
            if mode == "proto":
                content_hash = RunSpec.from_dict(spec_dict).content_hash()
                flush()  # keep frame order: results before the query
                send_message(wfile, {"op": "cache_get", "id": task["id"],
                                     "hash": content_hash})
                while True:
                    msg = recv_message(rfile)
                    if msg is None:
                        raise ConnectionError(
                            "server hung up while answering cache_get")
                    op = msg.get("op") if isinstance(msg, dict) else None
                    if (op == "cache_value"
                            and msg.get("id") == task["id"]):
                        payload = msg.get("payload")
                        if payload is not None:
                            return payload, True
                        break  # miss: simulate
                    if not ingest(msg):
                        raise ProtocolError(
                            f"unexpected {op!r} while awaiting cache_value")
            return _run_and_freeze(spec_dict, None)

        while True:
            if not pending:
                flush()
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
                payload, cached = run_one(task)
            except Exception as exc:  # noqa: BLE001 - shipped to submitter
                outbuf.append({
                    "op": "error",
                    "id": task["id"],
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                })
                flush()
                continue
            outbuf.append({
                "op": "result",
                "id": task["id"],
                "payload": payload,
                "cached": cached,
                "seconds": time.perf_counter() - t0,
            })
            done += 1
            if not cached:
                # computed results ship immediately so the server can
                # refill the pipeline; cache hits batch up instead
                flush()
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
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="result-cache directory on this host "
                        "(default: whatever the server advertises)")
    parser.add_argument("--cache-mode", default="auto", choices=CACHE_MODES,
                        help="how to consult the result cache: filesystem, "
                        "over the protocol (no shared FS), or not at all "
                        "(default: auto)")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(message)s")
    stop = threading.Event()
    state = {"phase": "run"}
    _install_signals(stop, state)
    try:
        done = serve(args.connect, name=args.name, cache_root=args.cache,
                     cache_mode=args.cache_mode,
                     stop_event=stop, _state=state)
    except (ConnectionError, OSError, ProtocolError) as exc:
        log.error("%s: connection failed: %s", args.name, exc)
        return 1
    note = " (graceful stop)" if stop.is_set() else ""
    log.info("%s: %d task(s) done%s", args.name, done, note)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
