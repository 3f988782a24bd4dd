"""Distributed sweep execution: a work-queue server plus worker clients.

This package is the transport behind
:class:`repro.executor.WorkQueueBackend`.  The shape mirrors the
sysplex itself: a shared queue (the server, playing the CF list
structure) that any number of loosely-coupled workers drain, with the
death of a worker surfacing as a resubmitted unit of work rather than a
lost one.

* :mod:`repro.distrib.protocol` — one JSON object per line over TCP
  or unix sockets, a strict protocol version check at hello, plus
  address parsing;
* :mod:`repro.distrib.server` — :class:`~repro.distrib.server.
  SweepServer`, the submitter-side task queue: keeps up to ``depth``
  tasks in flight per connected worker, collects results, and requeues
  the outstanding tasks of any worker that disconnects mid-run;
* :mod:`repro.distrib.worker` — the worker client loop and its CLI
  (``python -m repro.distrib.worker --connect HOST:PORT``), which pulls
  tasks, simulates each one, and streams canonical payloads back;
* :mod:`repro.distrib.launcher` — who starts the fleet:
  :class:`~repro.distrib.launcher.LocalLauncher` subprocesses, or
  :class:`~repro.distrib.launcher.CommandLauncher` command lines under
  a restart supervisor (shell templates, or
  :class:`~repro.distrib.launcher.SshLauncher`'s ``host1:4,host2:8``
  fleets).

Nothing here knows about experiments or simulators beyond
:func:`repro.executor.run_task`, nor about the result cache, which the
submitter alone reads and writes; the protocol carries only JSON.
"""

# NOTE: .worker is deliberately not imported here — it is an executable
# module (`python -m repro.distrib.worker`), and importing it from the
# package __init__ would make runpy warn about double execution.
from .launcher import (
    CommandLauncher,
    LocalLauncher,
    SshLauncher,
    WorkerLauncher,
    worker_backend,
)
from .protocol import (
    PROTO_VERSION,
    ProtocolError,
    format_address,
    parse_address,
)
from .server import SweepServer, WorkerTaskError

__all__ = [
    "PROTO_VERSION",
    "CommandLauncher",
    "LocalLauncher",
    "ProtocolError",
    "SshLauncher",
    "SweepServer",
    "WorkerLauncher",
    "WorkerTaskError",
    "format_address",
    "parse_address",
    "worker_backend",
]
