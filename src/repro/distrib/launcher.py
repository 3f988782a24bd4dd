"""Worker launchers: who starts the fleet, and where.

:class:`~repro.executor.WorkQueueBackend` only needs something that can
``launch(address)`` a set of worker processes and later ``stop()`` them.
That contract is :class:`WorkerLauncher`; three implementations cover
the useful space:

* :class:`LocalLauncher` — N ``python -m repro.distrib.worker``
  subprocesses on this host (the default spawn path), unsupervised;
* :class:`CommandLauncher` — one ``sh -c`` command line per worker
  slot, formatted from a shell template ``count`` times, each under a
  supervisor that restarts it with exponential backoff when it exits
  non-zero; the escape hatch for containers, schedulers and CI;
* :class:`SshLauncher` — a :class:`CommandLauncher` whose command lines
  are ``exec ssh -o BatchMode=yes <host> <worker command>``, one per
  slot of a ``"host1:4,host2:8"`` fleet.

Teardown SIGTERMs every process; a worker then finishes its task,
sends ``bye`` and exits 0.  :class:`SshLauncher`'s ``exec ssh`` makes
that signal reach the ssh client instead of a shell.

Every handle returned by ``launch()`` is ``subprocess.Popen``-shaped —
``poll()``/``terminate()``/``kill()``/``wait()`` — which is all the
server's liveness check needs.  A supervised handle reports "alive"
while a restart is pending, so a worker bouncing across the backoff
window is not mistaken for a dead fleet.
"""

from __future__ import annotations

import logging
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from ..executor import WorkQueueBackend

__all__ = [
    "CommandLauncher",
    "LocalLauncher",
    "SshLauncher",
    "WorkerLauncher",
    "worker_backend",
    "worker_env",
]

log = logging.getLogger("repro.distrib")

#: Restarts a supervised worker slot gets before it is given up.
_MAX_RESTARTS = 5

#: First restart delay in seconds; it doubles per restart, up to 30 s.
_BACKOFF_S = 1.0


def worker_env(pythonpath: Sequence[Union[str, Path]] = ()) -> dict:
    """A copy of the environment with :mod:`repro` importable.

    ``pythonpath`` entries are prepended; the directory that contains
    the running ``repro`` package is always included, so locally
    spawned workers import the same code as the submitter.
    """
    import repro

    env = dict(os.environ)
    entries = [str(p) for p in pythonpath]
    entries.append(str(Path(repro.__file__).resolve().parent.parent))
    if env.get("PYTHONPATH"):
        entries.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(entries))
    return env


class WorkerLauncher:
    """Start worker processes against a server address; stop them later.

    Subclasses implement :meth:`launch` (return one handle per worker)
    and may override :meth:`stop`; ``count`` is the number of workers
    the launcher will start, used by the executor for chunk sizing.
    """

    #: How many workers :meth:`launch` will start.
    count: int = 0

    def __init__(self) -> None:
        self._handles: List = []

    def launch(self, address: str) -> List:
        raise NotImplementedError

    def stop(self, timeout: float = 10.0) -> None:
        """Terminate every launched worker and reap it.

        SIGTERM first — workers finish their in-flight task, hand
        pipelined tasks back, and exit 0 — then SIGKILL anything that
        does not comply within ``timeout``.
        """
        for h in self._handles:
            try:
                if h.poll() is None:
                    h.terminate()
            except OSError:
                pass
        for h in self._handles:
            try:
                h.wait(timeout=timeout)
            except Exception:
                try:
                    h.kill()
                    h.wait(timeout=5)
                except Exception:
                    pass
        self._handles = []


class LocalLauncher(WorkerLauncher):
    """Spawn ``count`` worker subprocesses on this host."""

    def __init__(self, count: int = 2,
                 pythonpath: Sequence[Union[str, Path]] = ()):
        super().__init__()
        self.count = max(1, int(count))
        self.pythonpath = list(pythonpath)

    def launch(self, address: str) -> List:
        env = worker_env(self.pythonpath)
        for w in range(self.count):
            self._handles.append(subprocess.Popen(
                [sys.executable, "-m", "repro.distrib.worker",
                 "--connect", address, "--name", f"worker-{w}"],
                env=env,
            ))
        return list(self._handles)


class CommandLauncher(WorkerLauncher):
    """Run one supervised ``sh -c`` command line per worker slot.

    The template is formatted with ``{address}`` (the server's bound
    address), ``{name}`` (``cmd-0``, ``cmd-1``, ...) and ``{python}``
    (the submitter's interpreter), once for each of ``count`` slots::

        CommandLauncher(
            "{python} -m repro.distrib.worker --connect {address} "
            "--name {name}", count=2)

    Processes inherit :func:`worker_env`, so a template that just execs
    a worker needs no PYTHONPATH plumbing of its own.  A slot whose
    process exits non-zero is restarted with exponential backoff (see
    :class:`_Supervised`).
    """

    def __init__(self, template: str, count: int = 1,
                 pythonpath: Sequence[Union[str, Path]] = ()):
        super().__init__()
        self.template = template
        self.count = max(1, int(count))
        self.pythonpath = list(pythonpath)

    def commands(self, address: str) -> List[Tuple[str, str]]:
        """``(name, shell command line)`` for each worker slot."""
        names = [f"cmd-{w}" for w in range(self.count)]
        return [(name, self.template.format(
            address=address, name=name, python=sys.executable))
            for name in names]

    def launch(self, address: str) -> List:
        env = worker_env(self.pythonpath)
        for name, cmd in self.commands(address):

            def spawn(cmd=cmd):
                return subprocess.Popen(["sh", "-c", cmd], env=env)

            self._handles.append(_Supervised(spawn, label=name))
        return list(self._handles)


def _parse_hosts(hosts: Union[str, Sequence[str]]) -> List[Tuple[str, int]]:
    """``"a:4,b:8"`` / ``["a:4", "b"]`` -> ``[("a", 4), ("b", 1)]``."""
    if isinstance(hosts, str):
        hosts = [h for h in hosts.split(",") if h.strip()]
    out: List[Tuple[str, int]] = []
    for item in hosts:
        item = item.strip()
        host, sep, n = item.rpartition(":")
        if sep and n.isdigit():
            count = int(n)
        else:
            host, count = item, 1
        if not host or count < 1:
            raise ValueError(f"bad worker spec {item!r}: expected host[:n]")
        out.append((host, count))
    if not out:
        raise ValueError("empty worker host spec")
    return out


class _Supervised:
    """Popen-shaped handle around a respawning worker process.

    Runs ``spawn()`` in a daemon thread; when the process exits
    non-zero and stop was not requested, respawns it after an
    exponential backoff (``_BACKOFF_S``), up to ``_MAX_RESTARTS`` times.
    ``poll()`` reports ``None`` (alive) while the supervisor is still
    trying — including during the backoff sleep — so the server's
    all-workers-dead check does not fire on a transient drop.
    """

    def __init__(self, spawn, label: str = "worker"):
        self._spawn = spawn
        self._label = label
        self._max_restarts = _MAX_RESTARTS
        self._backoff = _BACKOFF_S
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None
        self._returncode: Optional[int] = None
        self._thread = threading.Thread(
            target=self._run, name=f"supervise-{label}", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        restarts = 0
        rc: Optional[int] = None
        while True:
            try:
                proc = self._spawn()
            except OSError as exc:
                log.error("%s: launch failed: %s", self._label, exc)
                rc = 127
                break
            with self._lock:
                self._proc = proc
            if self._stopping.is_set():
                proc.terminate()
            rc = proc.wait()
            if self._stopping.is_set() or rc == 0:
                break
            if restarts >= self._max_restarts:
                log.error("%s: exited %d, giving up after %d restart(s)",
                          self._label, rc, restarts)
                break
            delay = min(30.0, self._backoff * (2 ** restarts))
            restarts += 1
            log.warning("%s: exited %d, restart %d/%d in %.1fs",
                        self._label, rc, restarts, self._max_restarts, delay)
            if self._stopping.wait(delay):
                break
        self._returncode = rc if rc is not None else 0

    # -- Popen-shaped surface ----------------------------------------------

    def poll(self) -> Optional[int]:
        return self._returncode if not self._thread.is_alive() else None

    def terminate(self) -> None:
        self._stopping.set()
        with self._lock:
            proc = self._proc
        if proc is not None and proc.poll() is None:
            try:
                proc.terminate()
            except OSError:
                pass

    def kill(self) -> None:
        self._stopping.set()
        with self._lock:
            proc = self._proc
        if proc is not None and proc.poll() is None:
            try:
                proc.kill()
            except OSError:
                pass

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise subprocess.TimeoutExpired(self._label, timeout or 0)
        return self._returncode


class SshLauncher(CommandLauncher):
    """One ssh-launched worker per slot in a ``host1:4,host2:8`` fleet.

    Each slot runs ``exec ssh -o BatchMode=yes <host> <worker command>``
    under :class:`CommandLauncher`'s supervisor.  The worker command
    starts ``python -m repro.distrib.worker`` from ``remote_cwd`` (or
    the login directory) with ``remote_pythonpath``.  A remote host
    needs no view of the submitter's ``.runcache``: workers never read
    it.  Bespoke bootstraps use a :class:`CommandLauncher` template.

    Teardown SIGTERMs the local ssh client, which drops the connection;
    the server requeues anything unfinished.  ``connect_host`` rewrites
    the host part of the advertised address (a server bound to
    ``0.0.0.0`` or ``127.0.0.1`` is not reachable from another machine
    under that name).
    """

    def __init__(self, hosts: Union[str, Sequence[str]],
                 python: str = "python3",
                 remote_cwd: Optional[str] = None,
                 remote_pythonpath: Optional[str] = None,
                 connect_host: Optional[str] = None):
        self.hosts = _parse_hosts(hosts)
        super().__init__(
            "{python} -m repro.distrib.worker --connect {address} "
            "--name {name}",
            count=sum(n for _, n in self.hosts))
        self.python = python
        self.remote_cwd = remote_cwd
        self.remote_pythonpath = remote_pythonpath
        self.connect_host = connect_host

    def _rewrite(self, address: str) -> str:
        if not self.connect_host or address.startswith("unix:"):
            return address
        _host, _, port = address.rpartition(":")
        return f"{self.connect_host}:{port}"

    def commands(self, address: str) -> List[Tuple[str, str]]:
        address = shlex.quote(self._rewrite(address))
        prefix = ""
        if self.remote_cwd:
            prefix += f"cd {shlex.quote(self.remote_cwd)} && "
        if self.remote_pythonpath:
            prefix += f"PYTHONPATH={shlex.quote(self.remote_pythonpath)} "
        out = []
        for host, n in self.hosts:
            for slot in range(n):
                name = f"{host.split('@')[-1]}-{slot}"
                remote = prefix + "exec " + self.template.format(
                    address=address, name=shlex.quote(name),
                    python=self.python)
                out.append((name, f"exec ssh -o BatchMode=yes "
                                  f"{shlex.quote(host)} {shlex.quote(remote)}"))
        return out


def worker_backend(workers: Optional[str],
                   worker_cmd: Optional[str] = None,
                   depth: int = 4) -> Optional[WorkQueueBackend]:
    """Turn the CLIs' ``--workers SPEC`` into a sweep backend.

    * ``None`` (flag omitted) — in-process: returns None;
    * ``"N"`` — N local work-queue workers, ``"0"`` one per CPU;
    * ``"host:n,..."`` (or a bare ``"host"``) — an :class:`SshLauncher`
      fleet over those hosts.

    ``worker_cmd`` launches each of those worker slots through a
    :class:`CommandLauncher` shell template instead; it needs
    ``workers``.  ``depth`` is the tasks kept in flight per worker.
    Raises ValueError on a malformed spec.
    """
    from ..executor import WorkQueueBackend

    if workers is None:
        if worker_cmd is not None:
            raise ValueError("--worker-cmd needs --workers")
        return None
    spec = workers.strip()
    spawn: Union[bool, WorkerLauncher] = True
    if spec.isdigit():
        count = int(spec) or (os.cpu_count() or 1)
    else:
        spawn = SshLauncher(spec)
        count = spawn.count
    if worker_cmd is not None:
        spawn = CommandLauncher(worker_cmd, count=count)
    return WorkQueueBackend(workers=count, spawn=spawn, depth=depth)
