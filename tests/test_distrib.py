"""Tests for the work-queue backend and the repro.distrib transport.

The spawned worker clients (``python -m repro.distrib.worker``) resolve
scenario runners by dotted path, so every runner used here lives at
module level and the backend gets the repo root on its ``pythonpath``
(the workers need ``tests.test_distrib`` importable, exactly as a real
remote worker needs the experiment code installed).
"""

import os
import socket
import time
from pathlib import Path

import pytest

from repro.distrib import SweepServer, WorkerTaskError, format_address, parse_address
from repro.distrib.protocol import connect, no_delay
from repro.executor import (
    ResultCache,
    WorkQueueBackend,
    execute,
    execute_iter,
)
from repro.runspec import RunSpec, canonical_json
from tests.test_runspec_executor import small_spec

ROOT = Path(__file__).resolve().parent.parent

RUNNER = "tests.test_distrib:probe_runner"
CRASH_ONCE = "tests.test_distrib:crash_once_runner"
ALWAYS_CRASH = "tests.test_distrib:always_crash_runner"
BOOM = "tests.test_distrib:boom_runner"


def wq(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("pythonpath", [ROOT])
    kw.setdefault("startup_timeout", 30.0)
    return WorkQueueBackend(**kw)


def probe_runner(spec):
    return {"label": spec.label, "n": spec.params["n"] * 2}


def crash_once_runner(spec):
    sentinel = Path(spec.params["sentinel"])
    if not sentinel.exists():
        sentinel.write_text("crashed")
        os._exit(17)  # hard kill: no exception, no cleanup — a dead worker
    return {"survived": spec.params["n"]}


def always_crash_runner(spec):
    os._exit(17)


def boom_runner(spec):
    raise ValueError(f"boom from {spec.label}")


def probe_specs(n=4):
    return [RunSpec(runner=RUNNER, label=f"p{i}", params={"n": i})
            for i in range(n)]


# ------------------------------------------------------------ addresses ----
def test_address_round_trips():
    for addr in ("127.0.0.1:7777", "unix:/tmp/x.sock"):
        assert format_address(*parse_address(addr)) == addr


def test_bad_address_is_an_error():
    with pytest.raises(ValueError):
        parse_address("no-port-here")


# ------------------------------------------------ cross-backend identity ----
def test_workqueue_matches_in_process_byte_for_byte(tmp_path):
    """The determinism contract across every execution path.

    The same two simulation specs run in-process, through the work-queue
    with 2 worker processes, and replayed from a warm cache — all three
    must agree to the byte.
    """
    specs = [small_spec(), small_spec(duration=0.3)]
    cache = ResultCache(tmp_path / "rc")

    serial = execute(specs)
    queued = execute(specs, backend=wq(), cache=cache)
    assert cache.misses == 2 and cache.hits == 0
    replayed = execute(specs, cache=cache)
    assert cache.hits == 2

    for a, c, d in zip(serial, queued, replayed):
        assert (canonical_json(a.to_dict()) == canonical_json(c.to_dict())
                == canonical_json(d.to_dict()))


def test_workqueue_over_a_unix_socket(tmp_path):
    specs = probe_specs(3)
    backend = wq(address=f"unix:{tmp_path}/sweep.sock")
    assert execute(specs, backend=backend) == [s.run() for s in specs]
    assert backend.last_address.startswith("unix:")


def test_workqueue_keeps_spec_order(tmp_path):
    specs = probe_specs(6)
    out = execute(specs, backend=wq(workers=3))
    assert out == [{"label": f"p{i}", "n": i * 2} for i in range(6)]


# ---------------------------------------------------------- streaming ----
def test_streaming_yields_cache_hits_first_then_matches_barrier(tmp_path):
    specs = probe_specs(4)
    cache = ResultCache(tmp_path / "rc")
    execute([specs[1], specs[3]], cache=cache)  # warm two of four

    seen = list(execute_iter(specs, backend=wq(), cache=cache))
    # hits stream first, in spec order, before any computed point
    assert [c.index for c in seen[:2]] == [1, 3]
    assert all(c.cached for c in seen[:2])
    assert not any(c.cached for c in seen[2:])
    # reassembled, the stream equals the barrier form
    by_index = {c.index: c.result for c in seen}
    assert [by_index[i] for i in range(4)] == execute(specs)


def test_streaming_write_back_fills_the_cache(tmp_path):
    specs = probe_specs(3)
    cache = ResultCache(tmp_path / "rc")
    list(execute_iter(specs, backend=wq(), cache=cache))
    assert cache.misses == 3
    again = ResultCache(tmp_path / "rc")
    assert execute(specs, cache=again) == [s.run() for s in specs]
    assert again.hits == 3 and again.misses == 0


# ------------------------------------------------------- fault handling ----
def test_worker_crash_resubmits_and_the_sweep_completes(tmp_path):
    """A worker dying mid-task loses a worker, not the task."""
    crash = RunSpec(runner=CRASH_ONCE, label="crashy",
                    params={"n": 7, "sentinel": str(tmp_path / "sentinel")})
    healthy = probe_specs(3)
    out = execute([crash] + healthy, backend=wq(workers=2))
    assert out[0] == {"survived": 7}
    assert out[1:] == [s.run() for s in healthy]
    assert (tmp_path / "sentinel").exists()


def test_task_that_kills_every_worker_fails_loudly(tmp_path):
    """A spec that crashes every worker trips the resubmit cap (or runs
    the fleet dry) instead of hanging the sweep forever."""
    crash = RunSpec(runner=ALWAYS_CRASH, label="fatal")
    healthy = probe_specs(3)
    with pytest.raises(WorkerTaskError):
        execute([crash] + healthy,
                backend=wq(workers=3, max_resubmits=1))


def test_runner_exception_propagates_without_retry():
    """A runner *exception* is deterministic — it must not be retried
    (the spec would just fail again) and must surface at the submitter."""
    with pytest.raises(WorkerTaskError, match="boom from angry"):
        execute([RunSpec(runner=BOOM, label="angry")], backend=wq())


def test_server_raises_when_no_worker_ever_connects():
    server = SweepServer([(0, probe_specs(1)[0].to_dict())], workers=1)
    server.start("127.0.0.1:0")
    try:
        with pytest.raises(WorkerTaskError):
            list(server.results(procs=[], startup_timeout=0.2))
    finally:
        server.close()


# ------------------------------------------------------- wire traffic ----
def _nodelay(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_tcp_connections_send_frames_without_delay():
    """Both ends of a TCP worker connection turn Nagle's algorithm off,
    so a pipelined frame does not wait for the peer's delayed ACK."""
    server = SweepServer([(0, probe_specs(1)[0].to_dict())], workers=1)
    address = server.start("127.0.0.1:0")
    try:
        with connect(address, timeout=5.0) as client:
            assert _nodelay(client)
            deadline = time.monotonic() + 5.0
            while not server._conns and time.monotonic() < deadline:
                time.sleep(0.01)
            (accepted,) = server._conns
            assert _nodelay(accepted)
    finally:
        server.close()


@pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="no unix sockets")
def test_no_delay_leaves_unix_sockets_alone():
    a, b = socket.socketpair(socket.AF_UNIX)
    with a, b:
        no_delay(a)  # a unix socket has no TCP options to set


def test_worker_sends_one_frame_per_task(tmp_path, monkeypatch):
    """A worker sends its hello and one result frame per task, nothing
    else: the submitter has already answered every cached spec, so the
    worker asks the wire for nothing.  The cache directory does not
    exist when the sweep starts, as in a fresh campaign."""
    import repro.distrib.server as server

    received = []
    recv = server.recv_message

    def counting_recv(rfile, *args, **kwargs):
        msg = recv(rfile, *args, **kwargs)
        if isinstance(msg, dict):
            received.append(msg.get("op"))
        return msg

    monkeypatch.setattr(server, "recv_message", counting_recv)
    specs = probe_specs(5)
    seen = list(execute_iter(specs, backend=wq(workers=1),
                             cache=tmp_path / "rc"))
    assert sorted(c.index for c in seen) == list(range(5))
    assert not any(c.cached for c in seen)
    assert sorted(received) == ["hello"] + ["result"] * 5, received
