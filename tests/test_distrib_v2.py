"""Protocol, launcher, and fleet-robustness tests for repro.distrib.

Complements ``test_distrib.py`` (which pins the byte-determinism
contract) with malformed-input handling, the protocol version check,
pipelining depths, clean SIGTERM departure, spec deduplication, and
the launcher layer.
"""

import io
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.distrib import (
    CommandLauncher,
    ProtocolError,
    SshLauncher,
    SweepServer,
    worker_backend,
)
from repro.distrib import launcher
from repro.distrib.launcher import _Supervised, worker_env
from repro.distrib.protocol import (
    PROTO_VERSION,
    connect,
    recv_message,
    send_message,
)
from repro.executor import WorkQueueBackend, execute
from repro.runspec import RunSpec, canonical_json

ROOT = Path(__file__).resolve().parent.parent

RUNNER = "tests.test_distrib_v2:double_runner"
SLOW = "tests.test_distrib_v2:slow_runner"
COUNTING = "tests.test_distrib_v2:counting_runner"


def double_runner(spec):
    return {"label": spec.label, "n": spec.params["n"] * 2}


def slow_runner(spec):
    time.sleep(spec.params.get("delay", 0.2))
    return {"n": spec.params["n"]}


def counting_runner(spec):
    # one marker file per *execution* — dedup tests count them
    marker_dir = Path(spec.params["marker_dir"])
    marker_dir.mkdir(exist_ok=True)
    stamp = f"{spec.params['n']}-{time.monotonic_ns()}"
    (marker_dir / stamp).write_text("ran")
    return {"n": spec.params["n"]}


def probe_specs(n=4):
    return [RunSpec(runner=RUNNER, label=f"p{i}", params={"n": i})
            for i in range(n)]


def wq(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("pythonpath", [ROOT])
    kw.setdefault("startup_timeout", 30.0)
    return WorkQueueBackend(**kw)


def frame(message):
    buf = io.BytesIO()
    send_message(buf, message)
    return buf.getvalue()


# --------------------------------------------------- malformed frames ----
def test_plain_frame_round_trips():
    msg = {"op": "task", "id": 3, "spec": {"x": [1, 2, 3]}}
    assert recv_message(io.BytesIO(frame(msg))) == msg


def test_eof_is_none():
    assert recv_message(io.BytesIO(b"")) is None


def test_truncated_plain_frame():
    with pytest.raises(ProtocolError, match="truncated"):
        recv_message(io.BytesIO(b'{"op": "task"'))  # EOF, no newline


def test_oversized_line():
    blob = b'{"junk": "' + b"x" * 4096 + b'"}\n'
    with pytest.raises(ProtocolError, match="oversized"):
        recv_message(io.BytesIO(blob), max_frame=1024)


def test_non_json_garbage():
    with pytest.raises(ProtocolError, match="not JSON"):
        recv_message(io.BytesIO(b"GET / HTTP/1.1\r\n"))


def test_z_prefixed_frame_is_not_json():
    # the deleted compressed-frame header is now just malformed input
    with pytest.raises(ProtocolError, match="frame is not JSON"):
        recv_message(io.BytesIO(b"z4\n\xde\xad\xbe\xef"))


# ------------------------------------------ version check, server-side ----
def _handshake(address, hello):
    sock = connect(address, timeout=10)
    rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
    send_message(wfile, hello)
    welcome = recv_message(rfile)
    return sock, rfile, wfile, welcome


def _server(n=2, workers=1, **kw):
    specs = probe_specs(n)
    server = SweepServer([(i, s.to_dict()) for i, s in enumerate(specs)],
                         workers=workers, **kw)
    return server, server.start("127.0.0.1:0")


def test_current_hello_gets_a_welcome():
    server, addr = _server()
    try:
        sock, _r, _w, welcome = _handshake(
            addr, {"op": "hello", "worker": "t", "proto": 3})
        assert welcome["op"] == "welcome"
        assert PROTO_VERSION == 3
        assert welcome["proto"] == 3
        assert welcome["depth"] >= 1
        assert "compress" not in welcome
        # the submitter alone reads the result cache: nothing to offer
        assert "cache" not in welcome and "cache_proto" not in welcome
        sock.close()
    finally:
        server.close()


def test_version_mismatch_gets_an_error_frame():
    server, addr = _server()
    try:
        for hello in ({"op": "hello", "worker": "old", "proto": 2},
                      {"op": "hello", "worker": "old", "proto": 1},
                      {"op": "hello", "worker": "old"}):
            sock, rfile, _w, reply = _handshake(addr, hello)
            assert reply["op"] == "error"
            assert reply["error"].startswith(
                "protocol version mismatch: server speaks 3, worker "
                "offered ")
            assert recv_message(rfile) is None, "server hangs up"
            sock.close()
    finally:
        server.close()


def test_refused_worker_exits_nonzero_naming_the_reason():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    addr = "127.0.0.1:%d" % listener.getsockname()[1]

    def refuse():
        conn, _peer = listener.accept()
        with conn, conn.makefile("rb") as r, conn.makefile("wb") as w:
            recv_message(r)
            send_message(w, {"op": "error", "error":
                             "protocol version mismatch: server speaks 3, "
                             "worker offered 2"})

    stub = threading.Thread(target=refuse, daemon=True)
    stub.start()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.distrib.worker",
             "--connect", addr, "--name", "w"],
            env=worker_env([ROOT]), capture_output=True, text=True,
            timeout=60)
    finally:
        stub.join(timeout=10)
        listener.close()
    assert proc.returncode != 0
    assert "protocol version mismatch: server speaks 3" in proc.stderr


def test_garbage_connection_does_not_sink_the_server():
    """A peer speaking garbage loses its connection; tasks still finish."""
    server, addr = _server(3)
    try:
        sock = connect(addr, timeout=10)
        sock.sendall(b"\x00\xffnot a frame at all\n")
        time.sleep(0.1)

        sock2, r2, w2, welcome = _handshake(
            addr, {"op": "hello", "worker": "rude", "proto": PROTO_VERSION})
        send_message(w2, {"op": "what-even-is-this"})
        time.sleep(0.1)

        # after both bad peers, a real worker drains everything
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.distrib.worker",
             "--connect", addr, "--name", "good"],
            env=worker_env([ROOT]))
        got = sorted(d.index for d in server.results(
            procs=[proc], startup_timeout=30))
        assert got == [0, 1, 2]
        sock.close()
        sock2.close()
    finally:
        server.close()


# ---------------------------------------------------- end-to-end paths ----
def _payload_bytes(results):
    return [canonical_json(r) for r in results]


def test_pipeline_depths_are_byte_identical(tmp_path):
    specs = probe_specs(6)
    baseline = execute(specs, cache=tmp_path / "base")

    variants = {"depth1": wq(depth=1), "depth8": wq(depth=8)}
    for name, backend in variants.items():
        got = execute(specs, backend=backend,
                      cache=tmp_path / f"c-{name}")
        assert _payload_bytes(got) == _payload_bytes(baseline), name


def test_sigterm_mid_run_is_a_clean_departure(tmp_path):
    """SIGTERM'd worker finishes its task, hands back the rest, exits 0.

    ``max_resubmits=0`` is the teeth: if the departure were treated as
    a crash, the requeue would blow the resubmission cap and the sweep
    would report failures instead of completing.
    """
    specs = [RunSpec(runner=SLOW, label=f"s{i}",
                     params={"n": i, "delay": 0.25})
             for i in range(8)]
    server = SweepServer([(i, s.to_dict()) for i, s in enumerate(specs)],
                         workers=2, max_resubmits=0, depth=4)
    addr = server.start("127.0.0.1:0")
    env = worker_env([ROOT])
    procs = [subprocess.Popen(
        [sys.executable, "-m", "repro.distrib.worker",
         "--connect", addr, "--name", f"w{i}"], env=env)
        for i in range(2)]
    got = []
    try:
        for done in server.results(procs=procs, startup_timeout=30):
            got.append(done)
            if len(got) == 1:
                procs[0].send_signal(signal.SIGTERM)
    finally:
        server.close()
        for p in procs:
            if p.poll() is None:
                p.terminate()
    assert sorted(d.index for d in got) == list(range(8))
    assert all(d.error is None for d in got)
    assert procs[0].wait(timeout=10) == 0, "clean departure exits 0"


class _HungUp:
    """A worker stream whose reader is gone: every write is EPIPE."""

    def write(self, data):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def _dispatched(server, n):
    """Take ``n`` tasks off ``server``'s queue as a dispatch would."""
    in_flight = {}
    for _ in range(n):
        task = server._todo.get_nowait()
        server._attempts[task[0]] = 1
        in_flight[task[0]] = task
    return in_flight


def _inbox(*frames):
    inbox = queue.Queue()
    for item in frames:
        inbox.put(item)
    return inbox


def test_bye_behind_a_failed_send_settles_cleanly():
    """The refill that follows a result fails (the worker has hung up),
    but the worker's bye is already buffered: its result counts, and
    both the task it handed back and the one the failed send carried are
    requeued with no resubmission charged."""
    server, _addr = _server(5, depth=2)
    try:
        in_flight = _dispatched(server, 2)
        inbox = _inbox(
            ("msg", {"op": "result", "id": 0, "payload": {"n": 0}}),
            ("msg", {"op": "bye", "worker": "w", "abandoned": [1]}),
            ("eof", None))
        server._dispatch("w", _HungUp(), inbox, in_flight)
        assert server._clean_departures == 1
        assert in_flight == {}
        assert server._attempts == {0: 1, 1: 0, 2: 0}
        assert server._todo.qsize() == 4
        assert server._out.get_nowait().index == 0
    finally:
        server.close()


def test_failed_send_without_bye_is_a_crash():
    server, _addr = _server(5, depth=2)
    try:
        in_flight = _dispatched(server, 2)
        inbox = _inbox(
            ("msg", {"op": "result", "id": 0, "payload": {"n": 0}}),
            ("eof", None))
        with pytest.raises(BrokenPipeError):
            server._dispatch("w", _HungUp(), inbox, in_flight)
        assert server._clean_departures == 0
        assert sorted(in_flight) == [1, 2], "left for the crash requeue"
        assert server._out.get_nowait().index == 0
    finally:
        server.close()


def test_fake_worker_bye_then_hang_up_is_a_clean_departure(tmp_path):
    """A worker sends a result and its bye, then closes the socket.

    Whether the dispatcher reads the bye before or after its refill send
    hits the closed socket, the departure is clean and no task's
    resubmission budget is charged."""
    server, addr = _server(6, depth=2)
    try:
        sock, rfile, wfile, welcome = _handshake(
            addr, {"op": "hello", "worker": "fake", "proto": PROTO_VERSION})
        assert welcome["op"] == "welcome"
        first, *rest = [t["id"] for t in recv_message(rfile)["tasks"]]
        sock.sendall(
            frame({"op": "result", "id": first, "payload": {"n": first}})
            + frame({"op": "bye", "worker": "fake", "abandoned": rest}))
        sock.shutdown(socket.SHUT_RDWR)
        for f in (rfile, wfile, sock):
            f.close()
        deadline = time.monotonic() + 10
        while (server._clean_departures == 0
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert server._clean_departures == 1
        with server._lock:
            charged = {i: n for i, n in server._attempts.items()
                       if n and i != first}
        assert charged == {}
        assert server._todo.qsize() == 5
    finally:
        server.close()


def _task_ids(frame):
    if frame["op"] == "task":
        return [frame["id"]]
    assert frame["op"] == "tasks", frame
    return [t["id"] for t in frame["tasks"]]


def test_short_sweep_is_not_split_statically():
    """Two fake workers at depth 4 over 7 size-ordered tasks (the largest
    last, as tab1's grid): filling each pipeline as its worker connects
    would hand them out 4/3 and put the three largest on one worker.  No
    worker is refilled past its share of what is left, so the last task
    goes to the worker that frees up first, the one with the small ones."""
    server, addr = _server(7, depth=4, workers=2)
    held, conns = {}, []

    def finish(sock, ids):
        sock.sendall(b"".join(
            frame({"op": "result", "id": i, "payload": {"n": i}})
            for i in ids))

    try:
        for name in ("small", "large"):
            sock, rfile, _wfile, welcome = _handshake(
                addr, {"op": "hello", "worker": name, "proto": PROTO_VERSION})
            assert welcome["op"] == "welcome"
            sock.settimeout(10)
            conns.append((sock, rfile))
            held[name] = _task_ids(recv_message(rfile))
        assert held == {"small": [0, 1, 2], "large": [3, 4, 5]}
        # the small tasks finish first: their worker takes the last one
        (small, small_r), (large, large_r) = conns
        finish(small, held["small"])
        held["small"] += _task_ids(recv_message(small_r))
        assert held["small"] == [0, 1, 2, 6]
        assert not any({4, 5, 6} <= set(ids) for ids in held.values())
        finish(small, [6])
        finish(large, held["large"])
        assert sorted(d.index for d in server.results()) == list(range(7))
        assert recv_message(small_r)["op"] == "bye"
        assert recv_message(large_r)["op"] == "bye"
    finally:
        for sock, rfile in conns:
            rfile.close()
            sock.close()
        server.close()


def test_one_worker_keeps_its_full_pipeline():
    server, addr = _server(7, depth=4, workers=1)
    try:
        sock, rfile, _w, _welcome = _handshake(
            addr, {"op": "hello", "worker": "only", "proto": PROTO_VERSION})
        assert _task_ids(recv_message(rfile)) == [0, 1, 2, 3]
        rfile.close()
        sock.close()
    finally:
        server.close()


# -------------------------------------------------------------- dedup ----
def test_duplicate_specs_computed_once(tmp_path):
    spec = RunSpec(runner=COUNTING, label="dup",
                   params={"n": 7, "marker_dir": str(tmp_path / "m")})
    other = RunSpec(runner=COUNTING, label="other",
                    params={"n": 9, "marker_dir": str(tmp_path / "m")})
    results = execute([spec, other, spec, spec],
                      cache=tmp_path / "cache")
    assert [r["n"] for r in results] == [7, 9, 7, 7]
    markers = list((tmp_path / "m").iterdir())
    assert len(markers) == 2, "each unique spec simulates exactly once"


def test_duplicate_specs_dedup_on_workqueue_too(tmp_path):
    spec = RunSpec(runner=COUNTING, label="dup",
                   params={"n": 3, "marker_dir": str(tmp_path / "m")})
    results = execute([spec] * 6, backend=wq(),
                      cache=tmp_path / "cache")
    assert [r["n"] for r in results] == [3] * 6
    assert len(list((tmp_path / "m").iterdir())) == 1


# ----------------------------------------------------------- launchers ----
def test_worker_backend_count_and_hosts():
    assert worker_backend(None) is None
    local = worker_backend("4", depth=8)
    assert local.spawn is True and local.parallelism() == 4
    assert local.depth == 8
    assert worker_backend("0").parallelism() == (os.cpu_count() or 1)
    fleet = worker_backend("host1:4,host2:8").spawn
    assert isinstance(fleet, SshLauncher)
    assert fleet.count == 12
    assert fleet.hosts == [("host1", 4), ("host2", 8)]
    solo = worker_backend("gpu-box").spawn
    assert isinstance(solo, SshLauncher)
    assert solo.count == 1
    cmd = worker_backend("host1:4,host2:8", worker_cmd="run {name}")
    assert isinstance(cmd.spawn, CommandLauncher)
    assert cmd.parallelism() == 12


def test_worker_backend_rejects_garbage():
    with pytest.raises(ValueError):
        worker_backend(":4")
    with pytest.raises(ValueError):
        worker_backend("")
    with pytest.raises(ValueError, match="--worker-cmd needs --workers"):
        worker_backend(None, worker_cmd="run {name}")


class _Captured(Exception):
    pass


def _experiments_backend(argv, monkeypatch):
    """The backend ``python -m repro.experiments`` builds from ``argv``."""
    import types

    from repro.experiments import __main__ as cli

    def capture(quick, seed, execution):
        raise _Captured(execution.backend)

    fake = types.SimpleNamespace(__name__="fake.probe", main=capture)
    monkeypatch.setattr(cli, "ALL", (fake,))
    with pytest.raises(_Captured) as got:
        cli.main(argv + ["--no-cache"])
    return got.value.args[0]


def _campaign_backend(argv, monkeypatch, tmp_path):
    """The backend ``python -m repro.campaign`` builds from ``argv``."""
    import repro.campaign as cli

    def capture(specs, root, *, backend, **_kw):
        raise _Captured(backend)

    monkeypatch.setattr(cli, "run_campaign", capture)
    with pytest.raises(_Captured) as got:
        cli.main(argv + ["--grid", "micro", "--points", "1",
                         "--dir", str(tmp_path / "camp")])
    return got.value.args[0]


@pytest.mark.parametrize("argv,want", [
    ([], None),
    (["--workers", "0"], os.cpu_count() or 1),
    (["--workers", "3"], 3),
    (["--workers", "a:2,b:5"], 7),
], ids=["omitted", "zero", "count", "fleet"])
def test_both_clis_build_the_same_workers(argv, want, monkeypatch,
                                          tmp_path):
    for backend in (_experiments_backend(argv, monkeypatch),
                    _campaign_backend(argv, monkeypatch, tmp_path)):
        got = None if backend is None else backend.parallelism()
        assert got == want


def test_worker_cmd_without_workers_is_a_usage_error():
    import repro.campaign
    from repro.experiments import __main__ as experiments

    for main in (experiments.main, repro.campaign.main):
        with pytest.raises(SystemExit) as exc:
            main(["--worker-cmd", "run {name}"])
        assert exc.value.code == 2


def test_ssh_launcher_remote_command_shape():
    fleet = SshLauncher("db-host:2", python="python3.11",
                        remote_cwd="/srv/repro",
                        remote_pythonpath="src",
                        connect_host="submitter.local")
    slots = fleet.commands("0.0.0.0:4567")
    assert [name for name, _ in slots] == ["db-host-0", "db-host-1"]
    assert slots[0][1] == (
        "exec ssh -o BatchMode=yes db-host "
        "'cd /srv/repro && PYTHONPATH=src exec python3.11 -m "
        "repro.distrib.worker --connect submitter.local:4567 "
        "--name db-host-0'")
    assert fleet._rewrite("unix:/tmp/x.sock") == "unix:/tmp/x.sock"


def test_ssh_launcher_sweeps_through_a_fake_ssh(tmp_path, monkeypatch):
    """A full sweep over ``ssh``; the first launch fails and is restarted."""
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launches = tmp_path / "launches"
    fake = bindir / "ssh"
    # ssh -o BatchMode=yes HOST COMMAND: log the call, fail the first
    # one, then run COMMAND locally as the remote shell would
    fake.write_text(
        "#!/bin/sh\n"
        f"echo \"$*\" >> '{launches}'\n"
        f"mkdir '{tmp_path / 'failed-once'}' 2>/dev/null && exit 255\n"
        'exec sh -c "$4"\n')
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bindir}:{os.environ['PATH']}")
    monkeypatch.setattr(launcher, "_BACKOFF_S", 0.01)

    fleet = SshLauncher("fakehost:1", python=sys.executable,
                        remote_cwd=str(ROOT),
                        remote_pythonpath=f"{ROOT}:{ROOT / 'src'}")
    specs = probe_specs(5)
    got = execute(specs, backend=wq(spawn=fleet), cache=tmp_path / "c")
    want = execute(specs, cache=tmp_path / "base")
    assert _payload_bytes(got) == _payload_bytes(want)
    calls = launches.read_text().splitlines()
    assert len(calls) == 2, calls  # the failed launch and its restart
    assert all(c.startswith("-o BatchMode=yes fakehost ") for c in calls)


def test_command_launcher_runs_the_sweep(tmp_path):
    backend = wq(spawn=CommandLauncher(
        "{python} -m repro.distrib.worker --connect {address} "
        "--name {name}", count=2, pythonpath=[ROOT]))
    specs = probe_specs(5)
    got = execute(specs, backend=backend, cache=tmp_path / "c")
    want = execute(specs, cache=tmp_path / "base")
    assert _payload_bytes(got) == _payload_bytes(want)


def test_supervised_handle_restarts_with_backoff(monkeypatch):
    monkeypatch.setattr(launcher, "_MAX_RESTARTS", 2)
    monkeypatch.setattr(launcher, "_BACKOFF_S", 0.01)
    calls = []

    def spawn():
        calls.append(time.monotonic())
        return subprocess.Popen(["sh", "-c", "exit 3"])

    handle = _Supervised(spawn, label="t")
    rc = handle.wait(timeout=30)
    assert rc == 3
    assert len(calls) == 3  # initial + two restarts
    assert handle.poll() == 3


def test_supervised_handle_stops_on_terminate():
    def spawn():
        return subprocess.Popen(["sh", "-c", "sleep 30"])

    handle = _Supervised(spawn, label="t")
    time.sleep(0.2)
    assert handle.poll() is None
    handle.terminate()
    handle.wait(timeout=10)
    assert handle.poll() is not None
