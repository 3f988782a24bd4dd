"""Wire protocol: one JSON frame form and a strict version check.

Every message is one JSON object in compact form on one UTF-8 line,
at most ``MAX_FRAME`` bytes.  The conversation between server and
worker::

    worker -> {"op": "hello", "worker": "worker-0", "proto": 3}
    server -> {"op": "welcome", "proto": 3, "depth": 4}
    server -> {"op": "task", "id": 7, "spec": {...}}
            | {"op": "tasks", "tasks": [{"id": 7, "spec": {...}}, ...]}
    worker -> {"op": "result", "id": 7, "payload": {...},
               "seconds": 1.93}
            | {"op": "error", "id": 7, "error": "ValueError: ...",
               "traceback": "..."}
    ...                         # repeat until the queue is dry
    worker -> {"op": "bye", "worker": "worker-0", "abandoned": [8, 9]}
              (clean departure: unstarted pipelined tasks go back)
    server -> {"op": "bye"}

**Versioning.** Server and workers ship from the same tree, so there
is nothing to negotiate.  The worker's ``hello`` names the protocol
version it speaks; a server that speaks another one (or finds none)
answers ``{"op": "error", "error": "protocol version mismatch: ..."}``
and closes the connection, and the worker exits non-zero with that
reason.

Frames carry payload bytes unchanged: what comes out of
:func:`recv_message` is exactly what went into :func:`send_message`,
so the byte-determinism contract does not depend on the transport.

**Robustness.** A frame that cannot be parsed — truncated mid-line,
an unterminated line longer than ``max_frame``, non-JSON garbage —
raises :class:`ProtocolError` with a message naming what was wrong.
Receivers treat that as fatal *for the one connection* (the peer is
speaking garbage; resynchronising a framed stream is hopeless) and
never as fatal for the server.

Addresses are strings: ``"host:port"`` for TCP (port 0 = ephemeral) or
``"unix:/path.sock"`` for unix-domain sockets.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Optional, Tuple, Union

__all__ = [
    "PROTO_VERSION",
    "MAX_FRAME",
    "ProtocolError",
    "connect",
    "format_address",
    "no_delay",
    "parse_address",
    "recv_message",
    "send_message",
]

#: The protocol version this build speaks; a peer must speak the same.
PROTO_VERSION = 3

#: Upper bound on one frame (a 64 MiB line is not a message, it is a
#: bug or an attack on the submitter's memory).
MAX_FRAME = 64 * 1024 * 1024

#: (family, sockaddr) — what parse_address returns.
Address = Tuple[int, Union[str, Tuple[str, int]]]


class ProtocolError(ValueError):
    """The peer sent bytes that are not a well-formed protocol frame.

    Fatal for the connection it arrived on (the framing cannot be
    resynchronised), never for the server as a whole.
    """


def parse_address(address: str) -> Address:
    """``"host:port"`` or ``"unix:/path"`` -> ``(family, sockaddr)``."""
    if address.startswith("unix:"):
        if not hasattr(socket, "AF_UNIX"):
            raise ValueError("unix sockets are not supported on this platform")
        return socket.AF_UNIX, address[len("unix:"):]
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError(
            f"bad address {address!r}: expected 'host:port' or 'unix:/path'"
        )
    return socket.AF_INET, (host or "127.0.0.1", int(port))


def format_address(family: int, sockaddr: Union[str, Tuple[str, int]]) -> str:
    """The string form of a bound socket address (inverse of parse)."""
    if hasattr(socket, "AF_UNIX") and family == socket.AF_UNIX:
        return f"unix:{sockaddr}"
    host, port = sockaddr[0], sockaddr[1]
    return f"{host}:{port}"


def no_delay(sock: socket.socket) -> None:
    """Send each frame as soon as it is flushed on a TCP socket.

    A frame is one small write; with Nagle's algorithm on, the second of
    two back-to-back frames waits for the peer's delayed ACK, which made
    a pipelined worker slower than a strict-pull one.  Unix-domain
    sockets have no such delay and are left alone.
    """
    if sock.family == socket.AF_INET:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def connect(address: str, timeout: Optional[float] = None) -> socket.socket:
    """Open a client connection to a server address string."""
    family, sockaddr = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    no_delay(sock)
    if timeout is not None:
        sock.settimeout(timeout)
    sock.connect(sockaddr)
    return sock


def send_message(wfile, message: dict) -> None:
    """Write one message as compact JSON plus a newline, and flush."""
    wfile.write(json.dumps(message, separators=(",", ":")).encode("utf-8"))
    wfile.write(b"\n")
    wfile.flush()


def recv_message(rfile, max_frame: int = MAX_FRAME) -> Optional[Any]:
    """Read one message; ``None`` on a clean EOF (peer went away).

    Raises :class:`ProtocolError` on anything that is not a well-formed
    frame: an unterminated line longer than ``max_frame``, a line
    truncated by EOF, or bytes that are not JSON.
    """
    line = rfile.readline(max_frame + 1)
    if not line:
        return None
    if len(line) > max_frame:
        raise ProtocolError(
            f"oversized frame: line exceeds {max_frame} bytes "
            "without a newline"
        )
    if not line.endswith(b"\n"):
        raise ProtocolError("truncated frame: EOF in the middle of a line")
    try:
        return json.loads(line)
    except ValueError:
        raise ProtocolError(f"frame is not JSON: {line[:60]!r}...") from None
