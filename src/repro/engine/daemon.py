"""Unix-socket front end for the warm campaign engine.

``serve`` binds a Unix socket, warms an :class:`repro.engine.Engine`
once, and then answers campaign requests for the life of the process —
the long-running form of the engine, where the warm state outlives not
just campaigns but the submitting processes.  :class:`EngineClient` is
the matching client: submit any campaign request
(:class:`repro.engine.CampaignRequest`, ``SpecRequest``,
``ScenarioRequest`` or ``FaultRequest``), receive per-item results
streamed in completion order, and get back the same result object —
byte for byte — that the in-process serial runner would have produced.

Wire format: length-prefixed pickle frames, the same trusted-local
trade-off the distributed shard files make (`repro.serialize`): the
socket path is the trust boundary, so keep it in a directory only you
can write.  ``serve`` creates the socket owner-only (mode 0600), and
refuses a request frame whose length header exceeds
``_MAX_REQUEST_FRAME`` before reading its body.  Client frames are
``("campaign", request)`` for every request type, ``("ping",)`` and
``("shutdown",)``; the server answers a campaign with a stream of
``("result", index, row)`` frames in
completion order, terminated by ``("done", shell)`` — the campaign's
result object with its ``results`` emptied.  A campaign that *fails* —
typically the supervised engine exhausting its respawn budget — ends
the stream with a typed ``("failed", info)`` frame instead, which the
client raises as :class:`CampaignFailedError` (``info`` names the
exception type and message); ``("error", message)`` is reserved for
malformed requests.  The client fills the shell's ``results`` from the
stream by sampled index, which is exactly the merge the engine itself
performs, so daemon round-trips preserve byte-identity.

The serve loop is failure-isolated per connection: a client that
vanishes mid-stream (``BrokenPipeError``/``ConnectionResetError``
while results are being pushed), sends garbage, announces an oversized
request frame, or sends no complete request within
``_REQUEST_DEADLINE`` seconds costs only that connection — the daemon
logs it and goes back to ``accept``, warm state intact.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import stat
import struct
import sys
import time

from repro.engine.core import Engine, EngineError

_LENGTH = struct.Struct(">I")

#: First client connect retry delay; doubles per attempt up to the cap,
#: so a client racing a warming daemon probes densely at first and then
#: backs off instead of hammering the socket at a fixed 50 ms.
_CONNECT_BACKOFF_BASE = 0.01
_CONNECT_BACKOFF_CAP = 0.5

#: Seconds the serve loop waits for a whole request frame on an accepted
#: connection.  Clients send their request right after connecting, so
#: this only ever expires on a silent or stalled client, which would
#: otherwise block every other client behind the serial accept loop.
_REQUEST_DEADLINE = 3.0

#: Largest request frame (bytes) the serve loop reads.  Requests are a
#: few hundred bytes of pickled parameters; without a cap one local
#: client could make the daemon buffer up to 4 GiB, then unpickle it.
_MAX_REQUEST_FRAME = 1 << 20


class CampaignFailedError(EngineError):
    """A daemon-side campaign failed after (possibly partial) streaming.

    Raised by :class:`EngineClient` when the server ends a campaign
    stream with a ``("failed", info)`` frame.  ``info`` is the server's
    structured description: ``{"error": <exception type name>,
    "message": <str(exception)>}``.
    """

    def __init__(self, info: dict):
        super().__init__(
            "campaign failed in the daemon: "
            f"{info.get('error', 'Exception')}: {info.get('message', '')}"
        )
        self.info = info


def send_frame(sock: socket.socket, payload) -> None:
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LENGTH.pack(len(data)) + data)


def recv_frame(sock: socket.socket, deadline: float | None = None):
    """One frame, or ``None`` on a cleanly closed connection.

    With a ``deadline`` (a ``time.monotonic()`` instant) the whole frame
    must arrive by then, else :class:`TimeoutError`; the socket is left
    with that timeout set.
    """
    return _recv_frame(sock, deadline, limit=None)


def _recv_frame(sock: socket.socket, deadline: float | None, limit: int | None):
    """:func:`recv_frame`; a length header above ``limit`` raises
    :class:`EngineError` before any of the body is read."""
    header = _recv_exact(sock, _LENGTH.size, deadline)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if limit is not None and length > limit:
        raise EngineError(
            f"request frame of {length} bytes exceeds the {limit}-byte cap"
        )
    data = _recv_exact(sock, length, deadline)
    if data is None:
        raise EngineError("connection closed mid-frame")
    return pickle.loads(data)


def _recv_exact(
    sock: socket.socket, count: int, deadline: float | None = None
) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("no complete request frame in time")
            sock.settimeout(left)
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise EngineError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _claim_socket_path(socket_path: str) -> None:
    """Make ``socket_path`` safe to bind, or refuse loudly.

    The old behaviour — unconditionally ``os.unlink`` before binding —
    silently yanked the socket out from under a *live* daemon: existing
    connections kept working, but every new client bound to the usurper,
    and two engines then raced on the same scratch/warm state.  Now the
    path is probed first: a connectable socket means a daemon is
    serving, which is an error; only a genuinely stale socket (nothing
    accepting) is reclaimed; anything that isn't a socket is never
    deleted.
    """
    try:
        info = os.stat(socket_path)
    except FileNotFoundError:
        return
    if not stat.S_ISSOCK(info.st_mode):
        raise EngineError(
            f"refusing to serve on {socket_path!r}: the path exists and "
            "is not a socket — remove it yourself if it really is stale"
        )
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(socket_path)
    except (ConnectionRefusedError, FileNotFoundError):
        # Nothing accepting: a previous daemon died without cleanup.
        try:
            os.unlink(socket_path)
        except FileNotFoundError:
            pass
        return
    except OSError as error:
        raise EngineError(
            f"refusing to serve on {socket_path!r}: probing the existing "
            f"socket failed ({error}); remove it yourself if it is stale"
        ) from error
    finally:
        probe.close()
    raise EngineError(
        f"refusing to serve on {socket_path!r}: a daemon is already "
        "listening there (shut it down first, or pick another path)"
    )


def serve(
    socket_path: str,
    workers: int | None = None,
    warm=(),
    start_method: str | None = None,
    ready=None,
    supervision=None,
) -> None:
    """Run the engine daemon until a ``shutdown`` frame (or SIGTERM).

    The socket is bound and listening *before* the engine warms, so
    clients started concurrently with the daemon connect immediately
    and wait in the accept backlog while the warm state builds.
    ``ready()`` (if given) is called once the engine is warm.  A live
    daemon already serving ``socket_path`` raises :class:`EngineError`
    instead of being silently displaced; only stale sockets are
    reclaimed (:func:`_claim_socket_path`).
    """
    _claim_socket_path(socket_path)
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    # The socket file is created by bind() with the process umask; bind
    # under an owner-only umask so it is 0600 from the first instant.
    umask = os.umask(0o177)
    try:
        server.bind(socket_path)
    finally:
        os.umask(umask)
    server.listen(16)

    def _terminate(signum, frame):  # pragma: no cover - signal path
        raise SystemExit(128 + signum)

    previous = {
        signum: signal.signal(signum, _terminate)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    engine = Engine(
        workers=workers,
        warm=warm,
        start_method=start_method,
        supervision=supervision,
    )
    try:
        engine.start()
        if ready is not None:
            ready()
        running = True
        while running:
            conn, _ = server.accept()
            with conn:
                try:
                    running = _handle(conn, engine)
                except (BrokenPipeError, ConnectionResetError) as error:
                    # The client vanished mid-stream.  Its campaign
                    # aborted between leases; the engine drains any
                    # still-in-flight frames on the next submission.
                    print(
                        "engine daemon: client vanished mid-stream "
                        f"({type(error).__name__})",
                        file=sys.stderr,
                    )
                except TimeoutError:
                    print(
                        "engine daemon: dropped a client that sent no "
                        f"complete request within {_REQUEST_DEADLINE:g} s",
                        file=sys.stderr,
                    )
                except (
                    EngineError,
                    pickle.UnpicklingError,
                    OSError,
                ) as error:
                    print(
                        f"engine daemon: connection failed: {error}",
                        file=sys.stderr,
                    )
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        engine.close()
        server.close()
        try:
            os.unlink(socket_path)
        except FileNotFoundError:
            pass


def _handle(conn: socket.socket, engine: Engine) -> bool:
    """Serve one connection; ``False`` stops the accept loop."""
    while True:
        frame = _recv_frame(
            conn, time.monotonic() + _REQUEST_DEADLINE, _MAX_REQUEST_FRAME
        )
        if frame is None:
            return True
        conn.settimeout(None)  # replies stream for as long as they take
        op = frame[0]
        if op == "ping":
            send_frame(conn, ("pong",))
        elif op == "shutdown":
            send_frame(conn, ("ok",))
            return False
        elif op == "campaign":
            request = frame[1]
            try:
                campaign = engine.submit(
                    request,
                    on_result=lambda index, result: send_frame(
                        conn, ("result", index, result)
                    ),
                )
            except (BrokenPipeError, ConnectionResetError):
                raise  # the *client* died: this connection is over
            except Exception as error:
                # The campaign failed (typically: supervision exhausted
                # its respawn budget).  Degrade per-connection with a
                # typed frame the client raises precisely, instead of
                # taking the daemon down.
                send_frame(
                    conn,
                    (
                        "failed",
                        {
                            "error": type(error).__name__,
                            "message": str(error),
                        },
                    ),
                )
                return True
            campaign.results = []
            send_frame(conn, ("done", campaign))
        else:
            send_frame(conn, ("error", f"unknown request {op!r}"))
            return True


class EngineClient:
    """Submit campaigns to a `serve` daemon over its Unix socket.

    One fresh connection per call keeps the client stateless; ``wait``
    bounds how long the initial connect retries with exponential
    backoff (10 ms doubling to a 500 ms cap, never sleeping past the
    deadline), so a client started alongside the daemon blocks until
    the socket exists and the warm engine answers — and a client whose
    daemon never appears fails within ``wait`` seconds with the
    underlying ``FileNotFoundError``/``ConnectionRefusedError``.
    """

    def __init__(self, socket_path: str, wait: float = 0.0):
        self.socket_path = socket_path
        self.wait = wait

    def _connect(self) -> socket.socket:
        deadline = time.monotonic() + self.wait
        delay = _CONNECT_BACKOFF_BASE
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.socket_path)
                return sock
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                now = time.monotonic()
                if now >= deadline:
                    raise
                time.sleep(min(delay, deadline - now))
                delay = min(delay * 2, _CONNECT_BACKOFF_CAP)

    def ping(self) -> bool:
        with self._connect() as sock:
            send_frame(sock, ("ping",))
            return recv_frame(sock) == ("pong",)

    def shutdown(self) -> None:
        with self._connect() as sock:
            send_frame(sock, ("shutdown",))
            recv_frame(sock)

    def submit(self, request, on_result=None):
        """A campaign through the daemon — serial-identical.

        ``on_result(index, result)`` observes the per-item stream in
        completion order (the daemon sends results as workers finish
        them, before the campaign is complete).
        """
        with self._connect() as sock:
            send_frame(sock, ("campaign", request))
            indexed = []
            while True:
                frame = recv_frame(sock)
                if frame is None:
                    raise EngineError(
                        "daemon closed the connection mid-campaign"
                    )
                kind = frame[0]
                if kind == "result":
                    _, index, result = frame
                    if on_result is not None:
                        on_result(index, result)
                    indexed.append((index, result))
                elif kind == "done":
                    campaign = frame[1]
                    campaign.results = [result for _, result in sorted(indexed)]
                    return campaign
                elif kind == "failed":
                    raise CampaignFailedError(frame[1])
                elif kind == "error":
                    raise EngineError(f"daemon error: {frame[1]}")
                else:
                    raise EngineError(f"unexpected frame {kind!r}")
