"""Threaded socket server fronting a lock service.

One :class:`ThreadedLockServer` speaks :mod:`repro.net.protocol` on
every accepted connection, over TCP or a Unix-domain socket.  Requests
are **pipelined**: each decoded frame becomes an independent unit of
work and responses are written in completion order, matched by request
id -- a connection blocked on a contended lock does not stall the
uncontended traffic behind it.

Every frame takes **one path** (``_ThreadedConnection._dispatch``) on
its connection's reader thread, traced or not.  The reader
(:class:`~repro.net.protocol.FrameDecoder`) fills one reusable buffer
per connection with ``recv_into`` and hands every fixed-size request
over as its field tuple, unpacked in place; an op -> method table
(``_ThreadedConnection._OPS``) runs it.  A LOCK_ROW gets exactly one
immediate-grant attempt on the reader (``LockService.try_lock_row``:
one mutex acquire, no handoff), ops that cannot park run there too, and
only a request that may genuinely park a thread (a contended lock or a
table lock) is pushed to the thread pool, which finishes it
through the same two methods the reader uses.  Mode-byte validation,
``FLAG_NO_REPLY`` and the mapping of exceptions onto error frames each
live in one place, and a sampled request is the same request, plus its
trace tail, with a clock running.  The split is the load-bearing
decision on a box where the GIL makes threads expensive: under churn
nearly every request stays on the reader thread, which keeps the socket
hop within an order of magnitude of an in-process call.  The data plane
serves a handful of long-lived connections (not thousands), so a
blocking receive per connection beats an event loop's dispatch by more
than an uncontended lock request's entire service time.

Session lifecycle is connection-bound: sessions opened (or adopted)
over a connection are force-closed when that connection drops, so a
killed client never leaks lock-list slots on the server.  A session
costs no round trip of its own to open: ``OP_RESERVE_IDS`` hands the
connection a block of :data:`APP_ID_BLOCK` app ids, and the first frame
naming one of them carries ``FLAG_OPEN`` and opens it.  An id opens
once, only on the connection it was reserved to, and only from one of
that connection's eight newest blocks; anything else fails its request
with ``ServiceError`` and registers nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import os
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.net import protocol as wire
from repro.obs.tracing import SERVER_HOPS
from repro.service.service import _USE_DEFAULT

logger = logging.getLogger(__name__)


def _json_safe(value: Any) -> Any:
    """JSON fallback for stats payloads (sets, enums, odd scalars)."""
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    if hasattr(value, "value"):
        return value.value
    return repr(value)


class ServiceBackend:
    """A lock-service-shaped object, named, as a server fronts it: a
    :class:`~repro.service.service.LockService`, a
    :class:`~repro.service.sharded.ShardedLockService`, or anything
    duck-typing their session/lock surface."""

    def __init__(
        self, service: Any, *, name: str = "service", tracer: Any = None
    ) -> None:
        self.service = service
        self.name = name
        #: Optional :class:`repro.obs.tracing.ServerTracer` -- when set,
        #: requests carrying a sampled trace context run with the hop
        #: clock on and their OK replies carry the hop durations.
        self.tracer = tracer
        manager = getattr(service, "manager", None)
        incidents = getattr(manager, "incidents", None)
        #: app id -> trace id of the traced request it is running, kept
        #: by the service's :class:`repro.obs.incidents.IncidentRecorder`
        #: (None without one): an incident raised meanwhile (deadlock
        #: victim, escalation) is stamped with the request it hurt.
        self.trace_ids = getattr(incidents, "trace_ids", None)

    def stats_payload(self) -> Dict[str, Any]:
        svc = self.service
        sessions = svc.session_count
        waiting = svc.waiting_sessions
        payload: Dict[str, Any] = {
            "name": self.name,
            "sessions": sessions() if callable(sessions) else sessions,
            "waiting": waiting() if callable(waiting) else waiting,
        }
        agg = getattr(svc, "aggregate_stats", None)
        service_stats = agg() if agg is not None else svc.stats
        payload["service"] = dataclasses.asdict(service_stats)
        mgr = getattr(svc, "manager_stats", None)
        if mgr is not None:
            payload["manager"] = dataclasses.asdict(mgr())
        else:
            payload["manager"] = dataclasses.asdict(svc.manager.stats)
        return payload

    def cleanup_session(self, app_id: int) -> None:
        """Force-release a disconnected client's session."""
        try:
            self.service.cancel(app_id, message="connection lost")
        except Exception:
            pass
        try:
            self.service.close_session(app_id)
        except Exception:
            logger.debug(
                "%s: cleanup of session %d failed", self.name, app_id,
                exc_info=True,
            )


#: App ids one OP_RESERVE_IDS hands a connection: one round trip per
#: this many sessions opened over it.
APP_ID_BLOCK = 1024
#: A connection's newest blocks whose unopened ids may still open;
#: reserving another forgets the oldest, which bounds the state (a
#: block is its range and one byte per id).
_OPENABLE_BLOCKS = 8
#: The flag bits that send a frame off the untraced path.
_OPEN_OR_TRACE = wire.FLAG_OPEN | wire.FLAG_TRACE


def _app_id(f: tuple) -> int:
    """The session a request's fields name (0 for an op that names none)."""
    return 0 if f[0] in wire.SESSIONLESS_OPS else f[3]


def _timeout(f: tuple) -> object:
    """A waiting op's wire timeout as the service takes it (<0: none)."""
    flags = f[1]
    if not flags & wire.FLAG_HAS_TIMEOUT:
        return _USE_DEFAULT
    timeout = f[-4] if flags & wire.FLAG_TRACE else f[-1]
    return None if timeout < 0 else timeout


class _ThreadedConnection:
    """One connection of :class:`ThreadedLockServer` (own reader thread).

    The reader thread runs :meth:`_dispatch` for every frame, so an
    uncontended request costs one client->server and one
    server->client context switch, nothing else.  Replies of parked
    requests are written out of order under the send lock, which is
    what keeps pipelining intact.

    A request travels as its field tuple ``(op, flags, request id,
    body..., tails...)``, as the reader unpacked it in place or
    :func:`~repro.net.protocol.request_fields` parsed a cold frame, and
    :data:`_OPS` maps its op to the method that runs it.
    """

    def __init__(
        self, server: "ThreadedLockServer", sock: socket.socket
    ) -> None:
        self._server = server
        self._backend = server.backend
        self._service = server.backend.service
        self._tracer = server.backend.tracer
        # The *checked* immediate-grant attempt: frames carry whatever
        # session id the peer wrote, so the service must validate it.
        self._try_lock_row = getattr(self._service, "try_lock_row", None)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._sessions: Set[int] = set()
        #: Per reserved block: its ids, and which have opened (reader
        #: thread only).
        self._blocks: Deque[Tuple[range, bytearray]] = deque(
            maxlen=_OPENABLE_BLOCKS
        )
        self._closed = False
        self._thread = threading.Thread(
            target=self._read_loop,
            name=f"netconn-{server.backend.name}",
            daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    def _read_loop(self) -> None:
        receive = wire.FrameDecoder().receive
        recv_into = self._sock.recv_into
        dispatch = self._dispatch
        try:
            while True:
                frames = receive(recv_into)
                if frames is None:
                    break
                for frame in frames:
                    dispatch(frame)
        except wire.ProtocolError as exc:
            self._send(wire.encode_frame(wire.encode_error(0, exc)))
        except OSError:
            pass
        finally:
            self._shutdown()

    def _dispatch(self, f: wire.Frame) -> None:
        """The one request path: grant, run or park.

        A LOCK_ROW gets one immediate-grant attempt here -- the
        service's own ``try_lock_row``, no adapter in between; one not
        granted is parked, and the service's blocking ``lock_row`` makes
        the only other attempt it will get.  Ops that cannot park run
        here.  A session's first frame (``FLAG_OPEN``) opens it first,
        here on the reader, so a later frame never overtakes the open.
        ``clock`` is a sampled request's hop clock, stamps
        ``[arrived, parked, started]`` (``parked`` stays 0.0 unless the
        executor takes over); any other frame pays one flags test.
        """
        clock: Optional[List[float]] = None
        try:
            if f.__class__ is bytes:
                f = wire.request_fields(f)  # a cold shape, or no request
            if f[1] & _OPEN_OR_TRACE:
                if f[1] & wire.FLAG_TRACE and self._tracer is not None and f[-1]:
                    now = time.perf_counter()
                    clock = [now, 0.0, now]
                if f[1] & wire.FLAG_OPEN:
                    self._open(_app_id(f))
            op = f[0]
            if op == wire.OP_LOCK_ROW:
                mode = wire.WIRE_TO_MODE.get(f[6])
                if mode is None:
                    wire.lock_mode(f[6])  # raises the ProtocolError
                if self._try_lock_row is not None:
                    if clock is not None:
                        clock[2] = time.perf_counter()
                    if self._try_lock_row(f[3], f[4], f[5], mode):
                        self._finish(f, clock, 1)
                        return
            elif op not in wire.WAITING_OPS:
                self._run(f, clock)  # cannot park a thread: run it here
                return
        except Exception as exc:
            if f.__class__ is bytes:
                # Undecodable: all that is known is the id to answer to.
                rid = wire.peek_request_id(f) if len(f) >= wire.HEADER_BYTES else 0
                self._send(wire.encode_frame(wire.encode_error(rid, exc)))
            else:
                self._finish(f, clock, exc=exc)
            return
        if clock is not None:
            clock[1] = time.perf_counter()
        self._server.executor.submit(self._run, f, clock)

    def _run(self, f: tuple, clock: Optional[List[float]]) -> None:
        """Execute a request to completion and answer it: on the reader
        for ops that cannot park, on an executor thread for the rest."""
        trace_ids = None
        if clock is not None:
            clock[2] = time.perf_counter()
            trace_ids = self._backend.trace_ids
            if trace_ids is not None:
                trace_ids[_app_id(f)] = f[-3]
        try:
            run = self._OPS.get(f[0])
            if run is None:  # e.g. a reply sent as a request
                raise wire.ProtocolError(f"unknown request op 0x{f[0]:02x}")
            value = run(self, f)
        except Exception as exc:
            self._finish(f, clock, exc=exc)
            return
        finally:
            if trace_ids is not None:
                trace_ids.pop(_app_id(f), None)
        self._finish(f, clock, value)

    def _finish(
        self,
        f: tuple,
        clock: Optional[List[float]],
        value: "int | bytes" = 0,
        exc: Optional[Exception] = None,
    ) -> None:
        """Answer a request (``value``: the OK value, or the data an OK
        carries): the one place that closes a sampled request's server
        span, honours ``FLAG_NO_REPLY`` and maps an exception onto its
        error frame.

        ``server.dispatch`` runs from arrival to execution start (to the
        hand-over for a parked request, whose wait for a thread is
        ``server.executor_park``), ``server.lock_wait`` is the service
        call, ``server.reply_encode`` service completion to reply
        assembly; the byte pack lands in ``client.net_wait``.  The four
        ride back as the traced OK's tail.  A failed request records its
        dispatch time only, and an OK carrying data ships no hops.
        """
        report = None
        if clock is not None:
            ended = time.perf_counter()
            arrived, parked, started = clock
            if exc is not None:
                hops = {"server.dispatch": ended - arrived}
            else:
                report = (
                    (parked or started) - arrived,
                    ended - started,
                    started - parked if parked else 0.0,
                    time.perf_counter() - ended,
                )
                hops = dict(zip(SERVER_HOPS, report))
            # Recorded before the reply goes out: whoever has seen the
            # reply finds the span in the ring.
            self._tracer.record(
                f[-3],
                f[-2] + 1,
                hops,
                app_id=_app_id(f),
                outcome="ok" if exc is None else type(exc).__name__,
            )
        if f[1] & wire.FLAG_NO_REPLY:
            return
        if exc is not None:
            self._send(wire.encode_frame(wire.encode_error(f[2], exc)))
        elif value.__class__ is bytes:
            self._send(wire.encode_frame(wire.encode_ok(f[2], 0, value)))
        else:
            self._send(wire.pack_ok_frame(f[2], value, report))

    def _open(self, app_id: int) -> None:
        """Open ``app_id`` for its first frame: an id of one of this
        connection's blocks, and only once (raises ServiceError)."""
        for ids, opened in self._blocks:
            if app_id in ids:
                i = ids.index(app_id)
                if not opened[i]:
                    opened[i] = 1
                    self._service.open_reserved(app_id)
                    self._sessions.add(app_id)
                    return
                break
        raise wire.ServiceError(
            f"session {app_id} is not an unopened id reserved on this "
            "connection"
        )

    # -- the op table: a request's fields in, its OK value out --

    def _reserve_ids(self, f: tuple) -> bytes:
        ids = self._service.reserve_app_ids(APP_ID_BLOCK)
        self._blocks.append((ids, bytearray(len(ids))))
        return wire.pack_id_block(ids)

    def _close_session(self, f: tuple) -> int:
        freed = self._service.close_session(f[3])
        self._sessions.discard(f[3])
        return freed

    def _adopt_session(self, f: tuple) -> int:
        adopt = getattr(self._service, "adopt_session", None)
        if adopt is None:
            raise wire.ProtocolError(
                f"{self._backend.name} does not support session adoption"
            )
        adopt(f[3])
        self._sessions.add(f[3])
        return 0

    def _release_all(self, f: tuple) -> int:
        return self._service.rollback(f[3])

    def _cancel(self, f: tuple) -> int:
        return int(self._service.cancel(f[3]))

    def _unlock_read(self, f: tuple) -> int:
        return int(self._service.release_read_lock(f[3], f[4], f[5]))

    def _lock_row(self, f: tuple) -> int:
        self._service.lock_row(
            f[3], f[4], f[5], wire.lock_mode(f[6]), timeout_s=_timeout(f)
        )
        return 1

    def _lock_table(self, f: tuple) -> int:
        self._service.lock_table(
            f[3], f[4], wire.lock_mode(f[5]), timeout_s=_timeout(f)
        )
        return 1

    def _stats(self, f: tuple) -> bytes:
        payload = self._backend.stats_payload()
        return json.dumps(payload, default=_json_safe).encode("utf-8")

    def _ping(self, f: tuple) -> int:
        return 0

    _OPS = {
        wire.OP_CLOSE_SESSION: _close_session,
        wire.OP_ADOPT_SESSION: _adopt_session,
        wire.OP_RELEASE_ALL: _release_all,
        wire.OP_CANCEL: _cancel,
        wire.OP_UNLOCK_READ: _unlock_read,
        wire.OP_LOCK_ROW: _lock_row,
        wire.OP_LOCK_TABLE: _lock_table,
        wire.OP_STATS: _stats,
        wire.OP_PING: _ping,
        wire.OP_RESERVE_IDS: _reserve_ids,
    }

    def _send(self, frame: bytes) -> None:
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError:
            return  # reader sees the dead socket and cleans up
        self._server._responses += 1

    def _shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._server._connections.discard(self)
        with contextlib.suppress(OSError):
            self._sock.close()
        if self._sessions and not self._server._stopping:
            orphans = list(self._sessions)
            self._sessions.clear()
            for app_id in orphans:
                self._backend.cleanup_session(app_id)

    def close(self) -> None:
        """Stop serving.  On a Unix socket ``shutdown`` keeps what the
        peer already sent readable, so the reader still runs it (a
        client's last fire-and-forget release, say) before it sees the
        end of the stream and closes the socket itself."""
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        with contextlib.suppress(OSError):
            self._sock.close()


class ThreadedLockServer:
    """The socket front end: accept loop, one reader thread per
    connection, a shared executor for requests that park.

    ``start()`` binds and returns the live ``(host, port)`` (port 0
    picks an ephemeral one).  ``stop()`` is idempotent and leaves the
    backend service untouched: closing the service is its owner's job,
    the server only stops speaking for it.
    """

    def __init__(
        self,
        backend: ServiceBackend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
        executor_threads: int = 16,
        metrics: Any = None,
        metric_labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.backend = backend
        self.host = host
        self.port = port
        #: Unix-domain socket path; when set it replaces host/port and
        #: ``address`` reports ``("unix:<path>", 0)`` so clients can be
        #: built with ``RoutedLockClient([server.address])`` either way.
        self.path = path
        self.executor = ThreadPoolExecutor(
            max_workers=executor_threads,
            thread_name_prefix=f"net-{backend.name}",
        )
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: Set[_ThreadedConnection] = set()
        self._conn_lock = threading.Lock()
        self._stopping = False
        self._responses = 0
        if metrics is not None:
            metrics.counter_view(
                "net.responses", lambda: self._responses, labels=metric_labels
            )

    def start(self) -> Tuple[str, int]:
        if self._listener is not None:
            raise RuntimeError("server already started")
        if self.path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            with contextlib.suppress(OSError):
                os.unlink(self.path)  # stale socket from a dead server
            listener.bind(self.path)
            self.host, self.port = f"unix:{self.path}", 0
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
        listener.listen(64)
        self._listener = listener
        if self.path is None:
            self.host, self.port = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"lockserver-{self.backend.name}",
            daemon=True,
        )
        self._accept_thread.start()
        return self.host, self.port

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: stop()
            if self._stopping:
                with contextlib.suppress(OSError):
                    sock.close()
                return
            if self.path is None:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _ThreadedConnection(self, sock)
            with self._conn_lock:
                if self._stopping:
                    conn.close()
                    continue
                self._connections.add(conn)
            conn.start()

    def stop(self) -> None:
        if self._listener is None or self._stopping:
            return
        self._stopping = True
        # Closing a listening socket does not wake a thread parked in
        # accept() on Linux; poke it with a throwaway connection so the
        # accept loop observes the stop flag immediately.
        with contextlib.suppress(OSError):
            if self.path is not None:
                poke = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                poke.settimeout(1.0)
                poke.connect(self.path)
                poke.close()
            else:
                poke_host = (
                    "127.0.0.1" if self.host == "0.0.0.0" else self.host
                )
                socket.create_connection(
                    (poke_host, self.port), timeout=1.0
                ).close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with contextlib.suppress(OSError):
            self._listener.close()
        if self.path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.path)
        with self._conn_lock:
            conns = list(self._connections)
        for conn in conns:
            conn.close()
        self.executor.shutdown(wait=True)

    @property
    def responses_written(self) -> int:
        return self._responses

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def __enter__(self) -> "ThreadedLockServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_service(
    service: Any,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    path: Optional[str] = None,
    executor_threads: int = 16,
    name: str = "service",
    metrics: Any = None,
    metric_labels: Optional[Dict[str, str]] = None,
) -> ThreadedLockServer:
    """Build and start a lock server for ``service``.

    ``path`` selects a Unix-domain socket (same-box deployments)
    instead of TCP ``host``/``port``.
    """
    server = ThreadedLockServer(
        ServiceBackend(service, name=name),
        host=host,
        port=port,
        path=path,
        executor_threads=executor_threads,
        metrics=metrics,
        metric_labels=metric_labels,
    )
    server.start()
    return server


__all__ = [
    "ServiceBackend",
    "ThreadedLockServer",
    "serve_service",
]
