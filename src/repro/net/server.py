"""Threaded socket server fronting a lock service.

One :class:`ThreadedLockServer` speaks :mod:`repro.net.protocol` on
every accepted connection, over TCP or a Unix-domain socket.  Requests
are **pipelined**: each decoded frame becomes an independent unit of
work and responses are written in completion order, matched by request
id -- a connection blocked on a contended lock does not stall the
uncontended traffic behind it.

Every frame takes **one path** (``_ThreadedConnection._dispatch``) on
its connection's reader thread, traced or not.  A LOCK_ROW gets exactly
one immediate-grant attempt there (``LockService.try_lock_row``: one
mutex acquire, no handoff), ops that cannot park run there too, and
only a request that may genuinely park a thread (a contended lock, a
table lock, a batch) is pushed to the thread pool, which finishes it
through the same two methods the reader uses.  Mode-byte validation,
``FLAG_NO_REPLY`` and the mapping of exceptions onto error frames each
live in one place, and a sampled request is the same request with a
clock running.  The split is the load-bearing decision on a box where
the GIL makes threads expensive: under churn nearly every request
stays on the reader thread, which keeps the socket hop within an order
of magnitude of an in-process call.  The data plane serves a handful
of long-lived connections (not thousands), so a blocking ``recv`` per
connection beats an event loop's dispatch by more than an uncontended
lock request's entire service time.

Session lifecycle is connection-bound: sessions opened (or adopted)
over a connection are force-closed when that connection drops, so a
killed client never leaks lock-list slots on the server.
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
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Set, Tuple

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
    """Adapts a lock-service-shaped object to the wire operations.

    Works against :class:`~repro.service.service.LockService`,
    :class:`~repro.service.sharded.ShardedLockService`, or anything
    duck-typing their session/lock surface.
    """

    def __init__(
        self,
        service: Any,
        *,
        name: str = "service",
        tracer: Any = None,
    ) -> None:
        self.service = service
        self.name = name
        # The *checked* immediate-grant attempt: frames carry whatever
        # session id the peer wrote, so the service must validate it.
        self._try_lock_row = getattr(service, "try_lock_row", None)
        #: Optional :class:`repro.obs.tracing.ServerTracer` -- when set,
        #: requests carrying a sampled trace context run with the hop
        #: clock on and their OK replies carry a hop report.
        self.tracer = tracer
        manager = getattr(service, "manager", None)
        incidents = getattr(manager, "incidents", None)
        #: app id -> trace id of the traced request it is running, kept
        #: by the service's :class:`repro.obs.incidents.IncidentRecorder`
        #: (None without one): an incident raised meanwhile (deadlock
        #: victim, escalation) is stamped with the request it hurt.
        self.trace_ids = getattr(incidents, "trace_ids", None)

    # -- non-blocking (safe on a reader thread) --

    def try_lock_row(
        self, app_id: int, table_id: int, row_id: int, mode: int
    ) -> bool:
        """One immediate-grant attempt; False means "this has to wait"
        (or the service offers no non-blocking entry)."""
        if self._try_lock_row is None:
            return False
        return self._try_lock_row(
            app_id, table_id, row_id, wire.lock_mode(mode)
        )

    # -- potentially blocking (executor only for ``wire.WAITING_OPS``) --

    @staticmethod
    def _timeout_of(req: wire.Request) -> object:
        """Wire timeout -> service convention (negative = unbounded)."""
        if not req.has_timeout:
            return _USE_DEFAULT
        assert req.timeout_s is not None
        return None if req.timeout_s < 0 else req.timeout_s

    def execute(self, req: wire.Request) -> Tuple[int, bytes]:
        """Run ``req`` to completion; returns (value, data) for RESP_OK."""
        svc = self.service
        op = req.op
        if op == wire.OP_LOCK_ROW:
            svc.lock_row(
                req.app_id,
                req.table_id,
                req.row_id,
                req.lock_mode,
                timeout_s=self._timeout_of(req),
            )
            return 1, b""
        if op == wire.OP_BATCH_LOCK:
            timeout = self._timeout_of(req)
            granted = 0
            for table_id, row_id, mode in req.accesses:
                svc.lock_row(
                    req.app_id,
                    table_id,
                    row_id,
                    wire.lock_mode(mode),
                    timeout_s=timeout,
                )
                granted += 1
            return granted, b""
        if op == wire.OP_LOCK_TABLE:
            svc.lock_table(
                req.app_id,
                req.table_id,
                req.lock_mode,
                timeout_s=self._timeout_of(req),
            )
            return 1, b""
        if op == wire.OP_UNLOCK_READ:
            released = svc.release_read_lock(
                req.app_id, req.table_id, req.row_id
            )
            return int(released), b""
        if op == wire.OP_RELEASE_ALL:
            return svc.rollback(req.app_id), b""
        if op == wire.OP_OPEN_SESSION:
            return svc.open_session(), b""
        if op == wire.OP_CLOSE_SESSION:
            return svc.close_session(req.app_id), b""
        if op == wire.OP_ADOPT_SESSION:
            adopt = getattr(svc, "adopt_session", None)
            if adopt is None:
                raise wire.ProtocolError(
                    f"{self.name} does not support session adoption"
                )
            adopt(req.app_id)
            return 0, b""
        if op == wire.OP_CANCEL:
            return int(svc.cancel(req.app_id)), b""
        if op == wire.OP_STATS:
            return 0, json.dumps(
                self.stats_payload(), default=_json_safe
            ).encode("utf-8")
        if op == wire.OP_PING:
            return 0, b""
        raise wire.ProtocolError(f"unknown request op 0x{op:02x}")

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


class _ThreadedConnection:
    """One connection of :class:`ThreadedLockServer` (own reader thread).

    The reader thread runs :meth:`_dispatch` for every frame, so an
    uncontended request costs one client->server and one
    server->client context switch, nothing else.  Replies of parked
    requests are written out of order under the send lock, which is
    what keeps pipelining intact.
    """

    def __init__(
        self, server: "ThreadedLockServer", sock: socket.socket
    ) -> None:
        self._server = server
        self._backend = server.backend
        self._sock = sock
        self._send_lock = threading.Lock()
        self._sessions: Set[int] = set()
        self._closed = False
        self._thread = threading.Thread(
            target=self._read_loop,
            name=f"netconn-{server.backend.name}",
            daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    def _read_loop(self) -> None:
        decoder = wire.FrameDecoder()
        recv = self._sock.recv
        split_frames = wire.split_frames
        dispatch = self._dispatch
        try:
            while True:
                data = recv(65536)
                if not data:
                    break
                for payload in split_frames(data, decoder):
                    dispatch(payload)
        except wire.ProtocolError as exc:
            self._send_payload(wire.encode_error(0, exc))
        except OSError:
            pass
        finally:
            self._shutdown()

    def _dispatch(self, payload: bytes) -> None:
        """The one request path: parse, then grant, run or park.

        A plain LOCK_ROW granted on the spot costs one
        ``try_parse_lock_row``, one ``try_lock_row``, one
        ``pack_ok_frame`` and one ``sendall`` -- no :class:`Request`;
        every other frame is decoded into one.  A LOCK_ROW not granted
        here is parked, and the service's blocking ``lock_row`` makes
        the only other grant attempt it will get.

        ``clock`` is a sampled request's hop clock, perf-counter stamps
        ``[arrived, parked, started]`` (``parked`` stays 0.0 unless the
        executor takes over), and None otherwise: with no tracer
        configured, tracing costs the one None check below.
        """
        backend = self._backend
        tracer = backend.tracer
        arrived = time.perf_counter() if tracer is not None else 0.0
        req: Optional[wire.Request] = None
        clock: Optional[List[float]] = None
        fields = wire.try_parse_lock_row(payload)
        try:
            if fields is None:
                req = wire.decode_request(payload)
                if tracer is not None and req.trace_sampled:
                    clock = [arrived, 0.0, time.perf_counter()]
                if req.op == wire.OP_LOCK_ROW:
                    fields = (
                        req.request_id, req.app_id, req.table_id,
                        req.row_id, req.mode, req.timeout_s,
                    )
            if fields is not None:
                rid, app, table, row, mode, timeout = fields
                if backend.try_lock_row(app, table, row, mode):
                    if req is None:
                        # A plain shape: never traced, never no-reply.
                        self._send(wire.pack_ok_frame(rid, 1))
                    else:
                        self._finish(req, clock, 1)
                    return
                if req is None:
                    req = wire.Request(
                        wire.OP_LOCK_ROW, rid, app, table, row, mode,
                        timeout, timeout is not None,
                    )
        except Exception as exc:
            if req is None:
                # Undecodable, or a plain LOCK_ROW refused outright:
                # all that is known is the id to answer to.
                if fields is not None:
                    rid = fields[0]
                elif len(payload) >= wire.HEADER_BYTES:
                    rid = wire.peek_request_id(payload)
                else:
                    rid = 0
                req = wire.Request(0, rid)
            self._finish(req, clock, exc=exc)
            return
        if req.op not in wire.WAITING_OPS:
            self._run(req, clock)  # cannot park a thread: run it here
            return
        if clock is not None:
            clock[1] = time.perf_counter()
        self._server.executor.submit(self._run, req, clock)

    def _run(
        self, req: wire.Request, clock: Optional[List[float]]
    ) -> None:
        """Execute ``req`` to completion and answer it: on the reader
        for ops that cannot park, on an executor thread for the rest."""
        backend = self._backend
        trace_ids = None
        if clock is not None:
            clock[2] = time.perf_counter()
            trace_ids = backend.trace_ids
            if trace_ids is not None:
                trace_ids[req.app_id] = req.trace_id
        try:
            value, data = backend.execute(req)
            self._record(req, value)
        except Exception as exc:
            self._finish(req, clock, exc=exc)
            return
        finally:
            if trace_ids is not None:
                trace_ids.pop(req.app_id, None)
        self._finish(req, clock, value, data)

    def _finish(
        self,
        req: wire.Request,
        clock: Optional[List[float]],
        value: int = 0,
        data: bytes = b"",
        exc: Optional[Exception] = None,
    ) -> None:
        """Answer ``req``: the one place that closes a sampled
        request's server span, honours ``FLAG_NO_REPLY`` and maps an
        exception onto its error frame.

        ``server.dispatch`` runs from arrival to execution start (to
        the hand-over for a parked request, whose wait for a thread is
        ``server.executor_park``), ``server.lock_wait`` is the service
        call, ``server.reply_encode`` service completion to
        reply-assembly start; the byte pack itself (~us) lands in
        ``client.net_wait``, which is derived by subtraction.  A failed
        request records its dispatch time only and ships no report.
        """
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
                data = wire.pack_hop_report(*report)
            # Recorded before the reply goes out: whoever has seen the
            # reply finds the span in the ring.
            self._backend.tracer.record(
                req.trace_id,
                req.trace_span + 1,
                hops,
                app_id=req.app_id,
                outcome="ok" if exc is None else type(exc).__name__,
            )
        if req.no_reply:
            return
        if exc is not None:
            self._send_payload(wire.encode_error(req.request_id, exc))
        elif data:
            self._send_payload(wire.encode_ok(req.request_id, value, data))
        else:
            self._send(wire.pack_ok_frame(req.request_id, value))

    def _record(self, req: wire.Request, value: int) -> None:
        op = req.op
        if op == wire.OP_OPEN_SESSION:
            self._sessions.add(value)
        elif op == wire.OP_ADOPT_SESSION:
            self._sessions.add(req.app_id)
        elif op == wire.OP_CLOSE_SESSION:
            self._sessions.discard(req.app_id)

    def _send(self, frame: bytes) -> None:
        try:
            with self._send_lock:
                self._sock.sendall(frame)
            self._server._observe_response()
        except OSError:
            pass  # reader sees the dead socket and cleans up

    def _send_payload(self, payload: bytes) -> None:
        self._send(wire.encode_frame(payload))

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
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
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
        self._response_counter = None
        if metrics is not None:
            self._response_counter = metrics.counter(
                "net.responses", labels=metric_labels
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

    def _observe_response(self) -> None:
        self._responses += 1
        if self._response_counter is not None:
            self._response_counter.inc()

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
