"""Threaded socket server fronting a lock service.

One :class:`ThreadedLockServer` speaks :mod:`repro.net.protocol` on
every accepted connection, over TCP or a Unix-domain socket.  Requests
are **pipelined**: each decoded frame becomes an independent unit of
work and responses are written in completion order, matched by request
id -- a connection blocked on a contended lock does not stall the
uncontended traffic behind it.

The split between a connection's reader thread and the shared executor
is the load-bearing decision on a box where the GIL makes threads
expensive: grants that cannot block (``LockService.try_lock_row``) are
executed *inline* on the reader thread -- one mutex acquire, no handoff
-- and only requests that may genuinely park (contended locks, table
locks, batches) are pushed to the thread pool.  Under the churn
workload the overwhelming majority of requests takes the inline path,
which is what keeps the socket hop within the same order of magnitude
as in-process calls.  The data plane serves a handful of long-lived
connections (not thousands), so a blocking ``recv`` per connection
beats an event loop's dispatch by more than an uncontended lock
request's entire service time.

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
from typing import Any, Dict, Optional, Set, Tuple

from repro.net import protocol as wire
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
    duck-typing their session/lock surface.  ``try_fast`` exposes the
    non-blocking grant attempt when the service has one.
    """

    def __init__(
        self,
        service: Any,
        *,
        name: str = "service",
        tracer: Any = None,
        incidents: Any = None,
    ) -> None:
        self.service = service
        self.name = name
        # The *checked* immediate-grant attempt: frames carry whatever
        # session id the peer wrote, so the service must validate it.
        self._try_lock_row = getattr(service, "try_lock_row", None)
        #: Optional :class:`repro.obs.tracing.ServerTracer` -- when set,
        #: requests carrying a sampled trace context take the timed
        #: dispatch path and their OK replies carry a hop report.
        self.tracer = tracer
        #: Optional :class:`repro.obs.incidents.IncidentRecorder` --
        #: traced executions register their trace id so incidents
        #: raised while they run (deadlock victim, escalation) are
        #: stamped with it.  Falls back to the service's own recorder.
        self._incidents = incidents
        if self._incidents is None:
            manager = getattr(service, "manager", None)
            self._incidents = getattr(manager, "incidents", None)

    #: Ops that only ever take the service mutex for microseconds --
    #: they run inline on the connection's reader thread.  Everything
    #: else can park a thread on a contended lock and goes to the
    #: executor.
    NONPARKING_OPS = frozenset(
        {
            wire.OP_OPEN_SESSION,
            wire.OP_CLOSE_SESSION,
            wire.OP_UNLOCK_READ,
            wire.OP_RELEASE_ALL,
            wire.OP_ADOPT_SESSION,
            wire.OP_CANCEL,
            wire.OP_STATS,
            wire.OP_PING,
        }
    )

    # -- non-blocking (safe on a reader thread) --

    def is_nonparking(self, req: wire.Request) -> bool:
        return req.op in self.NONPARKING_OPS

    def try_fast(self, req: wire.Request) -> bool:
        """Attempt an immediate grant; False means "use the slow path"."""
        if self._try_lock_row is None or req.op != wire.OP_LOCK_ROW:
            return False
        return self._try_lock_row(
            req.app_id, req.table_id, req.row_id, req.lock_mode
        )

    def fast_lock_row(
        self, app_id: int, table_id: int, row_id: int, mode: int
    ) -> bool:
        """:meth:`try_fast` without the Request object (hot path)."""
        if self._try_lock_row is None:
            return False
        return self._try_lock_row(
            app_id, table_id, row_id, wire.WIRE_TO_MODE[mode]
        )

    # -- potentially blocking (executor only) --

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
                    wire.WIRE_TO_MODE[mode],
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

    def execute_traced(self, req: wire.Request) -> Tuple[int, bytes]:
        """:meth:`execute` with the trace id registered for incidents.

        While the request runs, any incident recorded against its app
        (deadlock victimhood, an escalation it triggered) carries
        ``trace_id`` in its data, linking the incident to the exact
        traced request it hurt.
        """
        incidents = self._incidents
        if incidents is None:
            return self.execute(req)
        trace_ids = getattr(incidents, "trace_ids", None)
        if trace_ids is None:
            return self.execute(req)
        trace_ids[req.app_id] = req.trace_id
        try:
            return self.execute(req)
        finally:
            trace_ids.pop(req.app_id, None)

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

    The reader thread *is* the fast path: it decodes a frame and --
    for immediate grants and non-parking ops -- executes and replies
    without leaving the thread, so an uncontended lock costs one
    client->server and one server->client context switch, nothing
    else.  Only requests that can park are handed to the shared
    executor; their replies are written out of order under the send
    lock, which is what keeps pipelining intact.
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
        sock = self._sock
        recv = sock.recv
        split_frames = wire.split_frames
        try_parse_lock_row = wire.try_parse_lock_row
        pack_ok_frame = wire.pack_ok_frame
        fast_lock_row = self._backend.fast_lock_row
        send = self._send
        try:
            while True:
                data = recv(65536)
                if not data:
                    break
                for payload in split_frames(data, decoder):
                    # Hot path inline: plain LOCK_ROW, immediate grant.
                    parsed = try_parse_lock_row(payload)
                    if parsed is not None:
                        rid, app, table, row, mode, _timeout = parsed
                        try:
                            if fast_lock_row(app, table, row, mode):
                                send(pack_ok_frame(rid, 1))
                                continue
                        except Exception as exc:
                            self._send_payload(wire.encode_error(rid, exc))
                            continue
                    self._dispatch(payload)
        except wire.ProtocolError as exc:
            self._send_payload(wire.encode_error(0, exc))
        except OSError:
            pass
        finally:
            self._shutdown()

    def _dispatch(self, payload: bytes) -> None:
        # The disabled-overhead contract: with no tracer configured this
        # costs exactly one None check before the untraced flow.
        tracer = self._backend.tracer
        t0 = time.perf_counter() if tracer is not None else 0.0
        try:
            req = wire.decode_request(payload)
        except wire.ProtocolError as exc:
            try:
                request_id = wire.peek_request_id(payload)
            except wire.ProtocolError:
                request_id = 0
            self._send_payload(wire.encode_error(request_id, exc))
            return
        if tracer is not None and req.trace_sampled:
            self._dispatch_traced(req, t0)
            return
        try:
            if self._backend.try_fast(req):
                self._send(wire.pack_ok_frame(req.request_id, 1))
                return
            if self._backend.is_nonparking(req):
                value, data = self._backend.execute(req)
                self._record(req, value)
                if not req.no_reply:
                    self._send_payload(
                        wire.encode_ok(req.request_id, value, data)
                    )
                return
        except Exception as exc:
            if not req.no_reply:
                self._send_payload(wire.encode_error(req.request_id, exc))
            return
        self._server.executor.submit(self._run_parking, req)

    def _dispatch_traced(self, req: wire.Request, t0: float) -> None:
        """The traced twin of :meth:`_dispatch`: same scheduling
        decisions (inline immediate grant / inline non-parking /
        executor handoff), with the hop clock running.  ``t0`` is the
        frame's arrival at dispatch; everything up to execution start
        is the ``server.dispatch`` hop.
        """
        perf = time.perf_counter
        backend = self._backend
        try:
            t_exec = perf()
            if backend.try_fast(req):
                t_done = perf()
                self._finish_traced(
                    req, 1, t_exec - t0, t_done - t_exec, 0.0, t_done
                )
                return
            if backend.is_nonparking(req):
                t_svc = perf()
                value, _data = backend.execute_traced(req)
                t_done = perf()
                self._record(req, value)
                self._finish_traced(
                    req, value, t_svc - t0, t_done - t_svc, 0.0, t_done
                )
                return
        except Exception as exc:
            self._fail_traced(req, exc, t0)
            return
        self._server.executor.submit(self._run_parking, req, t0, perf())

    def _run_parking(
        self,
        req: wire.Request,
        trace_t0: Optional[float] = None,
        t_submit: Optional[float] = None,
    ) -> None:
        if trace_t0 is not None:
            assert t_submit is not None
            perf = time.perf_counter
            t_start = perf()
            try:
                value, _data = self._backend.execute_traced(req)
            except Exception as exc:
                self._fail_traced(req, exc, trace_t0)
                return
            t_svc_end = perf()
            self._finish_traced(
                req,
                value,
                t_submit - trace_t0,
                t_svc_end - t_start,
                t_start - t_submit,
                t_svc_end,
            )
            return
        try:
            value, data = self._backend.execute(req)
        except Exception as exc:
            if not req.no_reply:
                self._send_payload(wire.encode_error(req.request_id, exc))
            return
        if not req.no_reply:
            self._send_payload(wire.encode_ok(req.request_id, value, data))

    def _finish_traced(
        self,
        req: wire.Request,
        value: int,
        dispatch_s: float,
        lock_wait_s: float,
        park_s: float,
        t_svc_end: float,
    ) -> None:
        """Record the server child span and reply with the hop report.

        ``server.reply_encode`` is measured service-completion to
        reply-assembly start; the final byte pack itself (~us) lands in
        the client's ``client.net_wait`` hop, which is derived by
        subtraction and absorbs whatever the report cannot carry.
        """
        reply_s = time.perf_counter() - t_svc_end
        self._backend.tracer.record(
            req.trace_id,
            req.trace_span + 1,
            {
                "server.dispatch": dispatch_s,
                "server.lock_wait": lock_wait_s,
                "server.executor_park": park_s,
                "server.reply_encode": reply_s,
            },
            app_id=req.app_id,
            outcome="ok",
        )
        if not req.no_reply:
            report = wire.pack_hop_report(
                dispatch_s, lock_wait_s, park_s, reply_s
            )
            self._send_payload(wire.encode_ok(req.request_id, value, report))

    def _fail_traced(
        self, req: wire.Request, exc: Exception, t0: float
    ) -> None:
        self._backend.tracer.record(
            req.trace_id,
            req.trace_span + 1,
            {"server.dispatch": time.perf_counter() - t0},
            app_id=req.app_id,
            outcome=type(exc).__name__,
        )
        if not req.no_reply:
            self._send_payload(wire.encode_error(req.request_id, exc))

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
        #: built with ``NetClientStack(*server.address)`` either way.
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
