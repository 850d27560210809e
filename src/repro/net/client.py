"""Client library for the lock-service wire protocol.

Three layers, innermost first:

* :class:`ClientConnection` -- one socket with a pending-request
  table: any number of caller threads may have requests in flight on
  the same connection (pipelining).  A request is an op and its fields,
  packed by :func:`~repro.net.protocol.pack_request` -- no per-request
  closure.  There is no dedicated reader thread -- whichever requester
  finds the read side free becomes the reader and settles everyone's
  responses until its own arrives, out of the connection's one reusable
  receive buffer.
* :class:`RoutedLockClient` -- **the** client: connection pools to one
  or more server endpoints presenting the *service* surface the
  in-process stacks present (``open_session`` / ``session()`` /
  ``lock_row`` / ``rollback`` / ...), plus two wire-only extras,
  ``stats`` and ``ping``.  A single server is
  simply ``RoutedLockClient([address])`` -- one route; a worker pool is
  one route per worker, tables placed ``table_id % workers``.  Every
  ``lock_row`` is the same request -- one packed frame out, one reply
  in -- whether or not it is sampled for tracing, and opening a
  session sends nothing: its first frame opens it (``FLAG_OPEN``).
* :class:`RoutedClientStack` -- the shim that makes the remote side
  look like a :class:`~repro.service.stack.ServiceStack` to
  :class:`~repro.service.driver.LoadDriver`: ``.service`` is the
  client, ``.admission`` is a *local* admission controller (back-
  pressure belongs at the edge; the server never queues admissions).

Failure model: a dead socket fails every request in flight on it with
:class:`~repro.net.protocol.ConnectionLostError` and is replaced by a
fresh connect on next use, so a client survives a server restart --
sessions it held are gone (the server force-closed them on
disconnect), but new ``session()`` scopes work immediately.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import select
import socket
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.net import protocol as wire
from repro.net.protocol import ConnectionLostError
from repro.obs.tracing import SERVER_HOPS
from repro.service.admission import AdmissionController

#: ``poll`` events of a socket whose peer has closed (HUP and ERR are
#: reported whether registered or not).
_HUNG_UP = select.POLLHUP | getattr(select, "POLLRDHUP", 0)


def _value(response: "int | wire.Response") -> int:
    """The integer result of an untraced request (hot path returns it
    bare)."""
    return response if response.__class__ is int else response.value


class _Pending:
    """One in-flight request's parking spot (pooled, reusable).

    ``response`` is an ``int`` for the hot path (the value of a
    data-free OK, no :class:`~repro.net.protocol.Response` built), the
    hop durations of a traced OK, or a full ``Response`` otherwise.
    """

    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        #: A wakeup hint, cleared after each wait: a stale set only costs
        #: the next park one more round of the await loop.
        self.event = threading.Event()
        self.response: "Optional[int | tuple | wire.Response]" = None
        self.error: Optional[BaseException] = None


class ClientConnection:
    """One pipelined protocol connection (thread-safe).

    There is no dedicated reader thread: whichever requester thread
    needs a response and finds the read side free *becomes* the reader
    (driver-style reader-role handoff), consuming frames and settling
    other threads' pending entries until its own answer shows up, then
    passing the role on.  For the common single-requester case this
    makes a round trip exactly one send and one recv on the calling
    thread -- no cross-thread wakeups -- which on a single core is
    worth roughly 2.5x in closed-loop throughput over a reader-thread
    design (two context switches saved per request).
    """

    def __init__(
        self, host: str, port: int, *, connect_timeout_s: float = 5.0
    ) -> None:
        self.host = host
        self.port = port
        if host.startswith("unix:"):
            # Unix-domain transport: ``host="unix:/path"``, port unused.
            # The default for same-box deployments (worker pools): the
            # same wire protocol over a cheaper kernel path.
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(connect_timeout_s)
            self._sock.connect(host[len("unix:"):])
        else:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout_s
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(None)
        self._send_lock = threading.Lock()
        #: Guards the _dead flip and the victim sweep in _fail; the
        #: pending table itself is touched only with GIL-atomic dict
        #: operations (single set / pop / values snapshot), so the hot
        #: request path takes no lock besides the send lock.
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, _Pending] = {}
        #: One reusable _Pending per requester thread: a thread can
        #: only have one request outstanding (request() blocks), so no
        #: shared pool -- and no pool lock -- is needed.
        self._tls = threading.local()
        #: The next request id (C-level, so atomic under the GIL).
        self.next_id = itertools.count(1).__next__
        self._dead: Optional[BaseException] = None
        #: The receive side; used only by the thread holding the reader lock.
        self._reader = wire.FrameDecoder()
        self._reader_lock = threading.Lock()
        #: The rest of the app-id block the server reserved to this
        #: connection (``next`` on it is atomic under the GIL).
        self._ids: Iterator[int] = iter(())
        self._reserve_lock = threading.Lock()
        self._hangup = select.poll()
        self._hangup.register(self._sock, _HUNG_UP)

    @property
    def alive(self) -> bool:
        """Not failed, and not hung up by the server.

        The hang-up test is one ``poll(0)``, no I/O: a session opened
        here sends no frame of its own, so without it a connection the
        server already closed would be handed to a new session and fail
        its first request.  With requests in flight the reader finds out
        instead, after it has read the replies still buffered.
        """
        if self._dead is not None:
            return False
        if self._pending:
            return True
        try:
            if not self._hangup.poll(0):
                return True
        except RuntimeError:  # another thread is polling: it will know
            return True
        self._fail(ConnectionLostError("server closed the connection"))
        return False

    def next_app_id(self) -> int:
        """An app id reserved to this connection and not yet open: the
        first frame naming it here opens it (``FLAG_OPEN``).  A spent
        block costs one ``OP_RESERVE_IDS`` round trip for the next."""
        app_id = next(self._ids, None)
        if app_id is not None:
            return app_id
        with self._reserve_lock:
            app_id = next(self._ids, None)  # reserved meanwhile?
            if app_id is None:
                reply = self.request(wire.OP_RESERVE_IDS)
                self._ids = iter(wire.parse_id_block(reply.data))  # type: ignore[union-attr]
                app_id = next(self._ids)
        return app_id

    # -- request/response --

    def request(
        self, op: int, *body: Any, timeout_s: Optional[float] = None
    ) -> "int | wire.Response":
        """One round trip: ``op`` with its fields, packed by the
        protocol's one request packer (which raises ProtocolError for a
        field that does not fit), then :meth:`exchange`."""
        request_id = self.next_id()
        return self.exchange(
            request_id, wire.pack_request(op, request_id, body, timeout_s)
        )

    def exchange(
        self, request_id: int, frame: bytes
    ) -> "int | tuple | wire.Response":
        """Send the packed ``frame`` of ``request_id``; block for its reply.

        Returns the OK value as a bare ``int`` on the hot path, the
        server's hop durations for a traced OK, a full ``Response`` when
        the reply carried data.  Raises the mapped
        service exception on RESP_ERR and :class:`ConnectionLostError`
        if the socket dies first.  The request is registered only now
        that its frame exists, so a frame that failed to pack leaves
        nothing behind.
        """
        try:
            pending = self._tls.pending
        except AttributeError:
            pending = self._tls.pending = _Pending()
        self._pending[request_id] = pending
        try:
            self._send(frame)
        except ConnectionLostError:
            self._pending.pop(request_id, None)
            raise
        # Park until the entry settles, taking the reader role while the
        # read side is free.  The event is a wakeup hint, not the truth:
        # a set ``response`` or ``error`` is.  A retiring reader sets
        # every still-pending event so one parked thread picks up the
        # role; the rest re-park.
        while pending.response is None and pending.error is None:
            if not self._reader_lock.acquire(False):
                pending.event.wait(timeout=0.2)
                pending.event.clear()
                continue
            try:
                self._read_until(pending)
            except (ConnectionLostError, OSError, wire.ProtocolError) as exc:
                self._fail(exc)
            finally:
                self._reader_lock.release()
                # Dirty read: with nothing pending, nobody is parked.
                if self._pending:
                    for waiter in list(self._pending.values()):
                        waiter.event.set()
        response, error = pending.response, pending.error
        pending.response = pending.error = None
        if error is not None:
            raise ConnectionLostError(
                f"connection to {self.host}:{self.port} lost mid-request: "
                f"{error}"
            ) from error
        assert response is not None
        if response.__class__ is not wire.Response:
            return response
        response.raise_if_error()
        return response

    def send_only(self, frame: bytes) -> None:
        """Send a fire-and-forget request frame (no pending entry, no wait).

        Only for frames carrying ``FLAG_NO_REPLY``: the server sends
        nothing back, so registering a pending entry would leak it.
        The stream still orders the op before any later request on this
        connection.
        """
        self._send(frame)

    def _send(self, frame: bytes) -> None:
        if self._dead is not None:
            raise ConnectionLostError(
                f"connection to {self.host}:{self.port} is down: "
                f"{self._dead}"
            )
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as exc:
            self._fail(exc)
            raise ConnectionLostError(
                f"send to {self.host}:{self.port} failed: {exc}"
            ) from exc

    def _read_until(self, pending: _Pending) -> None:
        """The reader role: settle replies until ``pending``'s is in."""
        waiters = self._pending
        while pending.response is None and pending.error is None:
            frames = self._reader.receive(self._sock.recv_into)
            if frames is None:
                raise ConnectionLostError("server closed the connection")
            for frame in frames:
                if frame.__class__ is bytes:  # an error, or data
                    response = wire.decode_response(frame)
                    request_id, value = response.request_id, response
                elif frame[0] == wire.RESP_OK:
                    # A traced OK settles as its hop tail, any other as
                    # its value.
                    request_id = frame[2]
                    value = frame[4:] if frame[1] else frame[3]
                else:
                    raise wire.ProtocolError(
                        f"request op 0x{frame[0]:02x} in the reply stream"
                    )
                # id 0 is the server's "stream broken" report; any other
                # unknown id is a reply whose waiter gave up.
                waiter = waiters.pop(request_id, None)
                if waiter is not None:
                    waiter.response = value
                    if waiter is not pending:
                        # The reader checks its own entry: waking it too
                        # would be pure condition-variable cost.
                        waiter.event.set()

    def _fail(self, exc: BaseException) -> None:
        with self._pending_lock:
            if self._dead is None:
                self._dead = exc
            victims = list(self._pending.values())
            self._pending.clear()
        for pending in victims:
            pending.error = exc
            pending.event.set()
        with contextlib.suppress(OSError):
            self._sock.close()

    def close(self) -> None:
        self._fail(ConnectionLostError("closed by client"))


class _RoutedSession:
    """One routed transaction scope: app id + per-worker connections.

    ``conns`` maps worker index -> the :class:`ClientConnection` the
    session is registered on there (opened on the home worker, adopted
    lazily elsewhere).  Validity is the conjunction of those
    connections being alive: a server force-closes its registration
    when the connection drops.  ``unopened`` is the home connection
    until the session's first frame there is packed (it carries
    ``FLAG_OPEN``), None after.
    """

    __slots__ = ("app_id", "conns", "unopened")

    def __init__(self, app_id: int, home: int, conn: ClientConnection) -> None:
        self.app_id = app_id
        self.conns: Dict[int, ClientConnection] = {home: conn}
        self.unopened: Optional[ClientConnection] = conn


def _pack(
    rec: _RoutedSession,
    conn: ClientConnection,
    op: int,
    request_id: int,
    body: tuple,
    timeout_s: Optional[float] = None,
    trace: Optional[Tuple[int, int, bool]] = None,
    flags: int = 0,
) -> bytes:
    """``op``'s frame for ``rec``'s session over ``conn``; the session's
    first frame to its home connection opens it.  Only a frame that
    packed counts as that first one: a request the packer refuses
    leaves the open to the next."""
    if conn is not rec.unopened:
        return wire.pack_request(op, request_id, body, timeout_s, trace, flags)
    frame = wire.pack_request(
        op, request_id, body, timeout_s, trace, flags | wire.FLAG_OPEN
    )
    rec.unopened = None
    return frame


class RoutedLockClient:
    """Pooled sync client over one or more server endpoints.

    Presents the same method surface (and raises the same exception
    classes) as the in-process services, so code written against
    :class:`LockService` -- including :class:`LoadDriver` -- drives a
    remote server, or a multi-process pool, unchanged.

    Tables are routed ``table_id % workers`` -- the same deterministic
    placement :func:`repro.service.sharded.shard_of` uses -- so every
    lock request goes straight to the server that owns the table (with
    one endpoint, the only server).  Sessions open on a round-robin
    *home* worker without a round trip of their own: the id comes from
    the block the home worker reserved to the connection, and the
    session's first frame there opens it (``FLAG_OPEN``).  Other workers
    lazily **adopt** it (``OP_ADOPT_SESSION``) on first touch;
    worker-allocated app ids come from disjoint arithmetic progressions,
    so adoption never collides.  A session stays on the connections it
    was registered on, because a server binds session cleanup to the
    connection that opened (or adopted) it.

    Sessions are *recycled*: ``session()`` scope exit fans one
    fire-and-forget ``release_all`` (the strict-2PL transaction
    boundary) out to every worker the session touched and parks the
    still-open record for the next scope, so a steady-state scope
    costs zero round trips instead of an open/close pair and adoption
    stays warm.  Recycled sessions are force-closed server-side when
    their connection drops, like any other.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        *,
        pool_size: int = 1,
        connect_timeout_s: float = 5.0,
        metrics: Any = None,
        tracer: Any = None,
    ) -> None:
        if not endpoints:
            raise ValueError("need at least one worker endpoint")
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self._endpoints = list(endpoints)
        self._n = len(self._endpoints)
        self.pool_size = pool_size
        self.connect_timeout_s = connect_timeout_s
        self._lock = threading.Lock()
        self._pool: List[List[Optional[ClientConnection]]] = [
            [None] * pool_size for _ in range(self._n)
        ]
        self._next_slot = [0] * self._n
        #: All live session records by app id (in-scope and idle alike).
        self._recs: Dict[int, _RoutedSession] = {}
        self._idle: List[_RoutedSession] = []
        self._rr = itertools.count()
        self._closed = False
        self.reconnects = 0
        #: Optional end-to-end request tracer
        #: (:class:`repro.obs.tracing.RequestTracer`).  Sampled lock_row
        #: calls carry the trace tail; without a tracer a call pays
        #: exactly one None check (the disabled-overhead contract).
        self._tracer = tracer
        #: Optional per-worker wire-latency histograms, labeled by
        #: worker: one observation per *sampled* lock_row that succeeds
        #: (an untraced one reads no clock).
        self._lat = None
        if metrics is not None:
            from repro.obs.registry import WALL_CLOCK_BUCKETS_S

            self._lat = [
                metrics.histogram(
                    "net.client.request_latency_s",
                    WALL_CLOCK_BUCKETS_S,
                    labels={"worker": str(idx)},
                )
                for idx in range(self._n)
            ]

    @property
    def workers(self) -> int:
        return self._n

    # -- connections --

    def _conn(self, worker: int) -> ClientConnection:
        with self._lock:
            if self._closed:
                raise ConnectionLostError("client is closed")
            slot = self._next_slot[worker]
            self._next_slot[worker] = (slot + 1) % self.pool_size
            conn = self._pool[worker][slot]
            if conn is not None and conn.alive:
                return conn
            if conn is not None:
                self.reconnects += 1
            host, port = self._endpoints[worker]
            conn = ClientConnection(
                host, port, connect_timeout_s=self.connect_timeout_s
            )
            self._pool[worker][slot] = conn
            return conn

    def _rec(self, app_id: int) -> _RoutedSession:
        rec = self._recs.get(app_id)  # atomic read under the GIL
        if rec is None:
            raise wire.ServiceError(
                f"app {app_id} has no live session on this client"
            )
        return rec

    def _route(
        self, app_id: int, table_id: int
    ) -> Tuple[_RoutedSession, ClientConnection]:
        """The session and its connection to ``table_id``'s worker
        (adopting the session there on first touch)."""
        rec = self._recs.get(app_id) or self._rec(app_id)
        conn = rec.conns.get(table_id % self._n)
        if conn is None:
            conn = self._adopt(rec, table_id % self._n)
        return rec, conn

    def _adopt(self, rec: _RoutedSession, worker: int) -> ClientConnection:
        conn = self._conn(worker)
        conn.request(wire.OP_ADOPT_SESSION, rec.app_id)
        rec.conns[worker] = conn
        return conn

    @staticmethod
    def _request(
        rec: _RoutedSession,
        conn: ClientConnection,
        op: int,
        *body: Any,
        timeout_s: Optional[float] = None,
    ) -> "int | wire.Response":
        """One round trip of ``op`` on the session over ``conn``."""
        request_id = conn.next_id()
        return conn.exchange(
            request_id, _pack(rec, conn, op, request_id, body, timeout_s)
        )

    @staticmethod
    def _tell(rec: _RoutedSession, conn: ClientConnection, op: int) -> None:
        """``op`` on the session over ``conn``, fire-and-forget."""
        conn.send_only(
            _pack(rec, conn, op, 0, (rec.app_id,), flags=wire.FLAG_NO_REPLY)
        )

    # -- session lifecycle --

    def open_session(self) -> int:
        """A new session on a round-robin home worker.  No frame is
        sent: the id is the next of the home connection's reserved
        block, and the session's first frame there opens it."""
        home = next(self._rr) % self._n
        conn = self._conn(home)
        app_id = conn.next_app_id()
        self._recs[app_id] = _RoutedSession(app_id, home, conn)
        return app_id

    def close_session(self, app_id: int) -> int:
        """Close ``app_id`` (releasing all its locks server-side)."""
        rec = self._rec(app_id)
        try:
            return sum(
                self._fan_out(rec, wire.OP_CLOSE_SESSION, alive_only=True)
            )
        finally:
            self._recs.pop(app_id, None)

    def _fan_out(
        self, rec: _RoutedSession, op: int, *,
        alive_only: bool = False, opened_only: bool = False,
    ) -> List[int]:
        """``op`` on the session to every worker it touched, one round
        trip each; the workers' integer results."""
        return [
            _value(self._request(rec, conn, op, rec.app_id))
            for conn in list(rec.conns.values())
            if (conn.alive or not alive_only)
            and not (opened_only and conn is rec.unopened)
        ]

    def _discard(self, rec: _RoutedSession) -> None:
        """Forget ``rec``, closing it server-side fire-and-forget."""
        self._recs.pop(rec.app_id, None)
        for conn in rec.conns.values():
            if conn.alive:
                with contextlib.suppress(ConnectionLostError):
                    self._tell(rec, conn, wire.OP_CLOSE_SESSION)

    @contextlib.contextmanager
    def session(self) -> Iterator[int]:
        """A transaction scope: an app id whose locks are released on
        exit (recycled, see class doc)."""
        rec: Optional[_RoutedSession] = None
        while rec is None:
            try:
                candidate = self._idle.pop()  # GIL-atomic
            except IndexError:
                break
            if all(conn.alive for conn in candidate.conns.values()):
                rec = candidate
            else:
                self._discard(candidate)
        if rec is None:
            rec = self._recs[self.open_session()]
        try:
            yield rec.app_id
        finally:
            recycled = True
            for conn in rec.conns.values():
                if not conn.alive:
                    recycled = False
                    continue
                try:
                    self._tell(rec, conn, wire.OP_RELEASE_ALL)
                except ConnectionLostError:
                    recycled = False
            if recycled and not self._closed:
                self._idle.append(rec)
            else:
                self._discard(rec)

    # -- the service surface --

    def lock_row(
        self,
        app_id: int,
        table_id: int,
        row_id: int,
        mode: Any,
        timeout_s: Optional[float] = None,
    ) -> None:
        """One LOCK_ROW round trip: one packed frame out, one reply in.

        The fields are packed as they are (no per-request closure), and
        an untraced request reads no clock.  A sampled one is the same
        request plus the trace tail, timed: its OK carries the server's
        four hop durations, and their sum off the observed wall wait is
        the disjoint ``client.net_wait`` hop, so the hops sum to the
        end-to-end latency.  A failed request (or a server without a
        tracer, whose OK is plain) reports none: the wait is net.  A
        sampled request that succeeds is one observation of the worker's
        latency histogram.  Session adoption (if any) comes first,
        outside any trace window.
        """
        rec, conn = self._route(app_id, table_id)
        body = (app_id, table_id, row_id, wire.wire_mode(mode))
        ctx = None if self._tracer is None else self._tracer.maybe_trace()
        request_id = conn.next_id()
        if ctx is None:
            conn.exchange(
                request_id,
                _pack(rec, conn, wire.OP_LOCK_ROW, request_id, body, timeout_s),
            )
            return
        started = packed = time.perf_counter()
        outcome, result = "ok", None
        try:
            frame = _pack(
                rec, conn, wire.OP_LOCK_ROW, request_id, body, timeout_s,
                (ctx.trace_id, ctx.span_id, True),
            )
            packed = time.perf_counter()  # client.encode ends here
            result = conn.exchange(request_id, frame)
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            replied = time.perf_counter()
            report = result if result.__class__ is tuple else ()
            decoded = time.perf_counter()
            if outcome == "ok" and self._lat is not None:
                self._lat[table_id % self._n].observe(replied - started)
            hops = {
                "client.encode": packed - started,
                "client.net_wait": max(0.0, replied - packed - sum(report)),
                "client.decode": decoded - replied,
            }
            hops.update(zip(SERVER_HOPS, report))
            self._tracer.finish(
                ctx,
                decoded - started,
                hops,
                worker=table_id % self._n,
                app_id=app_id,
                table_id=table_id,
                row_id=row_id,
                mode=wire.lock_mode(body[3]).name,
                outcome=outcome,
            )

    def lock_table(
        self,
        app_id: int,
        table_id: int,
        mode: Any,
        timeout_s: Optional[float] = None,
    ) -> None:
        rec, conn = self._route(app_id, table_id)
        self._request(
            rec, conn, wire.OP_LOCK_TABLE, app_id, table_id,
            wire.wire_mode(mode), timeout_s=timeout_s,
        )

    def release_read_lock(
        self, app_id: int, table_id: int, row_id: int
    ) -> bool:
        rec, conn = self._route(app_id, table_id)
        response = self._request(
            rec, conn, wire.OP_UNLOCK_READ, app_id, table_id, row_id
        )
        return bool(_value(response))

    def rollback(self, app_id: int) -> int:
        return sum(self._fan_out(self._rec(app_id), wire.OP_RELEASE_ALL))

    def cancel(self, app_id: int, message: str = "cancelled") -> bool:
        """Withdraw the session's pending wait.  Nothing goes where the
        session has not opened yet: the open stays with its first frame."""
        return any(
            self._fan_out(self._rec(app_id), wire.OP_CANCEL, opened_only=True)
        )

    # -- wire-only extras --

    def stats(self) -> List[Dict[str, Any]]:
        """Per-worker stats payloads, indexed by worker."""
        payloads = []
        for worker in range(self._n):
            response = self._conn(worker).request(wire.OP_STATS)
            payloads.append(json.loads(response.data.decode("utf-8")))
        return payloads

    def ping(self) -> None:
        for worker in range(self._n):
            self._conn(worker).request(wire.OP_PING)

    @property
    def session_count(self) -> int:
        return len(self._recs)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns = [
                conn
                for pool in self._pool
                for conn in pool
                if conn is not None
            ]
            self._pool = [[None] * self.pool_size for _ in range(self._n)]
            self._recs.clear()
            self._idle.clear()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "RoutedLockClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RoutedClientStack:
    """Make a remote server or worker pool drivable by :class:`LoadDriver`.

    The driver touches exactly two attributes of its stack --
    ``.service`` and ``.admission`` -- so this shim provides a
    :class:`RoutedLockClient` over ``endpoints`` as the service and a
    client-side :class:`AdmissionController` for back-pressure (the
    wire protocol deliberately has no admission op: shedding load
    *before* it hits the socket is the whole point of admission
    control).
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        *,
        pool_size: int = 1,
        max_in_flight: int = 64,
        max_queue_depth: int = 256,
        metrics: Any = None,
        tracer: Any = None,
    ) -> None:
        self.service = RoutedLockClient(
            endpoints, pool_size=pool_size, metrics=metrics, tracer=tracer
        )
        self.admission = AdmissionController(
            max_in_flight=max_in_flight, max_queue_depth=max_queue_depth
        )

    def close(self) -> None:
        self.admission.close()
        self.service.close()

    def __enter__(self) -> "RoutedClientStack":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "ClientConnection",
    "ConnectionLostError",
    "RoutedClientStack",
    "RoutedLockClient",
]
