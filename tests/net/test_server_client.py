"""End-to-end socket server + client library behavior.

A real :class:`ServiceStack` behind a real socket (TCP and Unix
domain), driven by the client library -- the one client, with the one
route a single server is: session lifecycle and recycling, pipelined
requests, error classes crossing the wire, disconnect cleanup,
reconnect after a server restart, and the oversized-frame teardown.
Then hand-built frames against the server's one dispatch path: every
LOCK_ROW shape gets the same mode-byte validation, FLAG_NO_REPLY and
error mapping, and a request that must wait begins once, is in flight
for its session from then on, and is finished from where it stopped.
"""

import math
import socket
import struct
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockManager, LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.lockmgr.resources import row_resource
from repro.net import protocol as wire
from repro.net.client import (
    ClientConnection,
    ConnectionLostError,
    RoutedClientStack,
    RoutedLockClient,
)
from repro.net import server as server_module
from repro.net.server import ServiceBackend, ThreadedLockServer, serve_service
from repro.obs.tracing import ServerTracer
from repro.service.service import LockService
from repro.service.sharded import ShardedServiceConfig
from repro.service.stack import ServiceConfig, ServiceStack


SMALL = dict(
    total_memory_pages=8192,
    initial_locklist_pages=128,
    tuner_interval_s=0.05,
    max_in_flight=16,
    admission_queue_depth=64,
)


def small_config() -> ServiceConfig:
    return ServiceConfig(**SMALL)


@pytest.fixture()
def stack():
    with ServiceStack(small_config()) as service_stack:
        yield service_stack


@pytest.fixture()
def server(stack):
    srv = serve_service(stack.service, host="127.0.0.1", port=0)
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    with RoutedLockClient([server.address], pool_size=2) as lock_client:
        yield lock_client


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestRoundTrips:
    def test_ping_and_stats(self, client):
        client.ping()
        (payload,) = client.stats()  # one entry per route
        assert payload["sessions"] == 0
        assert "service" in payload and "manager" in payload

    def test_lock_rows_and_rollback(self, client):
        app = client.open_session()
        client.lock_row(app, 1, 1, LockMode.X)
        client.lock_row(app, 1, 2, LockMode.S, timeout_s=1.0)
        for row in (1, 2):
            client.lock_row(app, 2, row, LockMode.X)
        assert client.rollback(app) == 6  # two intents, four rows
        assert client.close_session(app) == 0

    def test_unlock_read_over_the_wire(self, client):
        app = client.open_session()
        client.lock_row(app, 3, 9, LockMode.S)
        assert client.release_read_lock(app, 3, 9) is True
        assert client.release_read_lock(app, 3, 9) is False
        client.close_session(app)

    def test_unlock_read_under_the_sessions_parked_conversion(self, client, stack):
        # UNLOCK_READ runs on the reader thread while the same session's
        # LOCK_ROW (an S -> X conversion) is parked on the executor: the
        # S grant under the conversion is held to commit.
        upgrader, reader = client.open_session(), client.open_session()
        for app in (upgrader, reader):
            client.lock_row(app, 3, 9, LockMode.S)
        thread = threading.Thread(
            target=client.lock_row, args=(upgrader, 3, 9, LockMode.X),
            kwargs={"timeout_s": 5.0},
        )
        thread.start()
        assert wait_until(lambda: stack.service.waiting_sessions() == {upgrader})
        assert client.release_read_lock(upgrader, 3, 9) is False
        assert client.close_session(reader) == 2  # grants the conversion
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert client.close_session(upgrader) == 2
        assert stack.chain.used_slots == 0
        stack.check_invariants()

    def test_lock_table(self, client):
        app = client.open_session()
        client.lock_table(app, 5, LockMode.IX)
        client.close_session(app)

    def test_unknown_app_is_a_service_error(self, client):
        with pytest.raises(wire.ServiceError):
            client.lock_row(999_999, 1, 1, LockMode.X)

    def test_timeout_error_class_crosses_the_wire(self, client):
        holder = client.open_session()
        waiter = client.open_session()
        client.lock_row(holder, 7, 7, LockMode.X)
        with pytest.raises(LockTimeoutError):
            client.lock_row(waiter, 7, 7, LockMode.X, timeout_s=0.05)
        client.close_session(holder)
        client.close_session(waiter)


class TestSessionLifecycle:
    def test_scope_recycles_the_session(self, server):
        # Recycling is per-connection: pin the pool to one socket so
        # both scopes land on it.
        with RoutedLockClient([server.address], pool_size=1) as lock_client:
            with lock_client.session() as first:
                lock_client.lock_row(first, 1, 1, LockMode.X)
            with lock_client.session() as second:
                lock_client.lock_row(second, 1, 1, LockMode.X)
            # Scope exit released the locks (fire-and-forget
            # release_all is ordered by the TCP stream) and parked
            # the session for the second scope to adopt.
            assert second == first
            assert lock_client.session_count == 1

    def test_close_session_releases_locks_serverside(self, client, stack):
        app = client.open_session()
        client.lock_row(app, 1, 1, LockMode.X)
        assert stack.service.session_count() == 1
        client.close_session(app)
        assert stack.service.session_count() == 0
        assert stack.chain.used_slots == 0

    def test_disconnect_force_closes_sessions(self, server, stack):
        lock_client = RoutedLockClient([server.address], pool_size=1)
        app = lock_client.open_session()
        lock_client.lock_row(app, 1, 1, LockMode.X)
        assert stack.service.session_count() == 1
        lock_client.close()
        # The server's reader notices the dead socket and cleans up.
        assert wait_until(lambda: stack.service.session_count() == 0)
        assert wait_until(lambda: stack.chain.used_slots == 0)

    def test_disconnect_while_a_request_waits_frees_the_session(
        self, server, stack
    ):
        # The drop cancels the wait, but a session cannot close while its
        # request is in flight: it must close once the executor thread
        # has settled that request, not stay registered for good.  Eight
        # connections drop at once, with a short switch interval, so the
        # reader's close and the executor's settle race.
        service = stack.service
        holder = service.open_session()
        service.lock_row(holder, 3, 7, LockMode.X)
        raws = [RawConnection(server.address) for _ in range(8)]
        apps = [raw.open_session() for raw in raws]
        for raw, app in zip(raws, apps):
            assert raw.exchange(wire.pack_lock_row_frame(2, app, 3, 8 + app, X)).ok
            raw.send(wire.pack_lock_row_frame(3, app, 3, 7, X))
        assert wait_until(lambda: service.waiting_sessions() == set(apps))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for raw in raws:
                raw.sock.close()
            assert wait_until(lambda: service.session_count() == 1)
        finally:
            sys.setswitchinterval(interval)
        assert all(service.manager.app_slots(app) == 0 for app in apps)
        assert stack.chain.used_slots == 2  # the holder's intent and row
        service.close_session(holder)
        assert stack.chain.used_slots == 0


class TestPipelining:
    def test_concurrent_threads_on_a_small_pool(self, server):
        with RoutedLockClient([server.address], pool_size=1) as lock_client:
            errors = []

            def worker(i: int) -> None:
                try:
                    for j in range(50):
                        with lock_client.session() as app:
                            lock_client.lock_row(
                                app, i, j, LockMode.X, timeout_s=5.0
                            )
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []


class TestReconnect:
    def test_client_survives_server_restart(self, stack):
        first = serve_service(stack.service, host="127.0.0.1", port=0)
        host, port = first.address
        lock_client = RoutedLockClient([(host, port)], pool_size=1)
        try:
            app = lock_client.open_session()
            lock_client.lock_row(app, 1, 1, LockMode.X)
            first.stop()
            # In-flight state is gone: the session died with its socket.
            with pytest.raises((ConnectionLostError, wire.ServiceError)):
                lock_client.lock_row(app, 1, 2, LockMode.X)
            second = serve_service(stack.service, host=host, port=port)
            try:
                # Next use reconnects transparently; new scopes work.
                # (The old session's server-side state survives a
                # front-end restart -- only a client *disconnect*
                # force-closes it -- so lock fresh rows here.)
                assert wait_until(lambda: _can_ping(lock_client))
                with lock_client.session() as fresh:
                    lock_client.lock_row(fresh, 2, 2, LockMode.X)
                assert lock_client.reconnects >= 1
            finally:
                second.stop()
        finally:
            lock_client.close()


def _can_ping(lock_client: RoutedLockClient) -> bool:
    try:
        lock_client.ping()
        return True
    except (ConnectionLostError, OSError):
        return False


class TestFraming:
    def test_oversized_frame_tears_the_connection_down(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(struct.pack("!I", wire.MAX_FRAME_BYTES + 1))
            sock.settimeout(5.0)
            # The server answers with one ProtocolError frame, then
            # closes the connection -- it never buffers the body.
            data = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                data += chunk
            frames = list(wire.iter_frames(data))
            assert len(frames) == 1
            resp = wire.decode_response(frames[0])
            assert not resp.ok
            assert wire.ERROR_CODES[resp.error_code] is wire.ProtocolError

        # And the server still serves new connections afterwards.
        with RoutedLockClient([(host, port)]) as lock_client:
            lock_client.ping()

    def test_no_reply_ordering(self, server, stack):
        # A fire-and-forget release_all is ordered before the next
        # request on the same stream: the lock must be free by the
        # time a second session asks for it.
        with RoutedLockClient([server.address], pool_size=1) as lock_client:
            app = lock_client.open_session()
            lock_client.lock_row(app, 1, 1, LockMode.X)
            (conn,) = lock_client._rec(app).conns.values()
            conn.send_only(
                wire.pack_request(
                    wire.OP_RELEASE_ALL, 0, (app,), flags=wire.FLAG_NO_REPLY
                )
            )
            other = lock_client.open_session()
            lock_client.lock_row(other, 1, 1, LockMode.X, timeout_s=0.5)


class TestFramesThatCannotBePacked:
    """A request whose frame cannot be built is refused before the
    connection registers it, as a :class:`ProtocolError` -- a
    ``ServiceError``, so ``except ServiceError`` callers keep working."""

    @pytest.mark.parametrize(
        "call",
        [
            # A row id past the i64 wire field.
            lambda c, app: c.lock_row(app, 1, 2**70, LockMode.S),
            # A table id past the i64 wire field, on a control op.
            lambda c, app: c.lock_table(app, 2**70, LockMode.IS),
        ],
        ids=["row-out-of-range", "table-out-of-range"],
    )
    def test_refused_without_a_pending_entry(self, server, call):
        with RoutedLockClient([server.address], pool_size=1) as lock_client:
            app = lock_client.open_session()
            (conn,) = lock_client._rec(app).conns.values()
            with pytest.raises(wire.ServiceError) as info:
                call(lock_client, app)
            assert not isinstance(info.value, ConnectionLostError)
            assert conn._pending == {}
            # Nothing leaked, so the next request reads its own reply.
            lock_client.lock_row(app, 1, 2, LockMode.S)
            assert conn._pending == {}
            lock_client.close_session(app)

    def test_out_of_range_fields_are_protocol_errors(self):
        X = wire.wire_mode(LockMode.X)
        for pack in (
            lambda: wire.pack_lock_row_frame(1, 2, 3, 2**70, X),
            lambda: wire.pack_lock_row_frame(1, -1, 3, 4, X, timeout_s=1.0),
            lambda: wire.pack_lock_row_frame(1, 2, 3, 4, 256),
            lambda: wire.pack_request(wire.OP_CLOSE_SESSION, 1, (2**64,)),
            lambda: wire.encode_lock_row(1, 2, 3, 4, X, trace=(2**64, 0, True)),
        ):
            with pytest.raises(wire.ProtocolError):
                pack()


class TestStopServesWhatWasSent:
    def test_a_release_sent_before_stop_is_run(
        self, stack, tmp_path, monkeypatch
    ):
        # Hold the reader inside a PING while a fire-and-forget release
        # queues behind it on a Unix socket, then stop the server: stop
        # must let the reader run the release, not close the socket
        # under it (the locks would stay held by a session no one owns).
        server = serve_service(stack.service, path=str(tmp_path / "s.sock"))
        entered, gate = threading.Event(), threading.Event()
        dispatch = server_module._ThreadedConnection._dispatch

        def held(self, frame):
            if frame[0] == wire.OP_PING:
                entered.set()
                gate.wait(5.0)
            dispatch(self, frame)

        monkeypatch.setattr(server_module._ThreadedConnection, "_dispatch", held)
        with RawConnection(server.address) as raw:
            app = raw.open_session()
            assert raw.exchange(wire.pack_lock_row_frame(2, app, 3, 7, X)).ok
            assert stack.chain.used_slots == 2
            raw.send(wire.pack_request(wire.OP_PING, 3))
            assert entered.wait(5.0)
            raw.send(
                wire.pack_request(
                    wire.OP_RELEASE_ALL, 0, (app,), flags=wire.FLAG_NO_REPLY
                )
            )
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            stopper.join(0.5)  # a stop that does not wait returns by now
            gate.set()
            stopper.join(10.0)
            assert not stopper.is_alive()
        assert stack.chain.used_slots == 0


class TestUnixDomain:
    def test_uds_roundtrip(self, stack, tmp_path):
        sock_path = str(tmp_path / "svc.sock")
        server = serve_service(stack.service, path=sock_path)
        try:
            assert server.address[0].startswith("unix:")
            with RoutedClientStack([server.address], pool_size=1) as net:
                with net.service.session() as app:
                    net.service.lock_row(app, 1, 1, LockMode.X)
                net.service.ping()
        finally:
            server.stop()


class RawConnection:
    """A bare socket speaking hand-built frames to the server."""

    def __init__(self, address):
        host, port = address
        if host.startswith("unix:"):
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.settimeout(5.0)
            self.sock.connect(host[len("unix:"):])
        else:
            self.sock = socket.create_connection(address, timeout=5.0)
        self._decoder = wire.FrameDecoder()
        self._replies = []
        self._ids = iter(())

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def reply(self) -> wire.Response:
        while not self._replies:
            self._replies = self._decoder.feed(self.sock.recv(4096))
        return wire.decode_response(self._replies.pop(0))

    def exchange(self, frame: bytes) -> wire.Response:
        self.send(frame)
        return self.reply()

    def open_session(self) -> int:
        """A session opened as the client opens one: a reserved id, and
        a first frame (here a RELEASE_ALL) flagged FLAG_OPEN."""
        app = next(self._ids, None)
        if app is None:
            self._ids = iter(self.reserve())
            app = next(self._ids)
        resp = self.exchange(
            wire.pack_request(
                wire.OP_RELEASE_ALL, 1, (app,), flags=wire.FLAG_OPEN
            )
        )
        assert resp.ok, resp.error_message
        return app

    def reserve(self) -> range:
        """An id block reserved to this connection (OP_RESERVE_IDS)."""
        resp = self.exchange(wire.pack_request(wire.OP_RESERVE_IDS, 1))
        assert resp.ok, resp.error_message
        return wire.parse_id_block(resp.data)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.sock.close()


X = wire.MODE_TO_WIRE[LockMode.X]


class TestInlineFastPathValidatesTheSession:
    """The server's immediate-grant attempt takes the session id from
    the frame; ``try_lock_row`` must make lock_row's registry checks."""

    def test_unopened_session_gets_an_error_and_no_locks(self, server, stack):
        with RawConnection(server.address) as raw:
            resp = raw.exchange(wire.pack_lock_row_frame(2, 424242, 3, 7, X))
            assert not resp.ok
            assert wire.ERROR_CODES[resp.error_code] is wire.ServiceError
            assert "424242 is not open" in resp.error_message
            assert stack.chain.used_slots == 0
        # Nothing was granted, so nothing is left after disconnect.
        assert stack.chain.used_slots == 0
        assert stack.service.stats.granted == 0

    def test_opened_session_still_takes_the_fast_grant(self, server, stack):
        with RawConnection(server.address) as raw:
            app = raw.open_session()
            resp = raw.exchange(wire.pack_lock_row_frame(2, app, 3, 7, X))
            assert resp.ok and resp.value == 1
            assert stack.chain.used_slots == 2  # intent + row
            assert stack.service.manager.app_slots(app) == 2
        # The connection owned the session: disconnect releases it.
        assert wait_until(lambda: stack.chain.used_slots == 0)


class TestBeginLockRow:
    def test_refuses_an_unopened_id(self, stack):
        # begin_lock_row is the one non-blocking entry and it always
        # validates: there is no pre-validated twin to reach around it.
        service = stack.service
        with pytest.raises(wire.ServiceError, match="77 is not open"):
            service.begin_lock_row(77, 1, 1, LockMode.X)
        assert stack.chain.used_slots == 0
        assert not hasattr(service, "try_lock_row")

    def test_refuses_a_session_with_a_request_in_flight(self, stack):
        service = stack.service
        holder = service.open_session()
        waiter = service.open_session()
        service.lock_row(holder, 7, 7, LockMode.X)
        thread = threading.Thread(
            target=service.lock_row,
            args=(waiter, 7, 7, LockMode.X),
            kwargs={"timeout_s": 5.0},
        )
        thread.start()
        assert wait_until(lambda: service.waiting_sessions() == {waiter})
        used, requests = stack.chain.used_slots, service.stats.requests
        # A free row, but the session is mid-request: refused, nothing
        # touched, nothing counted.
        with pytest.raises(wire.ServiceError, match="already has a request in flight"):
            service.begin_lock_row(waiter, 8, 8, LockMode.X)
        assert stack.chain.used_slots == used
        assert service.stats.requests == requests
        service.close_session(holder)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        service.close_session(waiter)

    def test_a_request_that_waits_is_handed_back_in_flight(self, stack):
        service = stack.service
        holder = service.open_session()
        waiter = service.open_session()
        service.lock_row(holder, 7, 7, LockMode.X)
        request = service.begin_lock_row(waiter, 7, 7, LockMode.X, timeout_s=5.0)
        assert request is not None
        # Parked at its first wait: queued and in the wait map, and the
        # session is in flight until the request is finished.
        assert service.waiting_sessions() == {waiter}
        service.check_invariants()
        with pytest.raises(wire.ServiceError, match="in flight"):
            service.close_session(waiter)
        thread = threading.Thread(target=service.finish_request, args=(request,))
        thread.start()
        service.close_session(holder)  # grants the waiter
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        stats = service.stats
        assert (stats.requests, stats.granted) == (2, 2)
        assert service.manager.app_slots(waiter) == 2
        service.close_session(waiter)


LOCK_ROW_SHAPES = {
    "plain": {},
    "timeout": {"timeout_s": 1.0},
    "traced": {"trace": (0xABCD, 1, True)},
}


class TestOneDispatchPath:
    """Whatever a LOCK_ROW frame looks like, the same body serves it."""

    @pytest.mark.parametrize("shape", sorted(LOCK_ROW_SHAPES))
    def test_unknown_mode_byte_is_a_protocol_error(self, server, stack, shape):
        with RawConnection(server.address) as raw:
            app = raw.open_session()
            resp = raw.exchange(
                wire.pack_lock_row_frame(
                    9, app, 3, 7, 200, **LOCK_ROW_SHAPES[shape]
                )
            )
            assert not resp.ok and resp.request_id == 9
            assert wire.ERROR_CODES[resp.error_code] is wire.ProtocolError
            assert resp.error_message == "unknown lock mode byte 200"
            assert stack.service.manager.app_slots(app) == 0

    @pytest.mark.parametrize(
        "retired",
        [
            struct.pack("!BBQ", 0x01, 0, 4),  # a bare session open
            struct.pack("!BBQQIqqB", 0x05, 0, 4, 1, 1, 3, 7, X),  # a batch
        ],
        ids=["open_session", "batch_lock"],
    )
    def test_a_retired_op_is_answered_and_the_connection_serves_on(
        self, server, stack, retired
    ):
        with RawConnection(server.address) as raw:
            app = raw.open_session()
            resp = raw.exchange(wire.encode_frame(retired))
            assert not resp.ok and resp.request_id == 4
            assert wire.ERROR_CODES[resp.error_code] is wire.ProtocolError
            assert resp.error_message == f"unknown request op 0x0{retired[0]}"
            assert stack.service.stats.sessions_opened == 1
            resp = raw.exchange(wire.pack_lock_row_frame(5, app, 3, 7, X))
            assert resp.ok and resp.request_id == 5
            assert stack.service.manager.app_slots(app) == 2

    def test_a_nan_timeout_is_refused_and_the_connection_serves_on(self, server, stack):
        # A request that would wait: an immediate grant reads no timeout.
        service = stack.service
        holder = service.open_session()
        service.lock_row(holder, 3, 7, LockMode.X)
        with RawConnection(server.address) as raw:
            app = raw.open_session()
            resp = raw.exchange(
                wire.pack_lock_row_frame(4, app, 3, 7, X, timeout_s=math.nan)
            )
            assert not resp.ok and resp.request_id == 4
            assert wire.ERROR_CODES[resp.error_code] is wire.ServiceError
            assert resp.error_message == "timeout_s must be non-negative, got nan"
            assert service.waiting_sessions() == set()
            assert service.manager.app_slots(app) == 0
            service.close_session(holder)
            resp = raw.exchange(wire.pack_lock_row_frame(5, app, 3, 7, X))
            assert resp.ok and resp.request_id == 5
            assert service.manager.app_slots(app) == 2

    def test_no_reply_lock_row_granted_on_the_spot_writes_no_frame(
        self, server, stack
    ):
        with RawConnection(server.address) as raw:
            app = raw.open_session()
            frame = bytearray(wire.pack_lock_row_frame(2, app, 3, 7, X))
            frame[5] |= wire.FLAG_NO_REPLY  # flags: past length + op
            raw.send(bytes(frame))
            ping = raw.exchange(wire.pack_request(wire.OP_PING, 3))
            # The only frame on the stream is the PING's answer ...
            assert ping.ok and ping.request_id == 3
            raw.sock.settimeout(0.2)
            with pytest.raises(socket.timeout):
                raw.sock.recv(1)
            # ... and the lock was granted all the same.
            assert stack.service.manager.app_slots(app) == 2

    def test_runt_frame_is_answered_not_fatal(self, server):
        with RawConnection(server.address) as raw:
            resp = raw.exchange(wire.encode_frame(b""))
            assert wire.ERROR_CODES[resp.error_code] is wire.ProtocolError
            assert raw.exchange(wire.pack_request(wire.OP_PING, 3)).ok


class TestImmediateGrantAttempts:
    """A request that has to wait begins once, wherever it crosses in
    -- the wire's reader or an in-process call -- and is finished from
    the wait it stopped at: there is no second attempt."""

    @pytest.fixture()
    def attempts(self, monkeypatch):
        calls = []
        original = LockManager.begin_lock_row

        def counting(self, app_id, *args):
            calls.append(app_id)
            return original(self, app_id, *args)

        monkeypatch.setattr(LockManager, "begin_lock_row", counting)
        return calls

    def test_wire_waiter_tries_once_on_the_reader(self, client, stack, attempts):
        holder = client.open_session()
        waiter = client.open_session()
        client.lock_row(holder, 7, 7, LockMode.X)
        thread = threading.Thread(
            target=client.lock_row,
            args=(waiter, 7, 7, LockMode.X),
            kwargs={"timeout_s": 5.0},
        )
        thread.start()
        assert wait_until(lambda: stack.service.waiting_sessions() == {waiter})
        assert attempts.count(waiter) == 1
        client.close_session(holder)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert attempts.count(waiter) == 1
        client.close_session(waiter)

    def test_sharded_waiter_tries_once(self, attempts):
        with ServiceStack(ShardedServiceConfig(shards=2, **SMALL)) as sharded:
            service = sharded.service
            holder = service.open_session()
            waiter = service.open_session()
            service.lock_row(holder, 7, 7, LockMode.X)
            thread = threading.Thread(
                target=service.lock_row,
                args=(waiter, 7, 7, LockMode.X),
                kwargs={"timeout_s": 5.0},
            )
            thread.start()
            assert wait_until(lambda: service.waiting_sessions() == {waiter})
            assert attempts.count(waiter) == 1
            service.close_session(holder)
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            service.close_session(waiter)


class TestTheReaderMarksTheSessionInFlight:
    """A LOCK_ROW the reader began and could not grant is in flight for
    its session before the reader reads the next frame, so a pipelined
    second request of that session is refused, never granted ahead of
    the first."""

    def test_a_pipelined_second_lock_row_meets_the_first_in_flight(
        self, server, stack, monkeypatch
    ):
        service = stack.service
        holder = service.open_session()
        service.lock_row(holder, 3, 7, LockMode.X)
        executor = server.executor
        submit = executor.submit
        handed, broken = [], []

        def handoff(fn, *args):
            # The reader -> executor handoff, the mutex free: no request
            # is half-done (a waiter is in the wait map iff it is queued).
            try:
                service.check_invariants()
            except Exception as exc:  # reported below, not on the reader
                broken.append(exc)
            handed.append((fn, args))  # held until both frames are read

        monkeypatch.setattr(executor, "submit", handoff)
        with RawConnection(server.address) as raw:
            app = raw.open_session()
            raw.send(
                wire.pack_lock_row_frame(2, app, 3, 7, X)  # waits for holder
                + wire.pack_lock_row_frame(3, app, 3, 8, X)  # a free row
            )
            second = raw.reply()
            assert second.request_id == 3 and not second.ok
            assert wire.ERROR_CODES[second.error_code] is wire.ServiceError
            assert "already has a request in flight" in second.error_message
            assert service.manager.holder_mode(app, row_resource(3, 8)) is None
            assert not broken
            [(fn, args)] = handed
            assert service.waiting_sessions() == {app}
            submit(fn, *args)
            service.close_session(holder)  # grants the first frame
            first = raw.reply()
            assert first.request_id == 2 and first.ok
            assert service.manager.holder_mode(app, row_resource(3, 7)) is LockMode.X
        assert wait_until(lambda: stack.chain.used_slots == 0)


IX = wire.MODE_TO_WIRE[LockMode.IX]

#: A frame of each op that names a session, as it would open one: the
#: op and its body after the app id (rows are the app's own, so no two
#: sessions ever wait for each other).
FIRST_FRAMES = {
    "lock_row": (wire.OP_LOCK_ROW, lambda app: (3, app, X)),
    "lock_table": (wire.OP_LOCK_TABLE, lambda app: (5, IX)),
    "unlock_read": (wire.OP_UNLOCK_READ, lambda app: (3, app)),
    "release_all": (wire.OP_RELEASE_ALL, lambda app: ()),
    "cancel": (wire.OP_CANCEL, lambda app: ()),
    "close_session": (wire.OP_CLOSE_SESSION, lambda app: ()),
}


def first_frame(name, app, rid=5, *, trace=None, flags=wire.FLAG_OPEN):
    op, rest = FIRST_FRAMES[name]
    return wire.pack_request(op, rid, (app, *rest(app)), None, trace, flags)


def opened(service):
    """(open sessions, sessions ever opened, peak) of a service."""
    stats = service.stats
    return service.session_count(), stats.sessions_opened, stats.peak_sessions


class TestOpenOnFirstFrame:
    """A session opens with the first frame naming it (FLAG_OPEN), from
    an id block reserved to the connection -- once, and nowhere else."""

    @pytest.fixture()
    def traced(self, stack, tmp_path):
        srv = ThreadedLockServer(
            ServiceBackend(stack.service, tracer=ServerTracer()),
            path=str(tmp_path / "traced.sock"),
        )
        srv.start()
        yield srv
        srv.stop()

    @pytest.mark.parametrize("traced_frame", [False, True], ids=["plain", "traced"])
    @pytest.mark.parametrize("name", sorted(FIRST_FRAMES))
    def test_any_op_opens_its_session(self, traced, stack, name, traced_frame):
        service = stack.service
        trace = (0xABCD, 1, True) if traced_frame else None
        with RawConnection(traced.address) as raw:
            block = raw.reserve()
            assert len(block) == server_module.APP_ID_BLOCK
            assert opened(service) == (0, 0, 0)  # a reservation opens nothing
            app = block[0]
            resp = raw.exchange(first_frame(name, app, trace=trace))
            assert resp.ok, resp.error_message
            # Counted exactly like open_session (CLOSE opens and closes).
            closes = name == "close_session"
            assert opened(service) == (0 if closes else 1, 1, 1)
            assert service.stats.sessions_closed == int(closes)
            if traced_frame:
                (span,) = traced.backend.tracer.to_dicts()
                assert span["app"] == app and span["outcome"] == "ok"
            # The session is the connection's: it goes when it drops.
        assert wait_until(lambda: service.session_count() == 0)
        assert stack.chain.used_slots == 0

    def test_only_the_first_frame_differs_and_only_in_its_flags(self, server, stack):
        with RawConnection(server.address) as raw:
            app = raw.reserve()[0]
            first = first_frame("lock_row", app, rid=2)
            later = wire.pack_lock_row_frame(2, app, 3, app, X)
            assert first == later[:5] + bytes([wire.FLAG_OPEN]) + later[6:]
            assert raw.exchange(first).ok
            assert raw.exchange(wire.pack_lock_row_frame(3, app, 3, 8, X)).ok
            assert stack.service.manager.app_slots(app) == 3  # intent + 2 rows

    REFUSED = "is not an unopened id reserved on this connection"

    def assert_refused(self, raw, frame, service, before):
        resp = raw.exchange(frame)
        assert not resp.ok
        assert wire.ERROR_CODES[resp.error_code] is wire.ServiceError
        assert self.REFUSED in resp.error_message
        assert opened(service) == before

    def test_an_id_outside_the_block_is_refused(self, server, stack):
        service = stack.service
        with RawConnection(server.address) as raw:
            block = raw.reserve()
            for app in (block[-1] + block.step, 424242, 0):
                self.assert_refused(
                    raw, first_frame("lock_row", app), service, (0, 0, 0)
                )
        assert stack.chain.used_slots == 0

    def test_an_id_reserved_on_the_other_connection_is_refused(self, server, stack):
        service = stack.service
        with RawConnection(server.address) as mine, RawConnection(
            server.address
        ) as theirs:
            app = mine.reserve()[0]
            theirs.reserve()
            self.assert_refused(
                theirs, first_frame("lock_row", app), service, (0, 0, 0)
            )
            # ... and it is still the owner's to open.
            assert mine.exchange(first_frame("lock_row", app)).ok
            assert opened(service) == (1, 1, 1)

    def test_a_second_open_is_refused(self, server, stack):
        service = stack.service
        with RawConnection(server.address) as raw:
            app = raw.reserve()[0]
            assert raw.exchange(first_frame("lock_row", app)).ok
            self.assert_refused(
                raw, first_frame("release_all", app), service, (1, 1, 1)
            )
            assert service.manager.app_slots(app) == 2  # the refusal ran nothing

    def test_an_open_after_close_is_refused(self, server, stack):
        service = stack.service
        with RawConnection(server.address) as raw:
            app = raw.reserve()[0]
            assert raw.exchange(first_frame("close_session", app)).ok
            self.assert_refused(
                raw, first_frame("lock_row", app), service, (0, 1, 1)
            )
        assert stack.chain.used_slots == 0

    def test_a_no_reply_refusal_answers_nothing_and_registers_nothing(
        self, server, stack
    ):
        with RawConnection(server.address) as raw:
            raw.reserve()
            raw.send(
                first_frame(
                    "release_all", 424242,
                    flags=wire.FLAG_OPEN | wire.FLAG_NO_REPLY,
                )
            )
            assert raw.exchange(wire.pack_request(wire.OP_PING, 3)).request_id == 3
            assert opened(stack.service) == (0, 0, 0)

    def test_reservation_state_is_bounded(self, server, stack, monkeypatch):
        monkeypatch.setattr(server_module, "APP_ID_BLOCK", 4)
        kept = server_module._OPENABLE_BLOCKS
        with RawConnection(server.address) as raw:
            blocks = [raw.reserve() for _ in range(kept + 1)]
            (conn,) = server._connections
            assert len(conn._blocks) == kept
            # The oldest block was forgotten, the newest ones still open.
            self.assert_refused(
                raw, first_frame("lock_row", blocks[0][0]), stack.service, (0, 0, 0)
            )
            for block in blocks[1:]:
                assert raw.exchange(first_frame("release_all", block[-1])).ok
            assert [sum(opened) for _, opened in conn._blocks] == [1] * kept

    def test_the_sharded_service_opens_reserved_ids(self, tmp_path):
        with ServiceStack(ShardedServiceConfig(shards=2, **SMALL)) as sharded:
            service = sharded.service
            srv = serve_service(service, path=str(tmp_path / "s.sock"))
            try:
                with RawConnection(srv.address) as raw:
                    app = raw.reserve()[0]
                    assert raw.exchange(first_frame("lock_row", app)).ok
                    assert raw.exchange(wire.pack_lock_row_frame(6, app, 4, 1, X)).ok
                    assert opened(service) == (1, 1, 1)
                    sharded.check_invariants()
                    self.assert_refused(
                        raw, first_frame("cancel", app), service, (1, 1, 1)
                    )
                assert wait_until(lambda: service.session_count() == 0)
            finally:
                srv.stop()


class TestUnusedSessions:
    """A session opened and never used costs no frame -- and can still
    be closed, rolled back or cancelled, counted once."""

    @pytest.mark.parametrize("end", ["close", "rollback", "cancel", "scope"])
    def test_an_unused_session_ends_cleanly(self, server, stack, end):
        service = stack.service
        with RoutedLockClient([server.address], pool_size=1) as lock_client:
            lock_client.ping()
            # A reply is counted once its sendall returned: wait for it.
            assert wait_until(lambda: server.responses_written == 1)
            app = lock_client.open_session()
            assert wait_until(lambda: server.responses_written == 2)  # reserved
            assert opened(service) == (0, 0, 0)
            if end == "close":
                assert lock_client.close_session(app) == 0
                assert opened(service) == (0, 1, 1)
            elif end == "rollback":
                assert lock_client.rollback(app) == 0
                assert lock_client.cancel(app) is False  # not a second open
                assert opened(service) == (1, 1, 1)
            elif end == "cancel":
                # Nothing to cancel before the first frame: nothing sent.
                assert lock_client.cancel(app) is False
                assert opened(service) == (0, 0, 0)
            else:
                with lock_client.session() as scoped:
                    pass  # the scope's release opens it, then recycles it
                assert scoped != app
                assert wait_until(lambda: opened(service) == (1, 1, 1))
                lock_client.close_session(app)
                assert opened(service) == (1, 2, 2)
            # Whatever happened, the next session's first frame opens it.
            fresh = lock_client.open_session()
            lock_client.lock_row(fresh, 1, 1, LockMode.X)
            lock_client.close_session(fresh)
        assert wait_until(lambda: service.session_count() == 0)
        assert service.stats.sessions_opened == {"scope": 3, "cancel": 1}.get(
            end, 2
        )

    def test_a_cancel_cannot_take_the_first_lock_rows_open(
        self, server, stack, monkeypatch
    ):
        """A cancel from another thread, its frame held between pack and
        send while the session's first lock_row goes out: the lock_row
        still opens the session and is granted."""
        held, release = threading.Event(), threading.Event()
        exchange = ClientConnection.exchange

        def holding_exchange(conn, request_id, frame):
            (payload,) = wire.iter_frames(frame)
            if payload[0] == wire.OP_CANCEL:
                held.set()
                release.wait(5.0)
            return exchange(conn, request_id, frame)

        monkeypatch.setattr(ClientConnection, "exchange", holding_exchange)
        with RoutedLockClient([server.address], pool_size=1) as lock_client:
            app = lock_client.open_session()
            cancelled = []
            canceller = threading.Thread(
                target=lambda: cancelled.append(lock_client.cancel(app))
            )
            canceller.start()
            # The cancel's frame is held -- or it had none to send.
            assert wait_until(
                lambda: held.is_set() or not canceller.is_alive()
            )
            try:
                lock_client.lock_row(app, 1, 1, LockMode.X)
            finally:
                release.set()
                canceller.join(5.0)
            assert not canceller.is_alive()
            assert cancelled == [False]
            assert opened(stack.service) == (1, 1, 1)
            lock_client.close_session(app)
        assert wait_until(lambda: stack.service.session_count() == 0)

    def test_a_frame_that_cannot_be_packed_does_not_open(self, server, stack):
        with RoutedLockClient([server.address], pool_size=1) as lock_client:
            app = lock_client.open_session()
            with pytest.raises(wire.ProtocolError):
                lock_client.lock_row(app, 1, 2**70, LockMode.S)
            assert opened(stack.service) == (0, 0, 0)
            lock_client.lock_row(app, 1, 2, LockMode.S)  # this one opens it
            assert opened(stack.service) == (1, 1, 1)
            lock_client.close_session(app)

    def test_one_reservation_per_block(self, server, stack, monkeypatch):
        monkeypatch.setattr(server_module, "APP_ID_BLOCK", 4)
        with RoutedLockClient([server.address], pool_size=1) as lock_client:
            lock_client.ping()
            assert wait_until(lambda: server.responses_written == 1)
            apps = []
            for _ in range(9):
                apps.append(lock_client.open_session())
                lock_client.lock_row(apps[-1], 1, 1, LockMode.X)
                lock_client.close_session(apps[-1])
            assert len(set(apps)) == 9
            # Three blocks of four: three round trips for nine sessions,
            # beside each session's lock and close.
            assert wait_until(lambda: server.responses_written == 1 + 3 + 2 * 9)
        assert stack.service.stats.sessions_opened == 9

    def test_threads_share_a_connections_blocks(self, server, stack, monkeypatch):
        # Eight threads open sessions over one connection while blocks
        # run out every 16 ids: every id is handed out once, and every
        # first frame opens its session -- none refused, none twice.
        monkeypatch.setattr(server_module, "APP_ID_BLOCK", 16)
        apps, errors = [], []
        with RoutedLockClient([server.address], pool_size=1) as lock_client:

            def worker(i: int) -> None:
                try:
                    for j in range(40):
                        app = lock_client.open_session()
                        apps.append(app)
                        lock_client.lock_row(app, i, j, LockMode.X, timeout_s=5.0)
                        lock_client.close_session(app)
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=worker, args=(i,)) for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(apps) == len(set(apps)) == 8 * 40
        stats = stack.service.stats
        assert stats.sessions_opened == stats.sessions_closed == 8 * 40
        assert stack.service.session_count() == 0


# -- the open rules under generated interleavings -----------------------------

#: (kind, connection, pick): reserve a block on connection c; send c a
#: FLAG_OPEN frame naming an id picked from every id reserved so far
#: (one pick in seven names a never-reserved id); close an id over c.
ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["reserve", "open", "close"]),
        st.integers(0, 1),
        st.integers(0, 20),  # few values, so picks name one id again
    ),
    max_size=30,
)


class TestOpenRuleProperties:
    @settings(max_examples=150, deadline=None)
    @given(ACTIONS, st.sampled_from(sorted(FIRST_FRAMES)))
    # The four refusals, pinned (random runs reach them only sometimes):
    # reopen after close, a second open, another connection's id, and an
    # id of a forgotten block (three blocks reserved, two kept).
    @example(
        [("reserve", 0, 0), ("open", 0, 1), ("close", 0, 1), ("open", 0, 1)],
        "lock_row",
    )
    @example([("reserve", 0, 0), ("open", 0, 1), ("open", 0, 1)], "release_all")
    @example([("reserve", 0, 0), ("reserve", 1, 0), ("open", 1, 1)], "cancel")
    @example([("reserve", 0, 0)] * 3 + [("open", 0, 1), ("open", 0, 9)], "lock_table")
    def test_a_session_opens_once_on_its_connection(
        self, tmp_path_factory, actions, name
    ):
        # Small blocks and a two-block window, so that generated runs
        # reach the forgotten blocks too.
        with mock.patch.object(server_module, "APP_ID_BLOCK", 4), mock.patch.object(
            server_module, "_OPENABLE_BLOCKS", 2
        ):
            self.check_against_the_model(tmp_path_factory, actions, name)

    @staticmethod
    def check_against_the_model(tmp_path_factory, actions, name):
        service = LockService(LockBlockChain(initial_blocks=2))
        srv = serve_service(
            service, path=str(tmp_path_factory.mktemp("p") / "s.sock")
        )
        openable = [[], []]  # per connection: its newest blocks' unopened ids
        reserved = []  # every id handed out, in order
        open_now = set()
        ever = peak = 0
        try:
            with RawConnection(srv.address) as c0, RawConnection(srv.address) as c1:
                conns = (c0, c1)
                for kind, c, pick in actions:
                    raw = conns[c]
                    if kind == "reserve":
                        ids = raw.reserve()
                        openable[c] = (openable[c] + [set(ids)])[-2:]
                        reserved.extend(ids)
                        continue
                    app = 10**9 + pick
                    if reserved and pick % 7:
                        app = reserved[pick % len(reserved)]
                    if kind == "open":
                        resp = raw.exchange(first_frame(name, app))
                        owner = next((b for b in openable[c] if app in b), None)
                        assert resp.ok == (owner is not None), (app, resp.error_message)
                        if owner is not None:
                            owner.discard(app)
                            ever += 1
                            peak = max(peak, len(open_now) + 1)
                            if name != "close_session":
                                open_now.add(app)
                    else:
                        resp = raw.exchange(
                            wire.pack_request(wire.OP_CLOSE_SESSION, 6, (app,))
                        )
                        assert resp.ok == (app in open_now)
                        open_now.discard(app)
                    assert opened(service) == (len(open_now), ever, peak)
                    service.check_invariants()
            # Closing the connections closed what they opened.
            assert wait_until(lambda: service.session_count() == 0)
            assert service.chain.used_slots == 0
        finally:
            srv.stop()
