"""End-to-end socket server + client library behavior.

A real :class:`ServiceStack` behind a real socket (TCP and Unix
domain), driven by the client library: session lifecycle and
recycling, pipelined requests, error classes crossing the wire,
disconnect cleanup, reconnect after a server restart, and the
oversized-frame teardown.
"""

import socket
import struct
import threading
import time

import pytest

from repro.lockmgr.manager import LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.net import protocol as wire
from repro.net.client import ConnectionLostError, LockClient, NetClientStack
from repro.net.server import serve_service
from repro.service.stack import ServiceConfig, ServiceStack


def small_config() -> ServiceConfig:
    return ServiceConfig(
        total_memory_pages=8192,
        initial_locklist_pages=128,
        tuner_interval_s=0.05,
        max_in_flight=16,
        admission_queue_depth=64,
    )


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
    with LockClient(*server.address, pool_size=2) as lock_client:
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
        payload = client.stats()
        assert payload["sessions"] == 0
        assert "service" in payload and "manager" in payload

    def test_lock_rows_and_rollback(self, client):
        app = client.open_session()
        client.lock_row(app, 1, 1, LockMode.X)
        client.lock_row(app, 1, 2, LockMode.S, timeout_s=1.0)
        granted = client.lock_rows(
            app, [(2, 1, LockMode.X), (2, 2, LockMode.X)]
        )
        assert granted == 2
        assert client.rollback(app) > 0
        assert client.close_session(app) == 0

    def test_unlock_read_over_the_wire(self, client):
        app = client.open_session()
        client.lock_row(app, 3, 9, LockMode.S)
        assert client.release_read_lock(app, 3, 9) is True
        assert client.release_read_lock(app, 3, 9) is False
        client.close_session(app)

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
        with LockClient(*server.address, pool_size=1) as lock_client:
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
        lock_client = LockClient(*server.address, pool_size=1)
        app = lock_client.open_session()
        lock_client.lock_row(app, 1, 1, LockMode.X)
        assert stack.service.session_count() == 1
        lock_client.close()
        # The server's reader notices the dead socket and cleans up.
        assert wait_until(lambda: stack.service.session_count() == 0)
        assert wait_until(lambda: stack.chain.used_slots == 0)


class TestPipelining:
    def test_concurrent_threads_on_a_small_pool(self, server):
        with LockClient(*server.address, pool_size=1) as lock_client:
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
        lock_client = LockClient(host, port, pool_size=1)
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


def _can_ping(lock_client: LockClient) -> bool:
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
        with LockClient(host, port) as lock_client:
            lock_client.ping()

    def test_no_reply_ordering(self, server, stack):
        # A fire-and-forget release_all is ordered before the next
        # request on the same stream: the lock must be free by the
        # time a second session asks for it.
        with LockClient(*server.address, pool_size=1) as lock_client:
            app = lock_client.open_session()
            lock_client.lock_row(app, 1, 1, LockMode.X)
            conn = lock_client._session_conn(app)
            conn.send_only(wire.encode_release_all(0, app, no_reply=True))
            other = lock_client.open_session()
            lock_client.lock_row(other, 1, 1, LockMode.X, timeout_s=0.5)


class TestUnixDomain:
    def test_uds_roundtrip(self, stack, tmp_path):
        sock_path = str(tmp_path / "svc.sock")
        server = serve_service(stack.service, path=sock_path)
        try:
            with NetClientStack(*server.address, pool_size=1) as net:
                assert net.service.host.startswith("unix:")
                with net.service.session() as app:
                    net.service.lock_row(app, 1, 1, LockMode.X)
                net.service.ping()
        finally:
            server.stop()


def _raw_lock_row(address, app_id, *, open_first=False):
    """Send one LOCK_ROW frame on a fresh raw connection.

    With ``open_first`` an OPEN_SESSION frame precedes it and the
    LOCK_ROW uses the id the server answered with.  Returns (the
    LOCK_ROW response, the session id used, the still-open socket).
    """
    sock = socket.create_connection(address, timeout=5.0)
    decoder = wire.FrameDecoder()

    def exchange(frame: bytes) -> wire.Response:
        sock.sendall(frame)
        while True:
            payloads = wire.split_frames(sock.recv(4096), decoder)
            if payloads:
                return wire.decode_response(payloads[0])

    if open_first:
        app_id = exchange(wire.encode_frame(wire.encode_open_session(1))).value
    resp = exchange(
        wire.pack_lock_row_frame(2, app_id, 3, 7, wire.MODE_TO_WIRE[LockMode.X])
    )
    return resp, app_id, sock


class TestInlineFastPathValidatesTheSession:
    """The server's inline immediate-grant path takes the session id
    from the frame; it must make lock_row's registry checks itself."""

    def test_unopened_session_gets_an_error_and_no_locks(self, stack):
        server = serve_service(stack.service)
        try:
            resp, _app, sock = _raw_lock_row(server.address, 424242)
            with sock:
                assert not resp.ok
                assert wire.ERROR_CODES[resp.error_code] is wire.ServiceError
                assert "424242 is not open" in resp.error_message
                assert stack.chain.used_slots == 0
            # Nothing was granted, so nothing is left after disconnect.
            assert stack.chain.used_slots == 0
            assert stack.service.stats.granted == 0
        finally:
            server.stop()

    def test_opened_session_still_takes_the_fast_grant(self, stack):
        server = serve_service(stack.service)
        try:
            resp, app, sock = _raw_lock_row(server.address, 0, open_first=True)
            with sock:
                assert resp.ok and resp.value == 1
                assert stack.chain.used_slots == 2  # intent + row
                assert stack.service.manager.app_slots(app) == 2
            # The connection owned the session: disconnect releases it.
            assert wait_until(lambda: stack.chain.used_slots == 0)
        finally:
            server.stop()


class TestPrevalidatedEntryStaysCheckFree:
    def test_facade_entry_skips_the_registry(self, stack):
        # The sharded facade vouches for the id, so the shard-level
        # entry grants without consulting its own registry ...
        service = stack.service
        assert service.lock_row_uncontended(77, 1, 1, LockMode.X) is True
        assert service.manager.app_slots(77) == 2
        service.manager.release_all(77)
        # ... while the checked entry refuses the very same id.
        with pytest.raises(wire.ServiceError, match="77 is not open"):
            service.try_lock_row(77, 1, 1, LockMode.X)
        assert stack.chain.used_slots == 0
