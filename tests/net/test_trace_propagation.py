"""Trace-context propagation across the awkward client lifecycles.

The happy path (sampled requests through a one- and a two-worker
pool) is covered by ``tests/obs/test_tracing.py``; these tests pin the
two lifecycles where a trace could plausibly be double-counted or
silently dropped:

* **reconnect after a server restart** -- the in-flight traced request
  fails with the socket, the next one rides a fresh connection; every
  sampled request must land exactly one finished trace (the failure
  with its error outcome, the retry with full hops), never zero, never
  two;
* **session adoption** (``OP_ADOPT_SESSION``) -- the first touch of a
  table owned by a non-home worker sends an adoption request *before*
  the traced lock request.  Adoption must not consume a trace sample,
  must not add hops to the following trace, and the adopted worker's
  server ring must carry the child span.
"""

import time

import pytest

from repro.lockmgr.modes import LockMode
from repro.net.client import ConnectionLostError, RoutedLockClient
from repro.net.server import ServiceBackend, ThreadedLockServer
from repro.obs.tracing import HOP_NAMES, RequestTracer, ServerTracer
from repro.service.stack import ServiceConfig, ServiceStack


def small_config() -> ServiceConfig:
    return ServiceConfig(
        total_memory_pages=8192,
        initial_locklist_pages=128,
        tuner_interval_s=0.05,
        max_in_flight=16,
        admission_queue_depth=64,
    )


def traced_server(stack, sock_path: str):
    """A threaded server over ``stack.service`` with a span ring."""
    tracer = ServerTracer()
    server = ThreadedLockServer(
        ServiceBackend(stack.service, tracer=tracer), path=sock_path
    )
    server.start()
    return server, tracer


def assert_complete(trace: dict) -> None:
    """All seven hops present, disjoint, summing to the total."""
    assert set(trace["hops"]) == set(HOP_NAMES), trace
    hop_sum = sum(trace["hops"].values())
    assert trace["total_s"] > 0, trace
    assert abs(hop_sum - trace["total_s"]) <= 0.10 * trace["total_s"], trace


class TestTraceAcrossRestart:
    def test_every_sampled_request_lands_exactly_one_trace(self, tmp_path):
        sock = str(tmp_path / "w0.sock")
        with ServiceStack(small_config()) as stack:
            first, _ = traced_server(stack, sock)
            tracer = RequestTracer(1)
            client = RoutedLockClient(
                [first.address], pool_size=1, tracer=tracer
            )
            try:
                app = client.open_session()
                client.lock_row(app, 0, 1, LockMode.X)
                assert tracer.finished == 1
                assert_complete(tracer.to_dicts()[-1])

                first.stop()
                # The in-flight traced request dies with the socket:
                # one finished trace with the error outcome, client-side
                # hops only -- counted once, not truncated, not doubled.
                with pytest.raises((ConnectionLostError, OSError)):
                    client.lock_row(app, 0, 2, LockMode.X)
                assert tracer.started == tracer.finished == 2
                assert tracer.truncated == 0
                failed = tracer.to_dicts()[-1]
                assert failed["outcome"] != "ok"
                assert set(failed["hops"]) < set(HOP_NAMES)

                second, second_ring = traced_server(stack, sock)
                try:
                    # A fresh session rides the reconnect; its sampled
                    # request traces end to end again, and the restarted
                    # server's ring carries the child span.
                    deadline = time.monotonic() + 10.0
                    while True:
                        try:
                            app2 = client.open_session()
                            break
                        except (ConnectionLostError, OSError):
                            assert time.monotonic() < deadline
                            time.sleep(0.05)
                    client.lock_row(app2, 0, 3, LockMode.X)
                    assert client.reconnects >= 1
                    assert tracer.started == tracer.finished == 3
                    assert tracer.truncated == 0
                    revived = tracer.to_dicts()[-1]
                    assert_complete(revived)
                    spans = second_ring.to_dicts()
                    assert [s["trace_id"] for s in spans] == [
                        revived["trace_id"]
                    ]
                finally:
                    second.stop()
            finally:
                client.close()

    def test_trace_ids_stay_unique_across_the_restart(self, tmp_path):
        sock = str(tmp_path / "w0.sock")
        with ServiceStack(small_config()) as stack:
            first, _ = traced_server(stack, sock)
            tracer = RequestTracer(1)
            client = RoutedLockClient(
                [first.address], pool_size=1, tracer=tracer
            )
            try:
                app = client.open_session()
                client.lock_row(app, 0, 1, LockMode.X)
                first.stop()
                second, _ = traced_server(stack, sock)
                try:
                    deadline = time.monotonic() + 10.0
                    while True:
                        try:
                            app2 = client.open_session()
                            break
                        except (ConnectionLostError, OSError):
                            assert time.monotonic() < deadline
                            time.sleep(0.05)
                    client.lock_row(app2, 0, 2, LockMode.X)
                    ids = [t["trace_id"] for t in tracer.to_dicts()]
                    assert len(ids) == len(set(ids))
                finally:
                    second.stop()
            finally:
                client.close()


class TestTraceAcrossAdoption:
    def test_adoption_neither_samples_nor_adds_hops(self, tmp_path):
        with ServiceStack(small_config()) as stack0, ServiceStack(
            small_config()
        ) as stack1:
            server0, ring0 = traced_server(stack0, str(tmp_path / "w0.sock"))
            server1, ring1 = traced_server(stack1, str(tmp_path / "w1.sock"))
            tracer = RequestTracer(1)
            client = RoutedLockClient(
                [server0.address, server1.address],
                pool_size=1,
                tracer=tracer,
            )
            try:
                app = client.open_session()  # home: worker 0
                # First touch of an odd table routes to worker 1 and
                # must adopt the session there first.  The adoption
                # round trip happens before the trace window opens.
                client.lock_row(app, 1, 1, LockMode.X)
                assert tracer.seen == 1  # open_session + adopt: unsampled
                assert tracer.finished == 1
                trace = tracer.to_dicts()[-1]
                assert trace["worker"] == 1
                assert_complete(trace)

                # The adopted worker recorded the child span; the home
                # worker (which only ever saw session ops) recorded none.
                assert ring0.recorded == 0
                spans = ring1.to_dicts()
                assert len(spans) == 1
                assert spans[0]["trace_id"] == trace["trace_id"]
                assert spans[0]["span_id"] == trace["span_id"] + 1

                # A second request on the adopted worker reuses the
                # adoption: exactly one more sample, one more span.
                client.lock_row(app, 1, 2, LockMode.X)
                assert tracer.finished == 2
                assert ring1.recorded == 2
                assert_complete(tracer.to_dicts()[-1])
                client.close_session(app)
            finally:
                client.close()
                server0.stop()
                server1.stop()

    def test_untraced_client_sends_untraced_frames_after_adoption(
        self, tmp_path
    ):
        # Control: without a tracer the same adoption path produces no
        # spans on either worker -- the extension is strictly opt-in.
        with ServiceStack(small_config()) as stack0, ServiceStack(
            small_config()
        ) as stack1:
            server0, ring0 = traced_server(stack0, str(tmp_path / "w0.sock"))
            server1, ring1 = traced_server(stack1, str(tmp_path / "w1.sock"))
            client = RoutedLockClient(
                [server0.address, server1.address], pool_size=1
            )
            try:
                app = client.open_session()
                client.lock_row(app, 1, 1, LockMode.X)
                client.close_session(app)
                assert ring0.recorded == 0
                assert ring1.recorded == 0
            finally:
                client.close()
                server0.stop()
                server1.stop()
