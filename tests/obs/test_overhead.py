"""The overhead contract: disabled telemetry does no telemetry work.

Every probe site in the lock manager must cost exactly one ``is None``
check when telemetry is off -- no event formatting, no histogram or
counter arithmetic.  These tests enforce it by counting instrument
entry points during identical contended runs with telemetry disabled
(all counts must stay zero) and enabled (they must not).
"""

import sys
import threading
import time

import pytest

from repro.lockmgr.modes import LockMode
from repro.lockmgr.tracing import LockTrace
from repro.net.client import RoutedLockClient
from repro.net.server import ServiceBackend, ThreadedLockServer, serve_service
from repro.obs.events import RunTelemetry
from repro.obs.prometheus import render_prometheus
from repro.obs.registry import Counter, Histogram
from repro.obs.tracing import RequestTracer
from repro.service.sharded import ShardedServiceConfig, ShardedServiceStack
from repro.service.stack import ServiceConfig, ServiceStack
from repro.service.telemetry import service_telemetry
from repro.service.top import parse_prometheus
from repro.service.workers import WorkerPoolConfig, WorkerPoolStack

from tests.conftest import make_database


@pytest.fixture
def instrument_calls(monkeypatch):
    """Count every LockTrace.emit / Histogram.observe / Counter.inc."""
    calls = {"emit": 0, "observe": 0, "inc": 0}
    original_emit = LockTrace.emit
    original_observe = Histogram.observe
    original_inc = Counter.inc

    def counting_emit(self, *args, **kwargs):
        calls["emit"] += 1
        return original_emit(self, *args, **kwargs)

    def counting_observe(self, value):
        calls["observe"] += 1
        return original_observe(self, value)

    def counting_inc(self, amount=1.0):
        calls["inc"] += 1
        return original_inc(self, amount)

    monkeypatch.setattr(LockTrace, "emit", counting_emit)
    monkeypatch.setattr(Histogram, "observe", counting_observe)
    monkeypatch.setattr(Counter, "inc", counting_inc)
    return calls


@pytest.fixture
def observed(monkeypatch):
    """The base name of the histogram each Histogram.observe call fed."""
    names = []
    original_observe = Histogram.observe

    def naming_observe(self, value):
        names.append(self.base_name)
        return original_observe(self, value)

    monkeypatch.setattr(Histogram, "observe", naming_observe)
    return names


def contended_run(db):
    """Exercise grant, wait, release and deadlock paths deterministically."""
    env, manager = db.env, db.lock_manager

    def holder():
        yield from manager.lock_row(101, 0, 5, LockMode.X)
        yield env.timeout(3)
        manager.release_all(101)

    def waiter():
        yield env.timeout(1)
        yield from manager.lock_row(102, 0, 5, LockMode.X)
        manager.release_all(102)

    def scanner():
        for row in range(50):
            yield from manager.lock_row(103, 1, row, LockMode.S)
        manager.release_all(103)

    env.process(holder())
    env.process(waiter())
    env.process(scanner())
    db.run(until=20)


class TestOverheadContract:
    def test_disabled_run_never_touches_instruments(self, instrument_calls):
        db = make_database(seed=5)
        contended_run(db)
        stats = db.lock_manager.stats
        assert stats.requests > 0
        assert stats.waits > 0  # the guarded wait paths actually ran
        assert instrument_calls == {"emit": 0, "observe": 0, "inc": 0}

    def test_enabled_companion_run_records(self, instrument_calls):
        db = make_database(seed=5)
        db.enable_telemetry()
        contended_run(db)
        assert instrument_calls["emit"] > 0
        assert instrument_calls["observe"] > 0  # the wait fed the histogram
        waits = db.lock_manager.obs.wait_latency
        assert waits.count == db.lock_manager.stats.waits

    def test_default_state_is_disabled(self):
        db = make_database(seed=5)
        assert db.lock_manager.tracer is None
        assert db.lock_manager.obs is None
        assert db.obs_registry is None


class TestTracingOverheadContract:
    """Request tracing off costs exactly one ``is None`` check.

    Traced or not, ``lock_row`` is one body -- the routed client's and
    the in-process ``LockService``'s alike; the only tracing code an
    untraced one runs in it is the ``tracer is None`` branch: no
    sampling arithmetic, no trace tail, no hop bookkeeping.
    Enforced the same way as the lock-manager contract -- count the
    tracer's two entry points (``maybe_trace`` samples, ``finish``
    lands the hops) across identical request runs with tracing off
    (zero) and on (nonzero).
    """

    @pytest.fixture
    def tracing_calls(self, monkeypatch):
        calls = {"maybe_trace": 0, "finish": 0}
        original_maybe = RequestTracer.maybe_trace
        original_finish = RequestTracer.finish

        def counting_maybe(self):
            calls["maybe_trace"] += 1
            return original_maybe(self)

        def counting_finish(self, *args, **kwargs):
            calls["finish"] += 1
            return original_finish(self, *args, **kwargs)

        monkeypatch.setattr(RequestTracer, "maybe_trace", counting_maybe)
        monkeypatch.setattr(RequestTracer, "finish", counting_finish)
        return calls

    def request_run(self, sock_path, tracer):
        config = ServiceConfig(
            total_memory_pages=8192,
            initial_locklist_pages=128,
            tuner_interval_s=0.05,
            max_in_flight=16,
            admission_queue_depth=64,
        )
        with ServiceStack(config) as stack:
            server = ThreadedLockServer(
                ServiceBackend(stack.service), path=str(sock_path)
            )
            server.start()
            client = RoutedLockClient(
                [server.address], pool_size=1, tracer=tracer
            )
            try:
                app = client.open_session()
                for row in range(8):
                    client.lock_row(app, 0, row, LockMode.X)
                client.close_session(app)
            finally:
                client.close()
                server.stop()

    def in_process_run(self, trace_sample_every):
        config = ServiceConfig(
            total_memory_pages=8192,
            initial_locklist_pages=128,
            tuner_interval_s=30.0,
            trace_sample_every=trace_sample_every,
        )
        with ServiceStack(config) as stack:
            with stack.service.session() as app:
                for row in range(8):
                    stack.service.lock_row(app, 0, row, LockMode.X)
        return stack

    def test_untraced_service_never_enters_tracing_code(self, tracing_calls):
        stack = self.in_process_run(trace_sample_every=0)
        assert stack.service.tracer is None
        assert stack.service.stats.requests == 8
        assert tracing_calls == {"maybe_trace": 0, "finish": 0}

    def test_traced_service_companion_run_does(self, tracing_calls):
        stack = self.in_process_run(trace_sample_every=2)
        assert stack.service.tracer is stack.request_tracers[0]
        assert tracing_calls == {"maybe_trace": 8, "finish": 4}

    def test_untraced_client_never_enters_tracing_code(
        self, tmp_path, tracing_calls
    ):
        self.request_run(tmp_path / "w0.sock", tracer=None)
        assert tracing_calls == {"maybe_trace": 0, "finish": 0}

    def test_traced_companion_run_does(self, tmp_path, tracing_calls):
        self.request_run(tmp_path / "w0.sock", tracer=RequestTracer(2))
        assert tracing_calls["maybe_trace"] == 8
        assert tracing_calls["finish"] == 4  # every 2nd request


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestNoDuplicateRequestCounters:
    """An untraced plain LOCK_ROW bumps no counter, in process or over
    the wire.  ``service.requests`` and ``net.responses`` read the counts
    the request paths keep anyway (``ServiceStats.requests``, the
    server's responses written), and read them identically wherever a
    registry is read: ``counters()``, ``snapshot()``, the Prometheus
    render, the worker ``metrics`` pull and a telemetry JSONL round
    trip."""

    CONFIG = dict(
        total_memory_pages=8192,
        initial_locklist_pages=128,
        tuner_interval_s=30.0,  # no tuning pass (and its counter) mid-test
    )

    def test_in_process_lock_row_bumps_no_counter(self, instrument_calls):
        with ServiceStack(ServiceConfig(**self.CONFIG)) as stack:
            service = stack.service
            with service.session() as app:
                instrument_calls["inc"] = instrument_calls["observe"] = 0
                for row in range(8):
                    service.lock_row(app, 0, row, LockMode.X)
                # The latency buckets are written under the service
                # mutex: no Histogram.observe (and its lock) per grant.
                assert instrument_calls["inc"] == instrument_calls["observe"] == 0
            counters = {c.name: c.value for c in stack.metrics.counters()}
            assert counters["service.requests"] == service.stats.requests == 8
            dump = parse_prometheus(render_prometheus(stack.metrics))
            assert dump["service_request_latency_s_count"][()] == 8

    def test_wire_lock_row_bumps_no_counter_and_views_read_through(
        self, tmp_path, instrument_calls, observed
    ):
        with ServiceStack(ServiceConfig(**self.CONFIG)) as stack:
            registry = stack.metrics
            server = serve_service(
                stack.service, path=str(tmp_path / "s.sock"), metrics=registry
            )
            client = RoutedLockClient([server.address], metrics=registry)
            try:
                app = client.open_session()
                instrument_calls["inc"] = 0
                observed.clear()
                for row in range(8):
                    client.lock_row(app, 0, row, LockMode.X, timeout_s=1.0)
                assert instrument_calls["inc"] == 0
                # An untraced lock_row reads no clock: the client's
                # latency histogram is fed by sampled requests only.
                assert observed == []
                client.close_session(app)
                # The id-block reservation (open_session's only round
                # trip, once per block) + 8 grants + close; the count is
                # bumped after the reply's sendall returns, so the client
                # can be faster.
                assert wait_until(lambda: server.responses_written == 10)
            finally:
                client.close()
                server.stop()
            requests = stack.service.stats.requests
            assert requests == 8
            counters = {c.name: c.value for c in registry.counters()}
            assert counters["service.requests"] == requests
            assert counters["net.responses"] == server.responses_written
            snapshot = registry.snapshot()["counters"]
            assert snapshot["service.requests"] == requests
            assert snapshot["net.responses"] == 10
            text = render_prometheus(registry).splitlines()
            assert f"service_requests_total {requests}" in text
            assert "net_responses_total 10" in text
            assert f"service_request_latency_s_count {requests}" in text
            path = tmp_path / "run.jsonl"
            service_telemetry(stack, label="views").write_jsonl(str(path))
            loaded = RunTelemetry.from_jsonl(str(path)).registry
            assert loaded.counter("service.requests").value == requests
            assert loaded.counter("net.responses").value == 10

    def test_a_sampled_wire_lock_row_observes_once(
        self, tmp_path, instrument_calls, observed
    ):
        with ServiceStack(ServiceConfig(**self.CONFIG)) as stack:
            registry = stack.metrics
            server = serve_service(stack.service, path=str(tmp_path / "s.sock"))
            client = RoutedLockClient(
                [server.address], metrics=registry, tracer=RequestTracer(2)
            )
            try:
                app = client.open_session()
                observed.clear()
                for row in range(8):
                    client.lock_row(app, 0, row, LockMode.X, timeout_s=1.0)
                client.close_session(app)
            finally:
                client.close()
                server.stop()
        # Every second request is sampled, and each observes once.
        assert observed == ["net.client.request_latency_s"] * 4
        (latency,) = [
            h for h in registry.histograms()
            if h.base_name == "net.client.request_latency_s"
        ]
        assert latency.count == 4

    def test_worker_metrics_pull_reads_through(self):
        config = WorkerPoolConfig(workers=1, **self.CONFIG)
        with WorkerPoolStack(config) as pool:
            with pool.client_stack() as net:
                with net.service.session() as app:
                    for row in range(4):
                        net.service.lock_row(app, 0, row, LockMode.S)
                (stats,) = net.service.stats()
            (part,) = pool.partitions
            # id-block reservation + 4 grants (the first one opens the
            # session) + stats; the scope's release is no-reply
            assert wait_until(lambda: part.occupancy()["responses"] == 6)
            pulled = part.call("metrics")
            counters = pulled["counters"]
            assert counters["service.requests"] == stats["service"]["requests"] == 4
            assert counters["net.responses"] == 6
            assert pulled["histograms"]["service.request_latency_s"]["count"] == 4
            pool.publish_ops_metrics()
            merged = pool.metrics
            assert merged.counter('service.requests{worker="0"}').value == 4
            assert merged.counter('net.responses{worker="0"}').value == 6
            dump = parse_prometheus(render_prometheus(merged))
            assert dump["service_request_latency_s_count"][(("worker", "0"),)] == 4


class TestLatencySnapshots:
    """``service.request_latency_s`` is written under the service mutex
    the request already holds, and every read takes that mutex too: a
    ``/metrics`` render racing the request path never shows a torn
    histogram (``count`` equal to the sum of its buckets, i.e. to its
    ``+Inf`` bucket), on every topology."""

    CONFIG = TestNoDuplicateRequestCounters.CONFIG
    GRANTS = 400

    def scrapes_while_granting(self, service, scrape):
        """Grant ``GRANTS`` row locks on ``service`` while another thread
        scrapes; returns every scrape, the last one taken after."""
        stop = threading.Event()
        scrapes = []

        def scraper():
            while not stop.is_set():
                scrapes.append(parse_prometheus(scrape()))

        thread = threading.Thread(target=scraper, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            thread.start()
            for _ in range(self.GRANTS // 4):
                with service.session() as app:
                    for row in range(4):
                        service.lock_row(app, 0, row, LockMode.X)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            thread.join(timeout=10)
        assert not thread.is_alive()
        return scrapes + [parse_prometheus(scrape())]

    def assert_untorn(self, scrapes):
        assert len(scrapes) > 1
        for dump in scrapes:
            counts = dump["service_request_latency_s_count"]
            infinity = {
                tuple(pair for pair in labels if pair[0] != "le"): value
                for labels, value in dump["service_request_latency_s_bucket"].items()
                if ("le", "+Inf") in labels
            }
            assert infinity == counts
        assert sum(scrapes[-1]["service_request_latency_s_count"].values()) == (
            self.GRANTS
        )

    @staticmethod
    def render(stack):
        stack.publish_ops_metrics()  # what the ops server runs per scrape
        return render_prometheus(stack.metrics)

    def test_a_scrape_waits_for_the_service_mutex(self):
        """What makes the renders below untorn (a racing render tears
        only rarely, so they alone would not show a missing lock)."""
        with ServiceStack(ServiceConfig(**self.CONFIG)) as stack:
            rendered = threading.Event()

            def scrape():
                render_prometheus(stack.metrics)
                rendered.set()

            scraper = threading.Thread(target=scrape, daemon=True)
            with stack.service._mutex:
                scraper.start()
                assert not rendered.wait(0.2)
            scraper.join(timeout=10)
            assert rendered.is_set()

    def test_unsharded(self):
        with ServiceStack(ServiceConfig(**self.CONFIG)) as stack:
            scrapes = self.scrapes_while_granting(
                stack.service, lambda: self.render(stack)
            )
        self.assert_untorn(scrapes)

    def test_two_shards(self):
        config = ShardedServiceConfig(shards=2, **self.CONFIG)
        with ShardedServiceStack(config) as stack:
            scrapes = self.scrapes_while_granting(
                stack.service, lambda: self.render(stack)
            )
        assert set(scrapes[-1]["service_request_latency_s_count"]) == {
            (("shard", "0"),), (("shard", "1"),)
        }
        self.assert_untorn(scrapes)

    def test_worker_metrics_pull(self):
        config = WorkerPoolConfig(workers=1, **self.CONFIG)
        with WorkerPoolStack(config) as pool:
            with pool.client_stack() as net:
                scrapes = self.scrapes_while_granting(
                    net.service, lambda: self.render(pool)
                )
        self.assert_untorn(scrapes)
