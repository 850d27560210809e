"""The live ops plane: /metrics, /healthz and /stmm over real HTTP.

Both stack shapes serve the same three endpoints from an embedded
stdlib HTTP server on an ephemeral loopback port.  These tests scrape
them for real -- no timing gates, just state that is already settled
before the scrape.
"""

import json
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.lockmgr.modes import LockMode
from repro.service.ops import PROMETHEUS_CONTENT_TYPE, OpsServer
from repro.service.sharded import ShardedServiceConfig, ShardedServiceStack
from repro.service.stack import ServiceConfig, ServiceStack
from repro.service.top import (
    parse_prometheus,
    percentile_from_buckets,
    render_frame,
    run_top,
)


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


def make_stack(**overrides):
    defaults = dict(
        total_memory_pages=8_192,
        initial_locklist_pages=32,
        tuner_interval_s=30.0,
        ops_port=0,
        trace_sample_every=1,
    )
    defaults.update(overrides)
    return ServiceStack(ServiceConfig(**defaults))


def make_sharded(**overrides):
    defaults = dict(
        total_memory_pages=8_192,
        initial_locklist_pages=64,
        tuner_interval_s=30.0,
        shards=2,
        ops_port=0,
        trace_sample_every=1,
    )
    defaults.update(overrides)
    return ShardedServiceStack(ShardedServiceConfig(**defaults))


class TestConfig:
    def test_negative_ops_port_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(ops_port=-1)

    def test_no_ops_port_no_server(self):
        stack = make_stack(ops_port=None, trace_sample_every=0)
        assert stack.ops is None
        with stack:
            pass

    def test_disabled_plane_installs_no_sampler(self):
        stack = make_stack(ops_port=None, trace_sample_every=0)
        assert stack.service.tracer is None
        assert stack.request_tracers == []


class TestUnshardedEndpoints:
    def test_metrics_healthz_stmm(self):
        stack = make_stack()
        with stack:
            with stack.service.session() as app:
                stack.service.lock_row(app, 0, 1, LockMode.X)
                stack.service.rollback(app)
            stack.tuner.tune_now()
            base = stack.ops.url

            status, ctype, body = _get(base + "/metrics")
            assert status == 200
            assert ctype == PROMETHEUS_CONTENT_TYPE
            dump = parse_prometheus(body.decode())
            assert dump["service_requests_total"][()] == 1.0
            assert dump["service_locklist_pages"][()] > 0
            assert "service_request_latency_s_bucket" in dump

            status, ctype, body = _get(base + "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["ok"] is True
            assert health["tuner"]["alive"] is True
            assert health["tuner"]["frozen"] is False
            assert health["shards"] == 1

            status, ctype, body = _get(base + "/stmm")
            assert status == 200
            assert ctype.startswith("application/json")
            stmm = json.loads(body)
            assert stmm["intervals"] == 1
            assert [a["reason"] for a in stmm["audit"]] == (
                stack.tuner.audit.reasons()
            )
            assert stmm["locklist_pages"] == stack.chain.allocated_pages
            assert stmm["frozen_reason"] is None
            assert "spans" not in stmm

            _, _, body = _get(base + "/traces")
            traces = json.loads(body)
            assert traces["enabled"] is True and traces["total"] == 1
            (trace,) = traces["traces"]
            assert trace["mode"] == "X" and trace["outcome"] == "ok"
            assert list(trace["hops"]) == ["server.lock_wait"]

    def test_unknown_path_is_404(self):
        stack = make_stack()
        with stack:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(stack.ops.url + "/nope")
            assert err.value.code == 404

    def test_healthz_degrades_after_tuner_freeze(self):
        stack = make_stack()
        with stack:
            def bomb():
                raise RuntimeError("boom")

            stack.controller.compute_target_pages = bomb
            with pytest.raises(RuntimeError):
                stack.tuner.tune_now()
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(stack.ops.url + "/healthz")
            assert err.value.code == 503
            health = json.loads(err.value.read())
            assert health["ok"] is False
            assert health["tuner"]["frozen"] is True
            assert "boom" in health["tuner"]["crash"]
            # /stmm still answers, ending with the freeze record.
            _, _, body = _get(stack.ops.url + "/stmm")
            stmm = json.loads(body)
            assert stmm["audit"][-1]["reason"] == "freeze"
            assert stmm["frozen_reason"] is not None

    def test_server_stops_with_stack(self):
        stack = make_stack()
        with stack:
            url = stack.ops.url
            assert stack.ops.running
        assert not stack.ops.running
        with pytest.raises(OSError):
            _get(url + "/healthz")


class TestShardedEndpoints:
    def test_per_shard_labels_on_metrics(self):
        stack = make_sharded(shards=2)
        with stack:
            with stack.service.session() as app:
                for row in range(8):
                    stack.service.lock_row(app, 0, row, LockMode.S)
                    stack.service.lock_row(app, 1, row, LockMode.S)
                stack.service.rollback(app)
            _, _, body = _get(stack.ops.url + "/metrics")
            dump = parse_prometheus(body.decode())
            requests = dump["service_requests_total"]
            for shard in ("0", "1"):
                assert (("shard", shard),) in requests, (
                    f"missing shard={shard} series: {sorted(requests)}"
                )
            assert sum(requests.values()) == 16.0
            occupancy = dump["shard_used_slots"]
            assert (("shard", "0"),) in occupancy
            assert (("shard", "1"),) in occupancy
            latency = dump["service_request_latency_s_count"]
            assert sum(latency.values()) == 16.0
            _, _, body = _get(stack.ops.url + "/traces")
            traces = json.loads(body)
            assert traces["total"] == 16
            assert {tr["worker"] for tr in traces["traces"]} == {0, 1}

    def test_sharded_healthz_lists_shards(self):
        stack = make_sharded(shards=3, initial_locklist_pages=96)
        with stack:
            status, _, body = _get(stack.ops.url + "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["ok"] is True
            assert health["shards"] == 3
            assert [s["shard"] for s in health["shard_status"]] == [0, 1, 2]
            assert all(s["open"] for s in health["shard_status"])
            assert health["detector"]["alive"] is True

    def test_sharded_stmm_audit(self):
        stack = make_sharded()
        with stack:
            stack.tuner.tune_now()
            _, _, body = _get(stack.ops.url + "/stmm")
            stmm = json.loads(body)
            assert stmm["intervals"] == 1
            assert len(stmm["audit"]) == 1
            assert stmm["audit"][0]["reason"] in (
                "grow-async", "shrink-5pct",
                "double-escalation-recovery", "noop",
            )


class TestOpsServerUnit:
    def test_handler_error_returns_500(self):
        from repro.obs.registry import MetricRegistry

        def broken_health():
            raise RuntimeError("health probe bug")

        server = OpsServer(
            MetricRegistry(),
            health=broken_health,
            stmm_status=lambda: {},
        )
        server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/healthz")
            assert err.value.code == 500
            payload = json.loads(err.value.read())
            assert "health probe bug" in payload["error"]
        finally:
            server.stop()

    def test_double_start_rejected(self):
        from repro.obs.registry import MetricRegistry

        server = OpsServer(
            MetricRegistry(), health=lambda: {"ok": True},
            stmm_status=lambda: {},
        )
        from repro.errors import ServiceError

        with server:
            with pytest.raises(ServiceError):
                server.start()
        assert not server.running


class TestTopDashboard:
    def test_percentile_from_buckets(self):
        buckets = [(0.1, 50.0), (1.0, 90.0), (float("inf"), 100.0)]
        assert percentile_from_buckets(buckets, 0.5) == pytest.approx(0.1)
        p99 = percentile_from_buckets(buckets, 0.99)
        assert p99 == pytest.approx(1.0)  # +Inf bucket -> prev bound
        assert percentile_from_buckets([], 0.5) is None

    def test_render_frame_shows_shards_and_audit(self):
        stack = make_sharded(shards=2)
        with stack:
            with stack.service.session() as app:
                for row in range(8):
                    stack.service.lock_row(app, 0, row, LockMode.S)
                stack.service.rollback(app)
            stack.tuner.tune_now()
            _, _, body = _get(stack.ops.url + "/metrics")
            metrics = parse_prometheus(body.decode())
            _, _, body = _get(stack.ops.url + "/stmm")
            stmm = json.loads(body)
        frame = render_frame(metrics, stmm)
        assert "LOCKLIST" in frame
        assert "shard" in frame
        assert " 0 " in frame and " 1 " in frame
        assert "audit" in frame

    def test_run_top_single_frame(self, capsys):
        stack = make_stack()
        with stack:
            rc = run_top(
                stack.ops.url, interval_s=0.0, frames=1, clear=False
            )
        assert rc == 0
        out = capsys.readouterr().out
        assert "LOCKLIST" in out

    def test_run_top_unreachable_returns_error(self, capsys):
        assert run_top("http://127.0.0.1:9", frames=1) == 1
        assert "unreachable" in capsys.readouterr().err.lower()


class TestIncidentsEndpoint:
    def test_incidents_served_after_live_deadlock(self):
        import threading

        from repro.errors import DeadlockError
        from tests.service.sched import wait_until

        stack = make_stack(wait_profile=True)
        with stack:
            service = stack.service
            a, b = service.open_session(), service.open_session()
            service.lock_row(a, 0, 1, LockMode.X)
            service.lock_row(b, 0, 2, LockMode.X)
            blocked = threading.Thread(
                target=service.lock_row, args=(a, 0, 2, LockMode.X),
                daemon=True,
            )
            blocked.start()
            wait_until(
                lambda: a in service.waiting_sessions(),
                what="session a parked behind b",
            )
            with pytest.raises(DeadlockError):
                service.lock_row(b, 0, 1, LockMode.X)
            service.rollback(b)
            blocked.join(10.0)
            service.rollback(a)

            status, ctype, body = _get(stack.ops.url + "/incidents")
            assert status == 200
            assert ctype.startswith("application/json")
            payload = json.loads(body)
            assert set(payload) == {"total", "counts", "incidents"}
            assert payload["total"] == 1
            assert payload["counts"]["deadlock"] == 1
            (incident,) = payload["incidents"]
            assert incident["kind"] == "deadlock"
            assert set(incident["cycle"]) == {a, b}

            # /stmm carries the controller constants and wait classes.
            _, _, body = _get(stack.ops.url + "/stmm")
            stmm = json.loads(body)
            params = stmm["params"]
            cfg = stack.config.params
            assert params["c1_overflow_fraction"] == cfg.c1_overflow_fraction
            assert params["min_free_fraction"] == cfg.min_free_fraction
            assert params["max_free_fraction"] == cfg.max_free_fraction
            assert params["delta_reduce"] == cfg.delta_reduce
            assert params["interval_s"] == 30.0
            assert stmm["incident_total"] == 1
            assert stmm["wait_classes"]["lock.granted"]["count"] >= 1

            # The finished contended wait is a non-zero wait-class
            # histogram on /metrics too, not only the pre-created zeros.
            _, _, body = _get(stack.ops.url + "/metrics")
            waits = parse_prometheus(body.decode())["service_wait_seconds_count"]
            assert waits[(("class", "lock.granted"),)] >= 1.0

            service.close_session(a)
            service.close_session(b)

    def test_incidents_404_when_not_wired(self):
        from repro.obs.registry import MetricRegistry

        server = OpsServer(
            MetricRegistry(), health=lambda: {"ok": True},
            stmm_status=lambda: {},
        )
        with server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/incidents")
            assert err.value.code == 404

    def test_wait_classes_null_when_profiler_off(self):
        stack = make_stack()  # wait_profile defaults off
        with stack:
            _, _, body = _get(stack.ops.url + "/stmm")
            stmm = json.loads(body)
            assert stmm["wait_classes"] is None
            assert stmm["incident_total"] == 0

    def test_sharded_incidents_and_latch_series(self):
        stack = make_sharded(wait_profile=True)
        with stack:
            with stack.service.session() as app:
                for row in range(8):
                    stack.service.lock_row(app, 0, row, LockMode.S)
                stack.service.rollback(app)
            stack.publish_ops_metrics()
            _, _, body = _get(stack.ops.url + "/metrics")
            dump = parse_prometheus(body.decode())
            # Per-shard latch gauges are published with shard labels.
            shards = {
                dict(labels).get("shard")
                for labels in dump["latch_gets"]
            }
            assert shards >= {"0", "1"}
            status, _, body = _get(stack.ops.url + "/incidents")
            assert status == 200
            payload = json.loads(body)
            assert payload["incidents"] == []
            assert payload["total"] == 0


class TestTopWaitColumns:
    def test_frame_shows_wait_column_and_incidents(self):
        stack = make_stack(wait_profile=True)
        with stack:
            with stack.service.session() as app:
                stack.service.lock_row(app, 0, 1, LockMode.X)
                stack.service.rollback(app)
            _, _, body = _get(stack.ops.url + "/metrics")
            metrics = parse_prometheus(body.decode())
            _, _, body = _get(stack.ops.url + "/stmm")
            stmm = json.loads(body)
        frame = render_frame(metrics, stmm)
        assert "wait s" in frame
        assert "incidents: 0" in frame

    def test_frame_dashes_when_series_absent(self):
        from repro.service.top import shard_summary

        # Nothing served, no wait profiler: latency and wait columns
        # must show "-", not fabricated zeros.
        stack = make_stack(trace_sample_every=0, wait_profile=False)
        with stack:
            _, _, body = _get(stack.ops.url + "/metrics")
            metrics = parse_prometheus(body.decode())
            _, _, body = _get(stack.ops.url + "/stmm")
            stmm = json.loads(body)
        row = shard_summary(metrics, None)
        assert row["wait_s"] is None
        frame = render_frame(metrics, stmm)
        shard_line = next(
            line for line in frame.splitlines() if line.startswith("  all")
        )
        assert "-" in shard_line

    def test_run_top_json_frames(self, capsys):
        stack = make_stack(wait_profile=True)
        with stack:
            with stack.service.session() as app:
                stack.service.lock_row(app, 0, 1, LockMode.X)
                stack.service.rollback(app)
            rc = run_top(
                stack.ops.url, interval_s=0.0, frames=2,
                clear=False, as_json=True,
            )
        assert rc == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line
        ]
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["locklist_pages"] == stack.chain.allocated_pages
        assert first["incident_total"] == 0
        assert first["shards"][0]["requests"] == 1.0
        assert "wait_classes" in first
        second = json.loads(lines[1])
        assert second["shards"][0]["rate"] is not None
