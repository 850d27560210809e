"""Unit contract for :mod:`repro.obs.tracing`.

The propagation tests in ``tests/net`` exercise the awkward wire
lifecycles; these tests pin the pure-Python surface -- sampling
arithmetic, ring bounds, the hop aggregations -- the schema-v5 JSONL
round trip plus the analyzer fields that
downstream tooling (``analyze``, ``top``, ``matrix``) reads, and the
one knob (``trace_sample_every``) landing the same record on every
topology ``build_stack`` can build.
"""

import itertools
import json
import re
import urllib.request

import pytest

from repro.analysis.waitprofile import analyze_run
from repro.lockmgr.modes import LockMode
from repro.net.client import RoutedLockClient
from repro.net.server import serve_service
from repro.obs.events import SCHEMA_VERSION, RunTelemetry, load_runs
from repro.obs.tracing import (
    HOP_NAMES,
    LOCK_HOPS,
    NET_HOPS,
    RequestTracer,
    ServerTracer,
    TraceContext,
    hop_percentiles,
    wire_tax,
    wire_tax_summary,
)
from repro.service.cli import main as cli_main
from repro.service.ops import empty_traces_payload
from repro.service.stack import build_stack
from repro.service.telemetry import service_telemetry


def fake_clock(start: float = 100.0, step: float = 0.25):
    return itertools.count(start, step).__next__


HOPS = {
    "client.encode": 0.001,
    "client.net_wait": 0.004,
    "server.dispatch": 0.002,
    "server.lock_wait": 0.010,
    "server.executor_park": 0.001,
    "server.reply_encode": 0.001,
    "client.decode": 0.001,
}


class TestVocabulary:
    def test_hop_names_partition(self):
        assert set(NET_HOPS) | LOCK_HOPS == set(HOP_NAMES)
        assert set(NET_HOPS) & LOCK_HOPS == set()

    def test_wire_tax_is_net_fraction(self):
        net = sum(HOPS[h] for h in NET_HOPS)
        assert wire_tax(HOPS) == pytest.approx(net / sum(HOPS.values()))

    def test_wire_tax_empty_and_zero(self):
        assert wire_tax({}) == 0.0
        assert wire_tax({h: 0.0 for h in HOP_NAMES}) == 0.0


class TestTraceContext:
    def test_child_increments_span_only(self):
        ctx = TraceContext(trace_id=7, span_id=1)
        child = ctx.child()
        assert (child.trace_id, child.span_id) == (7, 2)
        assert child.sampled is ctx.sampled is True


class TestRequestTracer:
    def test_rejects_bad_ctor_args(self):
        with pytest.raises(ValueError):
            RequestTracer(0)
        with pytest.raises(ValueError):
            RequestTracer(-3)
        with pytest.raises(ValueError):
            RequestTracer(1, capacity=0)

    def test_samples_every_nth(self):
        tracer = RequestTracer(4, clock=fake_clock(), origin=0)
        hits = [tracer.maybe_trace() for _ in range(12)]
        sampled = [i for i, ctx in enumerate(hits) if ctx is not None]
        assert sampled == [3, 7, 11]
        assert tracer.seen == 12
        assert tracer.summary()["started"] == 3

    def test_trace_ids_are_unique_and_origin_prefixed(self):
        origin = 0xBEEF << 48
        tracer = RequestTracer(1, clock=fake_clock(), origin=origin)
        ids = [tracer.maybe_trace().trace_id for _ in range(5)]
        assert len(set(ids)) == 5
        assert all(tid & (0xFFFF << 48) == origin for tid in ids)

    def test_finish_lands_in_ring_oldest_first(self):
        tracer = RequestTracer(1, clock=fake_clock(), origin=0)
        for row in range(3):
            ctx = tracer.maybe_trace()
            tracer.finish(
                ctx, 0.02, dict(HOPS),
                worker=0, app_id=7, table_id=1, row_id=row,
                mode="X", outcome="ok",
            )
        dicts = tracer.to_dicts()
        assert [d["row"] for d in dicts] == [0, 1, 2]
        first = dicts[0]
        assert first["trace_id"] == 1 and first["span_id"] == 1
        assert first["hops"] == HOPS
        assert first["wire_tax"] == pytest.approx(wire_tax(HOPS), abs=1e-6)
        assert tracer.truncated == 0

    def test_ring_is_bounded_and_truncation_counted(self):
        tracer = RequestTracer(1, clock=fake_clock(), capacity=4, origin=0)
        for row in range(10):
            ctx = tracer.maybe_trace()
            tracer.finish(
                ctx, 0.01, dict(HOPS),
                worker=0, app_id=1, table_id=0, row_id=row,
                mode="S", outcome="ok",
            )
        assert len(tracer.to_dicts()) == 4
        assert [d["row"] for d in tracer.to_dicts()] == [6, 7, 8, 9]
        # Truncated counts started-but-never-finished, not ring evictions.
        assert tracer.truncated == 0
        tracer.maybe_trace()  # started, never finished
        assert tracer.truncated == 1

    def test_to_dicts_limit_keeps_newest(self):
        tracer = RequestTracer(1, clock=fake_clock(), origin=0)
        for row in range(5):
            tracer.finish(
                tracer.maybe_trace(), 0.01, dict(HOPS),
                worker=0, app_id=1, table_id=0, row_id=row,
                mode="S", outcome="ok",
            )
        assert [d["row"] for d in tracer.to_dicts(limit=2)] == [3, 4]


class TestServerTracer:
    def test_record_and_ring_bound(self):
        ring = ServerTracer(capacity=2)
        for span in range(1, 5):
            ring.record(99, span, {"server.lock_wait": 0.001})
        assert ring.recorded == 4
        assert len(ring) == 2
        spans = ring.to_dicts()
        assert [s["span_id"] for s in spans] == [3, 4]
        assert spans[0]["outcome"] == "ok" and spans[0]["app"] == -1
        assert ring.summary() == {"recorded": 4, "held": 2}

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ServerTracer(capacity=0)


class TestAggregations:
    def traces(self, n=10):
        out = []
        for i in range(n):
            hops = {h: v * (i + 1) for h, v in HOPS.items()}
            out.append(
                {"t": float(i), "total_s": sum(hops.values()), "hops": hops}
            )
        return out

    def test_hop_percentiles_exact(self):
        report = hop_percentiles(self.traces(10))
        assert list(report) == list(HOP_NAMES)
        lw = report["server.lock_wait"]
        assert lw["count"] == 10
        assert lw["p50"] == pytest.approx(0.010 * 5)
        assert lw["p99"] == pytest.approx(0.010 * 10)
        assert lw["total_s"] == pytest.approx(0.010 * 55)

    def test_hop_percentiles_skips_absent_hops(self):
        report = hop_percentiles([{"hops": {"client.encode": 0.001}}])
        assert list(report) == ["client.encode"]

    def test_wire_tax_summary(self):
        summary = wire_tax_summary(self.traces(4))
        net = sum(HOPS[h] for h in NET_HOPS) * 10  # 1+2+3+4
        lock = HOPS["server.lock_wait"] * 10
        assert summary["net_s"] == pytest.approx(net)
        assert summary["lock_s"] == pytest.approx(lock)
        assert summary["fraction"] == pytest.approx(net / (net + lock))

    def test_wire_tax_summary_empty(self):
        summary = wire_tax_summary([])
        assert summary["net_s"] == summary["lock_s"] == 0.0
        assert summary["fraction"] == 0.0


class TestSchemaRoundTrip:
    def test_v5_jsonl_round_trip_carries_traces(self, tmp_path):
        tracer = RequestTracer(1, clock=fake_clock(), origin=0)
        for row in range(3):
            tracer.finish(
                tracer.maybe_trace(), 0.02, dict(HOPS),
                worker=1, app_id=5, table_id=2, row_id=row,
                mode="X", outcome="ok",
            )
        telemetry = RunTelemetry(label="traced", traces=tracer.to_dicts())
        path = tmp_path / "out.jsonl"
        telemetry.write_jsonl(path)

        meta_line = path.read_text().splitlines()[0]
        assert f'"version":{SCHEMA_VERSION}' in meta_line.replace(" ", "")

        (loaded,) = load_runs(path)
        assert loaded.label == "traced"
        assert len(loaded.traces) == 3
        assert loaded.traces[0]["hops"] == HOPS
        assert [t["row"] for t in loaded.traces] == [0, 1, 2]

    def test_analyze_report_carries_trace_fields(self):
        tracer = RequestTracer(1, clock=fake_clock(), origin=0)
        for row in range(4):
            tracer.finish(
                tracer.maybe_trace(), 0.02, dict(HOPS),
                worker=0, app_id=5, table_id=2, row_id=row,
                mode="X", outcome="ok",
            )
        report = analyze_run(
            RunTelemetry(label="traced", traces=tracer.to_dicts())
        )
        assert report.trace_count == 4
        assert set(report.trace_hops) == set(HOP_NAMES)
        assert 0.0 <= report.trace_wire_tax["fraction"] <= 1.0
        rendered = report.render_text()
        assert "request traces:" in rendered
        assert "server.lock_wait" in rendered

    def test_untraced_report_renders_no_trace_section(self):
        report = analyze_run(RunTelemetry(label="plain"))
        assert report.trace_count == 0
        assert "request traces:" not in report.render_text()


class TestOpsPayload:
    def test_empty_payload_shape_matches_live_payload(self):
        payload = empty_traces_payload()
        assert payload == {
            "enabled": False,
            "sample_every": 0,
            "total": 0,
            "truncated": 0,
            "traces": [],
            "server_spans": {},
            "summary": {},
        }


def traced_stack(every, **topology):
    return build_stack(
        threads=2,
        trace_sample_every=every,
        ops_port=0,
        tuner_interval_s=30.0,
        **topology,
    )


def scrape_traces(stack):
    with urllib.request.urlopen(stack.ops.url + "/traces", timeout=5) as resp:
        return resp.read()


class TestOneKnobEveryTopology:
    """``trace_sample_every`` lands the same ``RequestTrace`` wherever
    the request runs: no topology drops or refuses it."""

    REQUESTS = 42

    @pytest.mark.parametrize(
        "topology",
        [{}, {"shards": 2}, {"workers": 1}, {"workers": 2}],
        ids=["unsharded", "sharded", "pool", "pool2"],
    )
    def test_sampled_requests_reach_traces_and_telemetry(
        self, topology, tmp_path
    ):
        stack = traced_stack(4, **topology)
        with stack, stack.client_stack() as client:
            service = client.service
            app = service.open_session()
            for row in range(self.REQUESTS):
                service.lock_row(app, row % 3, row, LockMode.X)
            service.close_session(app)
            payload = json.loads(scrape_traces(stack))

        assert set(payload) == set(empty_traces_payload())
        assert payload["enabled"] is True
        assert payload["sample_every"] == 4
        traces = payload["traces"]
        if "workers" in topology:
            workers = topology["workers"]
            assert payload["total"] >= 1
            spans = payload["server_spans"]
            assert set(spans) == {str(w) for w in range(workers)}
            assert sum(s["summary"]["recorded"] for s in spans.values()) >= 1
            # At least one request crossed the whole wire path.
            assert any(set(t["hops"]) == set(HOP_NAMES) for t in traces)
            assert payload["summary"]["hops"]
            assert 0.0 <= payload["summary"]["wire_tax"]["fraction"] <= 1.0
        else:
            assert payload["total"] == self.REQUESTS // 4
            assert payload["server_spans"] == {}
            assert set(payload["summary"]["hops"]) == {"server.lock_wait"}
            assert payload["summary"]["wire_tax"]["fraction"] == 0.0
        assert len(traces) == payload["total"]
        for trace in traces:
            assert set(trace["hops"]) <= set(HOP_NAMES)
            assert sum(trace["hops"].values()) == pytest.approx(
                trace["total_s"], rel=0.10
            )
            assert trace["mode"] == "X" and trace["outcome"] == "ok"
            assert trace["app"] == app and trace["table"] == trace["row"] % 3
        assert {trace["worker"] for trace in traces} <= set(
            range(len(stack.partitions))
        )

        path = tmp_path / "run.jsonl"
        service_telemetry(stack, label="traced").write_jsonl(path)
        (loaded,) = load_runs(path)
        assert loaded.traces == traces
        assert analyze_run(loaded).trace_count == len(traces)

    def test_in_process_tracer_samples_every_nth_request(self):
        stack = build_stack(threads=2, trace_sample_every=2)
        (tracer,) = stack.request_tracers
        assert stack.service.tracer is tracer
        with stack.service.session() as app:
            for row in range(4):
                stack.service.lock_row(app, 0, row, LockMode.S)
        assert [t["row"] for t in tracer.to_dicts()] == [1, 3]
        assert stack.ops_traces()["total"] == 2

    def test_off_is_the_empty_payload_on_the_wire(self):
        stack = traced_stack(0, shards=2)
        assert stack.request_tracers == []
        assert all(part.service.tracer is None for part in stack.partitions)
        with stack:
            with stack.service.session() as app:
                stack.service.lock_row(app, 0, 1, LockMode.X)
            payload = json.loads(scrape_traces(stack))
        assert payload == empty_traces_payload()
        assert list(payload) == list(empty_traces_payload())  # byte-identical

    def test_mode_is_the_lock_mode_name_on_every_topology(self, tmp_path):
        """The routed client used to record the wire byte (``"5"``)."""
        stack = traced_stack(1)
        wire_tracer = RequestTracer(1)
        server = serve_service(stack.service, path=str(tmp_path / "s.sock"))
        client = RoutedLockClient([server.address], tracer=wire_tracer)
        try:
            app = client.open_session()
            for row, mode in enumerate((LockMode.X, LockMode.S, LockMode.U)):
                client.lock_row(app, 0, row, mode)
            client.close_session(app)
        finally:
            client.close()
            server.stop()
        (in_process,) = stack.request_tracers
        wire_modes = [trace["mode"] for trace in wire_tracer.to_dicts()]
        assert wire_modes == ["X", "S", "U"]
        assert [t["mode"] for t in in_process.to_dicts()] == wire_modes


class TestServeExportsTelemetry:
    def test_serve_writes_the_telemetry_it_accepts(self, tmp_path, capsys):
        """``serve --telemetry`` used to be accepted and ignored."""
        out = tmp_path / "serve.jsonl"
        code = cli_main(
            [
                "serve", "--duration", "0.3", "--trace-sample", "1",
                "--socket", str(tmp_path / "serve.sock"),
                "--telemetry", str(out),
            ]
        )
        assert code == 0
        assert f"-> {out}" in capsys.readouterr().out
        (run,) = load_runs(out)
        assert run.label == "service-serve"
        assert run.traces == []  # tracing on, nobody connected

    def test_net_alone_front_end_traces_in_process(self, tmp_path, capsys):
        out = tmp_path / "stress.jsonl"
        code = cli_main(
            [
                "stress", "--net", "--threads", "2", "--requests", "40",
                "--trace-sample", "8", "--telemetry", str(out),
            ]
        )
        assert code == 0
        (run,) = load_runs(out)
        served = re.search(r"lock requests:\s+(\d+)", capsys.readouterr().out)
        assert len(run.traces) == int(served.group(1)) // 8 >= 10
        assert all(set(t["hops"]) == {"server.lock_wait"} for t in run.traces)
