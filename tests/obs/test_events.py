"""Round-trip tests for the JSONL telemetry stream."""

import json
from pathlib import Path

import pytest

from repro.analysis import scenarios
from repro.core.controller import ControllerDecision
from repro.engine.metrics import MetricsRecorder
from repro.lockmgr.tracing import TraceEvent
from repro.obs import (
    SCHEMA_VERSION,
    WAIT_LATENCY_METRIC,
    MetricRegistry,
    RunTelemetry,
    load_runs,
)


def synthetic_telemetry(label="synthetic") -> RunTelemetry:
    registry = MetricRegistry()
    hist = registry.histogram(WAIT_LATENCY_METRIC)
    for value in (0.002, 0.03, 0.03, 0.5, 4.0):
        hist.observe(value)
    registry.counter("lock.requests").inc(100)
    registry.gauge("run.duration_s").set(30.0)
    metrics = MetricsRecorder()
    metrics.record("lock_pages", 0.0, 96.0)
    metrics.record("lock_pages", 10.0, 128.0)
    metrics.record("commits", 10.0, 41.0)
    return RunTelemetry(
        label=label,
        trace_events=[
            TraceEvent(1.0, "grant", 1, "X T0.R7", "T0.R7"),
            TraceEvent(2.0, "wait-begin", 2, "X T0.R7", "T0.R7"),
            TraceEvent(5.0, "wait-end", 2, "granted after 3.000s",
                       "T0.R7", 3.0),
        ],
        decisions=[
            ControllerDecision(
                time=30.0, reason="grow-to-min-free", current_pages=96,
                used_pages=80, free_fraction=0.17, target_pages=512,
                min_pages=64, max_pages=3276, escalations_in_interval=0,
            )
        ],
        metrics=metrics,
        registry=registry,
    )


def every_kind_telemetry() -> RunTelemetry:
    """A run that emits each of the eleven record kinds at least once
    (the source of ``data/every_kind.jsonl``)."""
    from repro.obs.audit import BrokerAuditRecord, TuningAuditRecord
    from repro.obs.incidents import IncidentRecord

    telemetry = synthetic_telemetry("every-kind")
    telemetry.registry.histogram("empty.latency_s")
    telemetry.registry.counter("net.frames", labels={"worker": "0"}).inc(3)
    telemetry.audit = [
        TuningAuditRecord(
            interval=1, time=0.75, reason="grow-async", delta_pages=32,
            current_pages=96, target_pages=128, used_pages=80,
            free_fraction=0.17, overflow_pages=0,
            escalations_in_interval=0, lmo_headroom_pages=40,
        ),
        TuningAuditRecord(
            interval=0, time=6.0, reason="freeze", delta_pages=0,
            current_pages=128, target_pages=128, used_pages=90,
            free_fraction=0.3, overflow_pages=8,
            escalations_in_interval=1, lmo_headroom_pages=0,
            detail="RuntimeError: tuner died",
        ),
    ]
    telemetry.waits = [
        {
            "class": "lock.granted", "app": 2, "t": 2.0,
            "duration_s": 3.0, "resource": "T0.R7", "mode": "X",
            "blocker": 1, "blocker_mode": "X", "depth": 1, "note": "",
        },
        {
            "class": "admission", "app": 4, "t": 0.5,
            "duration_s": 0.1, "resource": "", "mode": "",
            "blocker": None, "blocker_mode": "", "depth": 0,
            "note": "admitted",
        },
    ]
    telemetry.incidents = [
        IncidentRecord(
            kind="deadlock", time=5.0, app_id=2, shard=1,
            detail="victim by footprint", cycle=[2, 1],
            posture={"used_slots": 4, "free_fraction": 0.5},
            blockers=[{"app": 1, "waiters_blocked": 1, "slots_held": 3}],
            audit_tail=[{"interval": 1, "reason": "grow-async"}],
            data={"resource": "T0.R7", "trace_id": 7},
        ),
        IncidentRecord(
            kind="tuner-freeze", time=6.0, app_id=-1, shard=0,
            detail="RuntimeError: tuner died",
        ),
    ]
    telemetry.broker = [
        BrokerAuditRecord(
            interval=1, time=1.5, reason="trade-benefit",
            heap_from="sortheap", heap_to="bufferpool", pages=64,
            benefit_from=0.01, benefit_to=0.25, pressure=0.91,
            posture="normal", detail="sortheap -> bufferpool: 64 pages",
        ),
    ]
    telemetry.traces = [
        {
            "trace_id": 2**48 + 1, "span_id": 1, "t": 4.5,
            "total_s": 2.5e-05, "worker": 0, "app": 2, "table": 0,
            "row": 7, "mode": "X", "outcome": "ok",
            "hops": {"client.encode": 1e-06, "server.lock_wait": 2.4e-05},
            "wire_tax": 0.04,
        },
    ]
    return telemetry


#: Written by ``every_kind_telemetry().write_jsonl(...)`` at schema
#: version 5; the writer must reproduce it and the reader must load it
#: back into a run that rewrites it, byte for byte.
GOLDEN = Path(__file__).parent / "data" / "every_kind.jsonl"

#: The record kinds after the ``meta`` header, in stream order.
RECORD_KINDS = (
    "trace", "decision", "audit", "wait", "incident", "broker",
    "reqtrace", "sample", "counter", "gauge", "histogram",
)


class TestGoldenFixture:
    def test_fixture_holds_every_kind(self):
        lines = GOLDEN.read_text().splitlines()
        kinds = {json.loads(line)["kind"] for line in lines}
        assert kinds == {"meta", *RECORD_KINDS}

    def test_writer_reproduces_the_fixture(self, tmp_path):
        path = tmp_path / "every_kind.jsonl"
        every_kind_telemetry().write_jsonl(str(path))
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_fixture_round_trips_byte_for_byte(self, tmp_path):
        path = tmp_path / "rewritten.jsonl"
        RunTelemetry.from_jsonl(str(GOLDEN)).write_jsonl(str(path))
        assert path.read_bytes() == GOLDEN.read_bytes()


class TestEndTime:
    """The latest ``t`` of any timed record kind, 0.0 for none."""

    def test_empty_run_ends_at_zero(self):
        assert RunTelemetry().end_time() == 0.0

    @pytest.mark.parametrize(
        "kind, latest",
        [("trace", 5.0), ("decision", 30.0), ("audit", 6.0), ("wait", 2.0),
         ("incident", 6.0), ("broker", 1.5), ("reqtrace", 4.5),
         ("sample", 10.0)],
    )
    def test_each_timed_kind_counts(self, tmp_path, kind, latest):
        path = tmp_path / f"{kind}.jsonl"
        path.write_text("".join(
            line + "\n" for line in GOLDEN.read_text().splitlines()
            if json.loads(line)["kind"] in ("meta", kind)
        ))
        assert RunTelemetry.from_jsonl(str(path)).end_time() == latest

    def test_a_run_of_waits_has_a_duration(self):
        from repro.analysis.report import RunReport

        telemetry = RunTelemetry(
            waits=[{"class": "latch", "app": 1, "t": 5.0, "duration_s": 0.5}]
        )
        telemetry.registry.gauge("run.commits").set(10.0)
        report = RunReport.from_telemetry(telemetry)
        assert report.duration_s == 5.0
        assert report.throughput_tps == 2.0


class TestRecordStream:
    def test_meta_record_leads(self):
        records = list(synthetic_telemetry().records())
        assert records[0] == {
            "kind": "meta", "version": SCHEMA_VERSION, "label": "synthetic"
        }

    def test_timed_records_are_time_ordered(self):
        records = list(synthetic_telemetry().records())
        times = [r["t"] for r in records if "t" in r]
        assert times == sorted(times)
        # all three streams are present in the merged section
        kinds = {r["kind"] for r in records if "t" in r}
        assert kinds == {"trace", "decision", "sample"}

    def test_snapshots_close_the_stream(self):
        records = list(synthetic_telemetry().records())
        tail_kinds = [r["kind"] for r in records if "t" not in r][1:]
        assert set(tail_kinds) <= {"counter", "gauge", "histogram"}
        assert tail_kinds == sorted(
            tail_kinds, key=["counter", "gauge", "histogram"].index
        )

    def test_records_are_json_serializable(self):
        for record in synthetic_telemetry().records():
            json.loads(json.dumps(record))


class TestRoundTrip:
    def test_lossless_round_trip(self, tmp_path):
        telemetry = synthetic_telemetry()
        path = str(tmp_path / "run.jsonl")
        written = telemetry.write_jsonl(path)
        assert written == sum(1 for _ in telemetry.records())

        reloaded = RunTelemetry.from_jsonl(path)
        assert reloaded.label == telemetry.label
        assert reloaded.trace_events == telemetry.trace_events
        assert reloaded.decisions == telemetry.decisions
        assert reloaded.event_counts() == telemetry.event_counts()
        for name in telemetry.metrics.names():
            original = telemetry.metrics[name]
            restored = reloaded.metrics[name]
            assert restored.times == original.times
            assert restored.values == original.values
        assert reloaded.registry.snapshot() == telemetry.registry.snapshot()

    def test_wait_latency_percentiles_exact(self, tmp_path):
        telemetry = synthetic_telemetry()
        path = str(tmp_path / "run.jsonl")
        telemetry.write_jsonl(path)
        original = telemetry.wait_latency()
        restored = RunTelemetry.from_jsonl(path).wait_latency()
        assert restored.p50 == original.p50
        assert restored.p95 == original.p95
        assert restored.p99 == original.p99
        assert restored.mean == original.mean

    def test_multi_run_file(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        synthetic_telemetry("first").write_jsonl(path)
        synthetic_telemetry("second").write_jsonl(path, append=True)
        runs = load_runs(path)
        assert [r.label for r in runs] == ["first", "second"]
        with pytest.raises(ValueError, match="load_runs"):
            RunTelemetry.from_jsonl(path)

    def test_headerless_file_gets_implicit_run(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text(
            '{"kind":"trace","t":1.0,"event":"grant","app":1}\n'
        )
        runs = load_runs(str(path))
        assert len(runs) == 1
        assert runs[0].label == "run"
        assert runs[0].trace_events[0].kind == "grant"

    def test_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            f'{{"kind":"meta","version":{SCHEMA_VERSION},"label":"x"}}\nnot json\n'
        )
        with pytest.raises(ValueError, match=":2"):
            load_runs(str(path))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('{"kind":"mystery"}\n')
        with pytest.raises(ValueError, match="mystery"):
            load_runs(str(path))

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"kind":"meta","version":99,"label":"x"}\n')
        with pytest.raises(ValueError, match="99"):
            load_runs(str(path))

    def test_empty_file_has_no_runs(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_runs(str(path)) == []
        with pytest.raises(ValueError, match="no telemetry"):
            RunTelemetry.from_jsonl(str(path))


class TestEndToEndAcceptance:
    """The PR's acceptance round trip on a scaled-down Figure 9 run."""

    @pytest.fixture(scope="class")
    def fig9_pair(self, tmp_path_factory):
        observed = []
        with scenarios.observe_databases(
            lambda label, db: observed.append((label, db.enable_telemetry(), db))
        ):
            scenarios.run_fig9_rampup(
                clients=60, ramp_duration_s=30.0, duration_s=120.0
            )
        (label, _registry, db), = observed
        telemetry = db.telemetry(label=label)
        path = str(tmp_path_factory.mktemp("telemetry") / "fig9.jsonl")
        telemetry.write_jsonl(path)
        return telemetry, RunTelemetry.from_jsonl(path)

    def test_event_counts_per_kind_identical(self, fig9_pair):
        live, reloaded = fig9_pair
        assert live.event_counts()  # the run really traced something
        assert reloaded.event_counts() == live.event_counts()

    def test_decision_log_survives(self, fig9_pair):
        live, reloaded = fig9_pair
        assert live.decision_count > 0
        assert reloaded.decision_count == live.decision_count
        assert reloaded.decisions == live.decisions

    def test_wait_latency_p95_exact(self, fig9_pair):
        live, reloaded = fig9_pair
        waits = live.wait_latency()
        assert waits is not None and waits.count > 0
        restored = reloaded.wait_latency()
        assert restored.p95 == waits.p95  # +- 0, per the acceptance bar
        assert restored.summary() == waits.summary()

    def test_final_state_counters_present(self, fig9_pair):
        _live, reloaded = fig9_pair
        requests = reloaded.registry.get("lock.requests")
        assert requests is not None and requests.value > 0
        assert reloaded.registry.get("run.duration_s").value == 120.0


class TestSchemaV3WaitsAndIncidents:
    """Schema v3: wait events and incident records ride the stream."""

    def telemetry_with_forensics(self):
        from repro.obs.incidents import IncidentRecord

        telemetry = synthetic_telemetry()
        telemetry.waits = [
            {
                "class": "lock.granted", "app": 2, "t": 2.0,
                "duration_s": 3.0, "resource": "T0.R7", "mode": "X",
                "blocker": 1, "blocker_mode": "X", "depth": 1, "note": "",
            },
            {
                "class": "admission", "app": 4, "t": 0.5,
                "duration_s": 0.1, "resource": "", "mode": "",
                "blocker": None, "blocker_mode": "", "depth": 0,
                "note": "admitted",
            },
        ]
        telemetry.incidents = [
            IncidentRecord(
                kind="deadlock", time=5.0, app_id=2, shard=1,
                detail="victim by footprint", cycle=[2, 1],
                posture={"used_slots": 4}, blockers=[],
                audit_tail=[], data={"resource": "T0.R7"},
            )
        ]
        return telemetry

    def test_wait_and_incident_records_in_stream(self):
        records = list(self.telemetry_with_forensics().records())
        kinds = {r["kind"] for r in records if "t" in r}
        assert "wait" in kinds and "incident" in kinds
        times = [r["t"] for r in records if "t" in r]
        assert times == sorted(times)
        incident = next(r for r in records if r["kind"] == "incident")
        # The record's own kind travels as incident_kind so it cannot
        # collide with the stream's dispatch key.
        assert incident["incident_kind"] == "deadlock"
        for record in records:
            json.loads(json.dumps(record))

    def test_v3_round_trip_lossless(self, tmp_path):
        telemetry = self.telemetry_with_forensics()
        path = str(tmp_path / "v3.jsonl")
        telemetry.write_jsonl(path)
        reloaded = RunTelemetry.from_jsonl(path)
        assert sorted(
            reloaded.waits, key=lambda w: w["t"]
        ) == sorted(telemetry.waits, key=lambda w: w["t"])
        assert reloaded.incidents == telemetry.incidents
        assert reloaded.incidents[0].kind == "deadlock"
        assert reloaded.incidents[0].cycle == [2, 1]

    def test_v2_stream_without_forensics_still_loads(self, tmp_path):
        telemetry = synthetic_telemetry()
        path = str(tmp_path / "v2ish.jsonl")
        telemetry.write_jsonl(path)
        reloaded = RunTelemetry.from_jsonl(path)
        assert reloaded.waits == []
        assert reloaded.incidents == []


class TestSchemaV4Broker:
    """Schema v4: broker audit records ride the stream."""

    def telemetry_with_broker(self):
        from repro.obs.audit import BrokerAuditRecord

        telemetry = synthetic_telemetry()
        telemetry.broker = [
            BrokerAuditRecord(
                interval=1, time=1.5, reason="trade-benefit",
                heap_from="sortheap", heap_to="bufferpool", pages=64,
                benefit_from=0.01, benefit_to=0.25, pressure=0.91,
                posture="normal", detail="sortheap -> bufferpool: 64 pages",
            ),
            BrokerAuditRecord(
                interval=3, time=3.5, reason="pressure-throttle",
                heap_from="", heap_to="", pages=0,
                benefit_from=0.0, benefit_to=0.0, pressure=1.09,
                posture="throttle",
                detail="posture normal -> throttle at pressure 1.094",
            ),
        ]
        return telemetry

    def test_broker_records_in_stream_time_ordered(self):
        records = list(self.telemetry_with_broker().records())
        broker = [r for r in records if r["kind"] == "broker"]
        assert [r["reason"] for r in broker] == [
            "trade-benefit", "pressure-throttle"
        ]
        times = [r["t"] for r in records if "t" in r]
        assert times == sorted(times)
        for record in records:
            json.loads(json.dumps(record))

    def test_v4_round_trip_lossless(self, tmp_path):
        telemetry = self.telemetry_with_broker()
        path = str(tmp_path / "v4.jsonl")
        telemetry.write_jsonl(path)
        reloaded = RunTelemetry.from_jsonl(path)
        assert reloaded.broker == telemetry.broker
        assert reloaded.broker[0].heap_to == "bufferpool"
        assert reloaded.broker[1].posture == "throttle"
        # The rest of the stream is untouched by the new kind.
        assert reloaded.decisions == telemetry.decisions
        assert reloaded.registry.snapshot() == telemetry.registry.snapshot()

    def test_v3_stream_without_broker_still_loads(self, tmp_path):
        telemetry = synthetic_telemetry()
        path = str(tmp_path / "v3ish.jsonl")
        telemetry.write_jsonl(path)
        reloaded = RunTelemetry.from_jsonl(path)
        assert reloaded.broker == []

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_header_versions_rejected(self, tmp_path, version):
        path = tmp_path / f"v{version}.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "version": version, "label": "old"})
            + "\n"
            + '{"kind":"trace","t":1.0,"event":"grant","app":1}\n'
        )
        with pytest.raises(ValueError, match=f"schema version {version}"):
            load_runs(str(path))
