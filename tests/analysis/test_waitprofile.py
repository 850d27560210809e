"""The offline wait-profile report (repro.analysis.waitprofile)."""

import json

import pytest

from repro.analysis.waitprofile import analyze_run
from repro.obs.audit import TuningAuditRecord
from repro.obs.events import RunTelemetry
from repro.obs.incidents import IncidentRecord
from repro.obs.registry import (
    WALL_CLOCK_BUCKETS_S,
    MetricRegistry,
)
from repro.obs.waits import WAIT_CLASSES, WAIT_SECONDS_METRIC
from repro.service.cli import main as cli_main


def wait_record(cls="lock.granted", app=2, t=1.0, dur=0.5, blocker=None, depth=0):
    return {
        "class": cls,
        "app": app,
        "t": t,
        "duration_s": dur,
        "resource": "row(0,1)",
        "mode": "X",
        "blocker": blocker,
        "blocker_mode": "X" if blocker is not None else "",
        "depth": depth,
        "note": "",
    }


def audit_record(interval, t, reason):
    return TuningAuditRecord(
        interval=interval, time=t, reason=reason, delta_pages=0,
        current_pages=32, target_pages=32, used_pages=0, free_fraction=0.6,
        overflow_pages=0, escalations_in_interval=0, lmo_headroom_pages=0,
    )


def make_telemetry(**overrides):
    defaults = dict(
        label="run",
        registry=MetricRegistry(),
        waits=[],
        incidents=[],
        audit=[],
    )
    defaults.update(overrides)
    return RunTelemetry(**defaults)


class TestBreakdownSources:
    def test_histograms_preferred_and_summed_across_shards(self):
        registry = MetricRegistry()
        for shard in ("0", "1"):
            hist = registry.histogram(
                WAIT_SECONDS_METRIC,
                bounds=WALL_CLOCK_BUCKETS_S,
                labels={"shard": shard, "class": "lock.granted"},
            )
            hist.observe(0.25)
        report = analyze_run(
            make_telemetry(registry=registry, waits=[wait_record(dur=99.0)])
        )
        assert report.breakdown_source == "histograms"
        entry = report.wait_breakdown["lock.granted"]
        assert entry["count"] == 2
        assert entry["seconds"] == pytest.approx(0.5)
        assert report.notes == []

    def test_ring_fallback_flagged(self):
        report = analyze_run(
            make_telemetry(
                waits=[
                    wait_record("lock.granted", dur=0.5),
                    wait_record("admission", dur=0.1),
                ]
            )
        )
        assert report.breakdown_source == "ring"
        assert report.wait_breakdown["lock.granted"]["count"] == 1
        assert report.wait_breakdown["admission"]["seconds"] == pytest.approx(0.1)
        assert any("ring" in note for note in report.notes)

    def test_empty_stream(self):
        report = analyze_run(make_telemetry())
        assert report.breakdown_source == "none"
        assert all(
            v == {"count": 0, "seconds": 0.0}
            for v in report.wait_breakdown.values()
        )
        assert set(report.wait_breakdown) == set(WAIT_CLASSES)


class TestBlockers:
    def test_top_blockers_ranked_by_blocked_seconds(self):
        waits = [
            wait_record("lock.granted", app=1, dur=0.1, blocker=9),
            wait_record("lock.timeout", app=2, dur=0.7, blocker=8, depth=2),
            wait_record("lock.granted", app=3, dur=0.2, blocker=9),
            wait_record("admission", app=4, dur=5.0),  # not a lock wait
            wait_record("lock.granted", app=5, dur=0.3),  # no blocker
        ]
        report = analyze_run(make_telemetry(waits=waits))
        assert [b.app_id for b in report.top_blockers] == [8, 9]
        worst = report.top_blockers[0]
        assert worst.waits_caused == 1
        assert worst.blocked_seconds == pytest.approx(0.7)
        assert worst.max_depth == 2
        second = report.top_blockers[1]
        assert second.waits_caused == 2
        assert second.blocked_seconds == pytest.approx(0.3)

    def test_top_n_truncates(self):
        waits = [
            wait_record("lock.granted", app=i, dur=0.1 * i, blocker=100 + i)
            for i in range(1, 9)
        ]
        report = analyze_run(make_telemetry(waits=waits), top_n=3)
        assert len(report.top_blockers) == 3
        assert report.raw_wait_events == 8


class TestConvergence:
    def test_converged_at_last_non_noop(self):
        audit = [
            audit_record(1, 30.0, "grow-async"),
            audit_record(2, 60.0, "shrink-5pct"),
            audit_record(3, 90.0, "noop"),
            audit_record(4, 120.0, "noop"),
        ]
        report = analyze_run(make_telemetry(audit=audit))
        assert report.converged_at == 60.0
        assert report.audit_reasons == {
            "grow-async": 1, "shrink-5pct": 1, "noop": 2
        }

    def test_never_acted(self):
        report = analyze_run(
            make_telemetry(audit=[audit_record(1, 30.0, "noop")])
        )
        assert report.converged_at is None

    def test_incident_counts(self):
        incidents = [
            IncidentRecord("deadlock", 1.0, 2, 0, "cycle"),
            IncidentRecord("deadlock", 2.0, 3, 0, "cycle"),
            IncidentRecord("escalation", 3.0, 2, 0, "maxlocks"),
        ]
        report = analyze_run(make_telemetry(incidents=incidents))
        assert report.incident_counts["deadlock"] == 2
        assert report.incident_counts["escalation"] == 1
        assert report.incident_counts["tuner-freeze"] == 0


class TestRendering:
    def make_report(self):
        return analyze_run(
            make_telemetry(
                waits=[
                    wait_record("lock.granted", app=1, dur=0.5, blocker=9),
                    wait_record("latch", app=-1, dur=0.1),
                ],
                audit=[audit_record(1, 30.0, "grow-async")],
                incidents=[IncidentRecord("deadlock", 1.0, 2, 0, "cycle")],
            )
        )

    def test_text_report_sections(self):
        text = self.make_report().render_text()
        assert "wait-time breakdown" in text
        assert "lock.granted" in text
        assert "top blockers" in text
        assert "9" in text
        assert "tuner convergence" in text
        assert "last action at t=30.000s" in text
        assert "deadlock=1" in text

    def test_to_dict_is_json_serializable(self):
        payload = json.loads(json.dumps(self.make_report().to_dict()))
        assert payload["breakdown_source"] == "ring"
        assert payload["top_blockers"][0]["app"] == 9
        assert payload["converged_at"] == 30.0

    def test_empty_report_renders(self):
        text = analyze_run(make_telemetry()).render_text()
        assert "(no waits recorded)" in text
        assert "(no attributed lock waits)" in text
        assert "tuner never acted" in text


class TestJsonlRoundTrip:
    def test_analyze_after_round_trip(self, tmp_path):
        telemetry = make_telemetry(
            label="round-trip",
            waits=[wait_record("lock.granted", app=1, dur=0.5, blocker=9)],
            audit=[audit_record(1, 30.0, "grow-async")],
            incidents=[IncidentRecord("deadlock", 1.0, 2, 0, "cycle", [2, 1])],
        )
        path = tmp_path / "run.jsonl"
        telemetry.write_jsonl(str(path))
        loaded = RunTelemetry.from_jsonl(str(path))
        report = analyze_run(loaded)
        assert report.label == "round-trip"
        assert report.top_blockers[0].app_id == 9
        assert report.converged_at == 30.0
        assert report.incident_counts["deadlock"] == 1


class TestCli:
    def write_stream(self, tmp_path):
        telemetry = make_telemetry(
            label="cli-run",
            waits=[wait_record("lock.granted", app=1, dur=0.5, blocker=9)],
            audit=[audit_record(1, 30.0, "grow-async")],
        )
        path = tmp_path / "run.jsonl"
        telemetry.write_jsonl(str(path))
        return str(path)

    def test_analyze_text(self, tmp_path, capsys):
        path = self.write_stream(tmp_path)
        assert cli_main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "wait profile: cli-run" in out
        assert "top blockers" in out

    def test_analyze_json(self, tmp_path, capsys):
        path = self.write_stream(tmp_path)
        assert cli_main(["analyze", path, "--json", "--top", "2"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["label"] == "cli-run"
        assert reports[0]["top_blockers"][0]["app"] == 9

    def test_recorded_stress_run_analyzes(self, tmp_path, capsys):
        """A live wait-profiled, traced stress run through the offline
        report: histogram-sourced breakdown and every section, in both
        output modes.  Waits may or may not occur; only shape is asserted."""
        path = str(tmp_path / "stress.jsonl")
        assert cli_main(
            [
                "stress", "--threads", "2", "--requests", "50",
                "--shards", "2", "--ops-port", "0", "--wait-profile",
                "--trace-sample", "16", "--telemetry", path,
            ]
        ) == 0
        assert "ops plane: http://" in capsys.readouterr().out

        assert cli_main(["analyze", path]) == 0
        text = capsys.readouterr().out
        for section in (
            "wait-time breakdown (source: histograms)",
            "top blockers",
            "tuner convergence",
            "request traces:",
        ):
            assert section in text

        assert cli_main(["analyze", path, "--json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["breakdown_source"] == "histograms"
        assert set(report["wait_breakdown"]) == set(WAIT_CLASSES)
        assert "incident_counts" in report and "converged_at" in report

    def test_analyze_missing_file_errors(self, tmp_path, capsys):
        assert cli_main(["analyze", str(tmp_path / "nope.jsonl")]) == 1
        assert "analyze:" in capsys.readouterr().err
