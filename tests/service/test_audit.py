"""The STMM decision audit log, driven deterministically in virtual time.

A :class:`ManualClock` stack with a long daemon interval is tuned by
hand (``tune_now``), with the lock load arranged so each pass takes a
*known* branch of the paper's section 3 rules.  The audit log's reason
sequence must match exactly -- this is the acceptance criterion that
``/stmm``'s trail speaks the truth about the tuner's actions.
"""

import pytest

from repro.lockmgr.modes import LockMode
from repro.obs.audit import AUDIT_REASONS, TuningAuditLog, TuningAuditRecord, audit_reason_for
from repro.service.clock import ManualClock
from repro.service.stack import ServiceConfig, ServiceStack
from repro.service.telemetry import service_telemetry


def make_stack(**overrides):
    defaults = dict(
        total_memory_pages=8_192,
        initial_locklist_pages=32,
        tuner_interval_s=30.0,  # daemon idle; tests drive tune_now()
    )
    defaults.update(overrides)
    clock = ManualClock()
    return ServiceStack(ServiceConfig(**defaults), clock=clock), clock


class TestReasonMapping:
    def test_controller_vocabulary_covered(self):
        assert audit_reason_for("grow-to-min-free") == "grow-async"
        assert audit_reason_for("shrink-delta-reduce") == "shrink-5pct"
        assert audit_reason_for("escalation-doubling") == (
            "double-escalation-recovery"
        )
        assert audit_reason_for("hold") == "noop"

    def test_unknown_reason_degrades_to_noop(self):
        assert audit_reason_for("some-future-branch") == "noop"

    def test_log_rejects_unknown_reason(self):
        log = TuningAuditLog()
        record = TuningAuditRecord(
            interval=1, time=0.0, reason="made-up", delta_pages=0,
            current_pages=0, target_pages=0, used_pages=0, free_fraction=0.0,
            overflow_pages=0, escalations_in_interval=0, lmo_headroom_pages=0,
        )
        with pytest.raises(ValueError):
            log.append(record)

    def test_ring_bounded_but_total_counts(self):
        log = TuningAuditLog(capacity=2)
        for i in range(5):
            log.append(
                TuningAuditRecord(
                    interval=i + 1, time=float(i), reason="noop",
                    delta_pages=0, current_pages=0, target_pages=0,
                    used_pages=0, free_fraction=0.0, overflow_pages=0,
                    escalations_in_interval=0, lmo_headroom_pages=0,
                )
            )
        assert len(log) == 2
        assert log.total_recorded == 5
        assert [r.interval for r in log.records()] == [4, 5]


class TestDeterministicReasonSequence:
    def test_audit_matches_tuner_actions(self):
        stack, clock = make_stack()
        params = stack.config.params
        with stack:
            service = stack.service
            app = service.open_session()

            # Interval 1: free fraction below minFree -> grow-async.
            capacity = stack.chain.capacity_slots
            grow_rows = int(capacity * (1.0 - params.min_free_fraction)) + 64
            for row in range(grow_rows):
                service.lock_row(app, 0, row, LockMode.S)
            assert stack.chain.free_fraction() < params.min_free_fraction
            clock.advance(30.0)
            stack.tuner.tune_now()

            # Interval 2: everything released -> free above maxFree ->
            # shrink-5pct.
            service.rollback(app)
            assert stack.chain.free_fraction() > params.max_free_fraction
            clock.advance(30.0)
            stack.tuner.tune_now()

            # Interval 3: an escalation burst this interval -> doubling.
            from repro.lockmgr.escalation import EscalationOutcome

            for _ in range(3):
                service.manager.stats.escalations.record(
                    EscalationOutcome(
                        time=clock.now(), app_id=app, table_id=0,
                        reason="maxlocks", target_mode=LockMode.S,
                        freed_slots=0, waited=False,
                    )
                )
            clock.advance(30.0)
            stack.tuner.tune_now()

            # Interval 4: free fraction inside the band -> noop.
            capacity = stack.chain.capacity_slots
            band_mid = (params.min_free_fraction + params.max_free_fraction) / 2
            hold_rows = int(capacity * (1.0 - band_mid))
            for row in range(hold_rows):
                service.lock_row(app, 1, row, LockMode.S)
            free = stack.chain.free_fraction()
            assert params.min_free_fraction < free < params.max_free_fraction
            clock.advance(30.0)
            stack.tuner.tune_now()

            # Terminal: tuner crash -> freeze entry, service degraded.
            def bomb():
                raise RuntimeError("injected tuner bug")

            stack.controller.compute_target_pages = bomb
            clock.advance(30.0)
            with pytest.raises(RuntimeError):
                stack.tuner.tune_now()

            service.rollback(app)
            service.close_session(app)

        assert stack.tuner.audit.reasons() == [
            "grow-async",
            "shrink-5pct",
            "double-escalation-recovery",
            "noop",
            "freeze",
        ]
        records = stack.tuner.audit.records()
        for record in records:
            assert record.reason in AUDIT_REASONS
        grow, shrink, doubling, noop, freeze = records
        assert grow.delta_pages > 0
        assert grow.interval == 1
        assert grow.time == 30.0
        assert shrink.delta_pages <= 0
        assert doubling.escalations_in_interval == 3
        assert doubling.target_pages >= 2 * doubling.current_pages
        assert noop.delta_pages == 0
        assert freeze.interval == 0
        assert "injected tuner bug" in freeze.detail
        assert stack.service.frozen_reason is not None

    def test_audit_records_carry_decision_inputs(self):
        stack, clock = make_stack()
        with stack:
            clock.advance(30.0)
            stack.tuner.tune_now()
        (record,) = stack.tuner.audit.records()
        (decision,) = stack.controller.decisions
        assert record.reason == audit_reason_for(decision.reason)
        assert record.detail == decision.reason
        assert record.current_pages == decision.current_pages
        assert record.target_pages == decision.target_pages
        assert record.used_pages == decision.used_pages
        assert record.free_fraction == decision.free_fraction
        assert record.time == decision.time
        assert record.overflow_pages == stack.registry.overflow_pages
        assert record.lmo_headroom_pages >= 0

    def test_round_trip_through_dict(self):
        stack, clock = make_stack()
        with stack:
            clock.advance(30.0)
            stack.tuner.tune_now()
        (record,) = stack.tuner.audit.records()
        assert TuningAuditRecord.from_dict(record.to_dict()) == record


class TestTelemetryExport:
    def test_audit_survives_jsonl_round_trip(self, tmp_path):
        stack, clock = make_stack()
        with stack:
            with stack.service.session() as app:
                stack.service.lock_row(app, 0, 1, LockMode.X)
                stack.service.rollback(app)
            clock.advance(30.0)
            stack.tuner.tune_now()
        telemetry = service_telemetry(stack, label="audit-test")
        path = tmp_path / "svc.jsonl"
        telemetry.write_jsonl(str(path))

        from repro.obs.events import RunTelemetry

        loaded = RunTelemetry.from_jsonl(str(path))
        assert loaded.label == "audit-test"
        assert [a.reason for a in loaded.audit] == (
            stack.tuner.audit.reasons()
        )
        assert loaded.audit == stack.tuner.audit.records()
        assert len(loaded.decisions) == len(stack.controller.decisions)
        # The shared registry's final counters survive too.
        assert (
            loaded.registry.counter("service.requests").value
            == stack.metrics.counter("service.requests").value
        )
