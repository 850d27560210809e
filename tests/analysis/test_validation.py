"""Tests for the declarative paper-shape validation."""

import pytest

from repro.analysis import runner
from repro.analysis.experiment import ExperimentResult
from repro.analysis.validation import (
    PAPER_EXPECTATIONS,
    Expectation,
    Finding,
    render_outcomes,
    validate,
)
from repro.engine.metrics import MetricsRecorder


def result_with(**findings):
    result = ExperimentResult("x", MetricsRecorder())
    result.findings.update(findings)
    return result


class TestExpectation:
    def test_comparison_operators(self):
        result = result_with(v=5)
        assert Expectation("v", "==", 5).evaluate(result).passed
        assert Expectation("v", ">", 4).evaluate(result).passed
        assert not Expectation("v", "<", 5).evaluate(result).passed
        assert Expectation("v", "!=", 4).evaluate(result).passed

    def test_approximate_equality(self):
        result = result_with(ratio=2.1)
        assert Expectation("ratio", "~=", 2.0, tolerance=0.10).evaluate(result).passed
        assert not Expectation("ratio", "~=", 2.0, tolerance=0.01).evaluate(
            result
        ).passed

    def test_approx_zero_reference(self):
        result = result_with(v=0.0)
        assert Expectation("v", "~=", 0.0, tolerance=0.1).evaluate(result).passed

    def test_missing_finding_fails_gracefully(self):
        outcome = Expectation("absent", "==", 1).evaluate(result_with(v=1))
        assert not outcome.passed
        assert "absent" in outcome.error

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Expectation("v", "≈", 1).evaluate(result_with(v=1))

    def test_finding_reference_is_scaled(self):
        result = result_with(late=1.5, peak=4.0)
        check = Expectation("late", "<", Finding("peak", 0.375))
        assert not check.evaluate(result).passed  # 1.5 < 1.5 is false
        outcome = Expectation("late", "<", Finding("peak", 0.4)).evaluate(result)
        assert outcome.passed and outcome.reference == pytest.approx(1.6)
        assert "late < 0.4*peak" in str(outcome) and "vs 1.6" in str(outcome)
        assert Expectation("late", "~=", Finding("peak", 0.4),
                           tolerance=0.1).evaluate(result).passed

    def test_finding_reference_defaults_to_scale_one(self):
        result = result_with(final=13_184, peak=13_184.0)
        outcome = Expectation("final", "==", Finding("peak")).evaluate(result)
        assert outcome.passed
        assert "final == peak " in str(outcome)

    def test_missing_reference_fails_gracefully(self):
        outcome = Expectation("v", ">", Finding("absent")).evaluate(
            result_with(v=1)
        )
        assert not outcome.passed
        assert "absent" in outcome.error

    def test_incomparable_values_fail_instead_of_raising(self):
        outcome = Expectation("delay", "<=", 60).evaluate(result_with(delay=None))
        assert not outcome.passed
        assert outcome.error == "not comparable"

    def test_outcome_str(self):
        outcome = Expectation(
            "growth", "~=", 10.5, tolerance=0.25,
            paper_claim="10.5x growth",
        ).evaluate(result_with(growth=10.67))
        text = str(outcome)
        assert "[PASS]" in text and "10.5x growth" in text


class TestRegistry:
    def test_every_figure_has_expectations(self):
        assert sorted(PAPER_EXPECTATIONS) == sorted(runner.EXPERIMENTS)
        assert all(PAPER_EXPECTATIONS.values())

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            validate("fig99", result_with())


class TestValidateOnRealRuns:
    """The experiments that run in seconds, at full scale; the rest are
    checked by ``runner all --validate`` (the CI paper-shape job)."""

    @staticmethod
    def failed_checks(experiment):
        outcomes = validate(experiment, runner.EXPERIMENTS[experiment][0]())
        return [str(o) for o in outcomes if not o.passed]

    def test_fig3_passes_its_checks(self):
        assert not self.failed_checks("fig3")

    def test_fig4_passes_its_checks(self):
        assert not self.failed_checks("fig4")

    def test_fig6_passes_its_checks(self):
        assert not self.failed_checks("fig6")

    def test_render_scorecard(self):
        from repro.analysis.scenarios import run_fig3_lock_queuing

        text = render_outcomes(validate("fig3", run_fig3_lock_queuing()))
        assert "4/4 paper-shape checks passed" in text
