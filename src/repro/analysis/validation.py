"""Declarative validation of experiment results against the paper.

Each experiment's expected *shape* -- the qualitative facts the paper's
figure conveys: who wins, where the crossovers fall, how fast the
allocation converges -- is a list of :class:`Expectation` checks on the
experiment's findings.  :data:`PAPER_EXPECTATIONS` holds one list for
every ``runner`` experiment and is the only place those facts are
written down.  ``python -m repro.analysis.runner fig9 --validate``
prints one experiment's PASS/FAIL scorecard, ``... all --validate``
every one of them, and either exits 1 when a check fails.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.analysis.experiment import ExperimentResult

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


@dataclass(frozen=True)
class Finding:
    """An expectation's value read from another finding of the same
    result, times ``scale``: ``Finding("static_peak_tput", 0.75)``."""

    name: str
    scale: float = 1.0

    def __str__(self) -> str:
        return self.name if self.scale == 1 else f"{self.scale:g}*{self.name}"


@dataclass(frozen=True)
class Expectation:
    """One check: ``finding <op> value`` (with optional tolerance);
    ``value`` is a constant or a :class:`Finding` of the same result."""

    finding: str
    op: str
    value: Any
    #: For "~=": relative tolerance on numeric equality.
    tolerance: float = 0.0
    #: The paper statement this check encodes.
    paper_claim: str = ""

    def evaluate(self, result: ExperimentResult) -> "CheckOutcome":
        value, reference = self.value, None
        try:
            actual = result.finding(self.finding)
            if isinstance(value, Finding):
                value = reference = value.scale * result.finding(value.name)
        except KeyError as exc:
            return CheckOutcome(self, actual=None, passed=False,
                                error=str(exc))
        if self.op == "~=":
            if not isinstance(actual, (int, float)):
                return CheckOutcome(self, actual, False,
                                    error="not numeric")
            value = float(value)
            slack = abs(value) * self.tolerance if value else self.tolerance
            passed = abs(float(actual) - value) <= slack
        elif self.op in _OPS:
            try:
                passed = _OPS[self.op](actual, value)
            except TypeError:  # e.g. a finding that read None
                return CheckOutcome(self, actual, False, error="not comparable")
        else:
            raise ValueError(f"unknown operator {self.op!r}")
        return CheckOutcome(self, actual, passed, reference=reference)


@dataclass
class CheckOutcome:
    """Result of evaluating one expectation."""

    expectation: Expectation
    actual: Any
    passed: bool
    error: str = ""
    #: The value a :class:`Finding` resolved to (None for a constant).
    reference: Any = None

    def __str__(self) -> str:
        e = self.expectation
        status = "PASS" if self.passed else "FAIL"
        comparison = f"{e.finding} {e.op} {e.value}"
        if e.op == "~=":
            comparison += f" (tol {e.tolerance:.0%})"
        suffix = f" -- {e.paper_claim}" if e.paper_claim else ""
        detail = self.error if self.error else f"actual={self.actual}"
        if self.reference is not None:
            detail += f" vs {self.reference}"
        return f"[{status}] {comparison:<48s} {detail}{suffix}"


#: The paper's shape criteria, one list per ``runner`` experiment id:
#: the one statement of what reproducing each figure means.
PAPER_EXPECTATIONS: Dict[str, List[Expectation]] = {
    "fig3": [
        Expectation("shared_S_grant", "==", True,
                    paper_claim="compatible S requests share one grant"),
        Expectation("queue_while_held", "==", "X->S",
                    paper_claim="X queues, then S queues behind it"),
        Expectation("fifo_respected", "==", True,
                    paper_claim="later S queues behind the X (post method)"),
        Expectation("final_grant_order", "==", "1->2->3->4"),
    ],
    "fig4": [
        Expectation("blocked_on_free_rows", ">", 0,
                    paper_claim="ITL exhaustion = de facto page locking"),
        Expectation("row_conflicts", "==", 0),
        Expectation("disk_overhead_bytes", "==",
                    Finding("disk_overhead_after_commit_bytes"),
                    paper_claim="on-page lock overhead is permanent"),
        Expectation("tunable_memory_pages", "==", 0,
                    paper_claim="no dynamic allocation of lock memory"),
    ],
    "fig6": [
        Expectation("t1_absorbed_without_sync_growth", "==", True,
                    paper_claim="surge within free half needs no sync growth"),
        Expectation("t2_alloc_pct", "~=", 6.0, tolerance=0.05,
                    paper_claim="async growth restores minFree"),
        Expectation("t3_used_sync_growth", "==", True,
                    paper_claim="267% surge partly from overflow"),
        Expectation("t3_overflow_reduced_pct", "<", 10.0),
        Expectation("t4_overflow_restored_pct", "~=", 10.0, tolerance=0.05,
                    paper_claim="overflow reclaimed to its goal"),
        Expectation("per_interval_shrink_fraction", "~=", 0.05, tolerance=0.4,
                    paper_claim="delta_reduce = 5% per interval"),
        Expectation("final_alloc_pct", "~=", 5.0, tolerance=0.06,
                    paper_claim="relaxes to maxFree: used 2% / 0.4"),
    ],
    "fig7": [
        Expectation("static_escalations", ">", 0,
                    paper_claim="under-allocation leads to escalation"),
        Expectation("static_used_drop_after_escalation", ">", 0,
                    paper_claim="escalation reduces lock memory use"),
        Expectation("static_final_used_slots", "<", Finding("static_peak_used_slots")),
    ],
    "fig8": [
        Expectation("static_exclusive_escalations", ">", 0),
        Expectation("static_late_tput", "<", Finding("static_peak_tput", 0.75),
                    paper_claim="throughput collapses after escalation"),
        Expectation("adaptive_escalations", "==", 0),
        Expectation("adaptive_vs_static_commit_ratio", ">", 1.5,
                    paper_claim="throughput drops practically to zero"),
    ],
    "fig9": [
        Expectation("escalations", "==", 0,
                    paper_claim="no escalations during the 0->130 ramp"),
        Expectation("growth_factor", ">=", 8.0,
                    paper_claim="lock memory increased by 10.5x"),
        Expectation("growth_factor", "<=", 13.125),
        Expectation("convergence_time_s", "<=", 60 + 2 * 30,
                    paper_claim="stable within two intervals of the ramp"),
        Expectation("steady_tput", ">", 0),
    ],
    "fig10": [
        Expectation("growth_ratio", "~=", 2.0, tolerance=0.15,
                    paper_claim="just more than double its allocation"),
        Expectation("adaptation_delay_s", "<=", 60,
                    paper_claim="practically instantaneous"),
        Expectation("escalations", "==", 0),
        Expectation("tput_after", ">", Finding("tput_before")),
    ],
    "fig11": [
        Expectation("growth_factor", ">=", 15.0,
                    paper_claim="grows by tens of times (60x in the paper)"),
        Expectation("peak_fraction_of_database_memory", "~=", 0.10, tolerance=0.5,
                    paper_claim="peak near 10% of database memory"),
        Expectation("exclusive_escalations", "==", 0,
                    paper_claim="no exclusive escalations observed"),
        Expectation("query_completed", "==", True),
        Expectation("query_rows_locked", "==", 500_000),
        Expectation("oltp_tput_during", ">", 0,
                    paper_claim="OLTP dips but keeps running"),
    ],
    "fig12": [
        Expectation("steady_lock_pages", ">=", 1_000,
                    paper_claim="130 clients hold ~4.2 MB"),
        Expectation("steady_lock_pages", "<=", 1_100),
        Expectation("shrink_intervals", ">=", 6,
                    paper_claim="gradual reduction over ~10 intervals"),
        Expectation("shrink_intervals", "<=", 16),
        Expectation("mean_per_interval_reduction", ">=", 0.025,
                    paper_claim="roughly 5% per STMM interval"),
        Expectation("mean_per_interval_reduction", "<=", 0.08),
        Expectation("reduction_ratio", "~=", 0.5, tolerance=0.24,
                    paper_claim="settles at approximately half"),
        Expectation("escalations", "==", 0),
    ],
    "baselines": [
        Expectation("db2-adaptive:escalations", "==", 0),
        Expectation("db2-adaptive:query_completed", "==", True),
        Expectation("static-2MB-10pct:escalations", ">", 0),
        Expectation("sqlserver-2005:escalations", ">", 0,
                    paper_claim="one reporting query can easily escalate"),
        *[
            Expectation("db2-adaptive:commits", ">=",
                        Finding(f"{other}:commits", 0.98),
                        paper_claim="adaptive never loses throughput")
            for other in ("static-2MB-10pct", "sqlserver-2005")
        ],
        Expectation("db2-adaptive:final_lock_pages", "<",
                    Finding("db2-adaptive:peak_lock_pages"),
                    paper_claim="adaptive relaxes after the spike"),
        Expectation("sqlserver-2005:final_lock_pages", "==",
                    Finding("sqlserver-2005:peak_lock_pages"),
                    paper_claim="SQL Server never returns lock memory"),
    ],
    "two-consumers": [
        Expectation("solo_escalations", "==", 0,
                    paper_claim="one heavy consumer may dominate"),
        Expectation("solo_completed", "==", True),
        Expectation("duo_min_maxlocks_percent", "<", 10.0,
                    paper_claim="two attenuate lockPercentPerApplication"),
        Expectation("duo_peak_lock_pages", "<=", Finding("max_lock_memory_pages"),
                    paper_claim="bounded by maxLockMemory"),
        Expectation("duo_escalations", ">=", 1),
        Expectation("duo_exclusive_escalations", "==", 0),
        Expectation("duo_completed", "==", True),
    ],
    "ablation-delta": [
        Expectation("delta=0.01:excess_page_seconds", ">",
                    Finding("delta=0.05:excess_page_seconds"),
                    paper_claim="slower shrink wastes memory longer"),
        Expectation("delta=0.05:excess_page_seconds", ">",
                    Finding("delta=0.25:excess_page_seconds")),
        Expectation("delta=0.01:time_to_halfway_s", ">",
                    Finding("delta=0.05:time_to_halfway_s")),
        Expectation("delta=0.05:time_to_halfway_s", ">=",
                    Finding("delta=0.25:time_to_halfway_s")),
        *[
            Expectation(f"delta={delta:.2f}:escalations", "==", 0)
            for delta in (0.01, 0.05, 0.10, 0.25)
        ],
    ],
    "ablation-band": [
        Expectation("band=0.75-0.85:allocated_to_used_ratio", ">=",
                    Finding("band=0.50-0.60:allocated_to_used_ratio"),
                    paper_claim="a higher band holds more memory"),
        Expectation("band=0.50-0.60:escalations", "==", 0),
    ],
    "ablation-maxlocks": [
        Expectation("adaptive:escalations", "==", 0,
                    paper_claim="adaptive curve lets the query dominate"),
        Expectation("adaptive:query_completed", "==", True),
        Expectation("fixed10:escalations", ">", 0,
                    paper_claim="a fixed 10% would have escalated"),
    ],
}


def validate(experiment_id: str, result: ExperimentResult) -> List[CheckOutcome]:
    """Evaluate the paper's expectations for one experiment."""
    expectations = PAPER_EXPECTATIONS.get(experiment_id)
    if expectations is None:
        raise KeyError(
            f"no paper expectations for {experiment_id!r}; known: "
            f"{sorted(PAPER_EXPECTATIONS)}"
        )
    return [expectation.evaluate(result) for expectation in expectations]


def render_outcomes(outcomes: List[CheckOutcome]) -> str:
    passed = sum(1 for o in outcomes if o.passed)
    lines = [str(o) for o in outcomes]
    lines.append(f"{passed}/{len(outcomes)} paper-shape checks passed")
    return "\n".join(lines)
