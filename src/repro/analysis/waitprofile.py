"""Offline wait-profile analysis over a telemetry JSONL stream.

The consumer side of the wait-event profiler and incident forensics:
``repro-service stress --wait-profile --telemetry run.jsonl`` records a
run; :func:`analyze_run` turns the reloaded
:class:`~repro.obs.events.RunTelemetry` into a
:class:`WaitProfileReport` -- the offline pass the ROADMAP's
closed-loop controller-autotuning item consumes:

* **wait-time breakdown by class** -- primary source is the
  ``service.wait.seconds{class=...}`` histograms in the stream's
  registry snapshot (exact totals, summed across shard labels); when a
  stream carries no histograms (hand-built, or profiling off) the raw
  ``wait`` records stand in, flagged as ring-bounded;
* **top-N blockers** -- from the raw wait events' blocker attribution:
  per blocking application, how many lock waits it gated and how much
  blocked time it caused;
* **tuner convergence** -- from the audit trail: when the tuner last
  *acted* (the convergence time: everything after is ``noop``), the
  per-reason action counts, controller decision count and incident
  counts per kind.

``repro-service analyze run.jsonl`` renders the report as aligned text
(or ``--json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.report import format_table
from repro.obs.events import RunTelemetry
from repro.obs.incidents import INCIDENT_KINDS
from repro.obs.tracing import HOP_NAMES, hop_percentiles, wire_tax_summary
from repro.obs.waits import WAIT_CLASSES, WAIT_SECONDS_METRIC

#: The per-worker wire-latency histogram the routed client records,
#: one observation per sampled request (untraced ones are not timed).
WIRE_LATENCY_METRIC = "net.client.request_latency_s"


@dataclass
class BlockerEntry:
    """One blocking application's aggregate impact."""

    app_id: int
    waits_caused: int
    blocked_seconds: float
    max_depth: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app_id,
            "waits_caused": self.waits_caused,
            "blocked_seconds": self.blocked_seconds,
            "max_depth": self.max_depth,
        }


@dataclass
class WaitProfileReport:
    """The offline analysis of one recorded run."""

    label: str
    #: ``{class: {"count": int, "seconds": float}}`` for every class.
    wait_breakdown: Dict[str, Dict[str, float]]
    #: "histograms" (exact) or "ring" (bounded raw events) or "none".
    breakdown_source: str
    top_blockers: List[BlockerEntry]
    #: Time of the last non-noop audit action (None: tuner never acted).
    converged_at: Optional[float]
    #: Audit actions per reason (the closed audit vocabulary).
    audit_reasons: Dict[str, int]
    decision_count: int
    incident_counts: Dict[str, int]
    #: Raw wait events carried in the stream (ring-bounded at capture).
    raw_wait_events: int = 0
    #: Broker audit actions per reason (empty: run had no broker).
    broker_reasons: Dict[str, int] = field(default_factory=dict)
    #: Pages moved by ``trade-benefit`` records, per (from, to) pair
    #: rendered as ``"donor->receiver"``.
    broker_trades: Dict[str, int] = field(default_factory=dict)
    #: Final pressure posture the broker recorded (None: no broker, or
    #: the run never left ``normal``).
    broker_final_posture: Optional[str] = None
    #: Sampled end-to-end request traces carried in the stream.
    trace_count: int = 0
    #: ``{hop: {count, p50, p99, total_s}}`` over the trace hops.
    trace_hops: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: ``{net_s, lock_s, fraction}`` -- the aggregate wire tax.
    trace_wire_tax: Dict[str, float] = field(default_factory=dict)
    #: ``{worker: {count, p50, p99, total_s}}`` from the routed
    #: client's per-worker wire-latency histograms (sampled requests).
    wire_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "wait_breakdown": self.wait_breakdown,
            "breakdown_source": self.breakdown_source,
            "top_blockers": [b.to_dict() for b in self.top_blockers],
            "converged_at": self.converged_at,
            "audit_reasons": self.audit_reasons,
            "decision_count": self.decision_count,
            "incident_counts": self.incident_counts,
            "raw_wait_events": self.raw_wait_events,
            "broker_reasons": self.broker_reasons,
            "broker_trades": self.broker_trades,
            "broker_final_posture": self.broker_final_posture,
            "trace_count": self.trace_count,
            "trace_hops": self.trace_hops,
            "trace_wire_tax": self.trace_wire_tax,
            "wire_latency": self.wire_latency,
            "notes": self.notes,
        }

    def render_text(self) -> str:
        lines = [f"wait profile: {self.label}"]
        lines.append("")
        lines.append(f"wait-time breakdown (source: {self.breakdown_source}):")
        rows = []
        total_s = sum(v["seconds"] for v in self.wait_breakdown.values())
        for cls in WAIT_CLASSES:
            entry = self.wait_breakdown.get(cls)
            if entry is None or entry["count"] == 0:
                continue
            share = entry["seconds"] / total_s if total_s > 0 else 0.0
            rows.append(
                [
                    cls,
                    int(entry["count"]),
                    f"{entry['seconds']:.6f}",
                    f"{share:.1%}",
                ]
            )
        if rows:
            lines.append(
                format_table(["class", "count", "seconds", "share"], rows)
            )
        else:
            lines.append("  (no waits recorded)")
        lines.append("")
        lines.append("top blockers:")
        if self.top_blockers:
            lines.append(
                format_table(
                    ["app", "waits caused", "blocked s", "max depth"],
                    [
                        [
                            b.app_id,
                            b.waits_caused,
                            f"{b.blocked_seconds:.6f}",
                            b.max_depth,
                        ]
                        for b in self.top_blockers
                    ],
                )
            )
        else:
            lines.append("  (no attributed lock waits)")
        lines.append("")
        lines.append("tuner convergence:")
        if self.converged_at is not None:
            lines.append(f"  last action at t={self.converged_at:.3f}s")
        else:
            lines.append("  tuner never acted (no non-noop audit entry)")
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(self.audit_reasons.items())
            if count
        )
        lines.append(f"  audit actions: {reasons or '(none)'}")
        lines.append(f"  controller decisions: {self.decision_count}")
        incidents = ", ".join(
            f"{kind}={count}"
            for kind, count in self.incident_counts.items()
            if count
        )
        lines.append(f"  incidents: {incidents or '(none)'}")
        if self.trace_count:
            lines.append("")
            lines.append("request traces:")
            tax = self.trace_wire_tax
            lines.append(
                f"  {self.trace_count} sampled end-to-end traces, "
                f"wire tax {tax.get('fraction', 0.0):.1%} "
                f"(net {tax.get('net_s', 0.0):.6f}s vs "
                f"lock {tax.get('lock_s', 0.0):.6f}s)"
            )
            rows = [
                [
                    hop,
                    int(entry["count"]),
                    f"{entry['p50']:.6f}",
                    f"{entry['p99']:.6f}",
                    f"{entry['total_s']:.6f}",
                ]
                for hop in HOP_NAMES
                if (entry := self.trace_hops.get(hop)) is not None
            ]
            if rows:
                lines.append(
                    format_table(
                        ["hop", "count", "p50 s", "p99 s", "total s"], rows
                    )
                )
        if self.wire_latency:
            lines.append("")
            lines.append("wire latency (sampled requests, per worker):")
            lines.append(
                format_table(
                    ["worker", "count", "p50 s", "p99 s", "total s"],
                    [
                        [
                            worker,
                            int(entry["count"]),
                            f"{entry['p50']:.6f}",
                            f"{entry['p99']:.6f}",
                            f"{entry['total_s']:.6f}",
                        ]
                        for worker, entry in sorted(self.wire_latency.items())
                    ],
                )
            )
        if self.broker_reasons:
            lines.append("")
            lines.append("memory broker:")
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.broker_reasons.items())
                if count
            )
            lines.append(f"  broker actions: {reasons}")
            for pair, pages in sorted(self.broker_trades.items()):
                lines.append(f"  traded {pair}: {pages} pages")
            if self.broker_final_posture is not None:
                lines.append(
                    f"  final posture: {self.broker_final_posture}"
                )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def analyze_run(telemetry: RunTelemetry, top_n: int = 5) -> WaitProfileReport:
    """Build the wait-profile report for one reloaded run."""
    breakdown, source, notes = _wait_breakdown(telemetry)
    broker_reasons, broker_trades, final_posture = _broker_summary(telemetry)
    traces = getattr(telemetry, "traces", []) or []
    return WaitProfileReport(
        label=telemetry.label,
        wait_breakdown=breakdown,
        breakdown_source=source,
        top_blockers=_top_blockers(telemetry, top_n),
        converged_at=_converged_at(telemetry),
        audit_reasons=_audit_reasons(telemetry),
        decision_count=len(telemetry.decisions),
        incident_counts=_incident_counts(telemetry),
        raw_wait_events=len(telemetry.waits),
        broker_reasons=broker_reasons,
        broker_trades=broker_trades,
        broker_final_posture=final_posture,
        trace_count=len(traces),
        trace_hops=hop_percentiles(traces) if traces else {},
        trace_wire_tax=wire_tax_summary(traces) if traces else {},
        wire_latency=_wire_latency(telemetry),
        notes=notes,
    )


def _wait_breakdown(telemetry: RunTelemetry):
    """Class totals from histograms, falling back to the raw ring."""
    breakdown = {cls: {"count": 0, "seconds": 0.0} for cls in WAIT_CLASSES}
    notes: List[str] = []
    found = False
    for hist in telemetry.registry.histograms():
        if hist.base_name != WAIT_SECONDS_METRIC:
            continue
        labels = dict(hist.labels)
        cls = labels.get("class")
        if cls is None or cls not in breakdown:
            continue
        breakdown[cls]["count"] += hist.count
        breakdown[cls]["seconds"] += hist.sum
        found = True
    if found:
        return breakdown, "histograms", notes
    if telemetry.waits:
        for wait in telemetry.waits:
            cls = wait.get("class")
            if cls in breakdown:
                breakdown[cls]["count"] += 1
                breakdown[cls]["seconds"] += float(wait.get("duration_s", 0.0))
        notes.append(
            "breakdown rebuilt from the bounded raw-event ring; "
            "totals may undercount long runs"
        )
        return breakdown, "ring", notes
    notes.append("stream carries no wait histograms or raw wait events")
    return breakdown, "none", notes


def _top_blockers(telemetry: RunTelemetry, top_n: int) -> List[BlockerEntry]:
    tally: Dict[int, BlockerEntry] = {}
    for wait in telemetry.waits:
        if not str(wait.get("class", "")).startswith("lock."):
            continue
        blocker = wait.get("blocker")
        if blocker is None:
            continue
        blocker = int(blocker)
        entry = tally.get(blocker)
        if entry is None:
            entry = tally[blocker] = BlockerEntry(blocker, 0, 0.0, 0)
        entry.waits_caused += 1
        entry.blocked_seconds += float(wait.get("duration_s", 0.0))
        entry.max_depth = max(entry.max_depth, int(wait.get("depth", 0)))
    worst = sorted(
        tally.values(), key=lambda b: (-b.blocked_seconds, b.app_id)
    )
    return worst[: max(0, top_n)]


def _converged_at(telemetry: RunTelemetry) -> Optional[float]:
    last_action = None
    for record in telemetry.audit:
        if record.reason != "noop":
            last_action = record.time
    return last_action


def _audit_reasons(telemetry: RunTelemetry) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in telemetry.audit:
        counts[record.reason] = counts.get(record.reason, 0) + 1
    return counts


def _broker_summary(telemetry: RunTelemetry):
    """Reason counts, per-pair trade volume and last posture from the
    broker records (all empty/None when the run had no broker)."""
    reasons: Dict[str, int] = {}
    trades: Dict[str, int] = {}
    posture: Optional[str] = None
    for record in getattr(telemetry, "broker", []) or []:
        reasons[record.reason] = reasons.get(record.reason, 0) + 1
        if record.reason == "trade-benefit":
            pair = f"{record.heap_from}->{record.heap_to}"
            trades[pair] = trades.get(pair, 0) + record.pages
        posture = record.posture
    return reasons, trades, posture


def _wire_latency(telemetry: RunTelemetry) -> Dict[str, Dict[str, float]]:
    """Per-worker wire-latency percentiles from the client histograms,
    which the routed client feeds from its sampled requests only."""
    report: Dict[str, Dict[str, float]] = {}
    for hist in telemetry.registry.histograms():
        if hist.base_name != WIRE_LATENCY_METRIC or hist.count == 0:
            continue
        worker = dict(hist.labels).get("worker", "?")
        report[worker] = {
            "count": hist.count,
            "p50": hist.percentile(50),
            "p99": hist.percentile(99),
            "total_s": hist.sum,
        }
    return report


def _incident_counts(telemetry: RunTelemetry) -> Dict[str, int]:
    counts = {kind: 0 for kind in INCIDENT_KINDS}
    for incident in telemetry.incidents:
        counts[incident.kind] = counts.get(incident.kind, 0) + 1
    return counts


__all__ = ["BlockerEntry", "WaitProfileReport", "analyze_run"]
