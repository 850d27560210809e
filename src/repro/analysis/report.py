"""Tabular formatting helpers and the per-run telemetry report.

Besides the generic table/findings formatters this module holds
:class:`RunReport`: a compact end-of-run snapshot (throughput, lock-wait
percentiles, escalations, controller decision log, final memory state)
built from a :class:`~repro.obs.events.RunTelemetry`, renderable as
aligned text or JSON.  The runner prints one per run when invoked with
``--report``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import RunTelemetry


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], indent: int = 2
) -> str:
    """Render a simple aligned text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    pad = " " * indent
    lines = [
        pad + "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        pad + "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in str_rows:
        lines.append(pad + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_findings(findings: Dict[str, Any], indent: int = 2) -> str:
    """Render a findings dict as aligned key/value lines."""
    pad = " " * indent
    width = max((len(k) for k in findings), default=0)
    lines = []
    for key in sorted(findings):
        lines.append(f"{pad}{key.ljust(width)}  {_fmt(findings[key])}")
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:,.2f}"
    return str(value)


class RunReport:
    """End-of-run summary of one telemetry stream.

    Build with :meth:`from_telemetry`; render with :meth:`render`
    (aligned text) or :meth:`as_json` (a plain dict, JSON-dumpable).
    Works identically on live telemetry and on streams reloaded from
    JSONL, so reports can be regenerated entirely offline.
    """

    #: Histogram instruments summarized in the latency section.
    LATENCY_METRICS = (
        "lock.wait.latency_s",
        "lock.sync_growth.latency_s",
        "lock.escalation.scan_slots",
    )
    #: Decision-log lines shown by :meth:`render` (JSON keeps all).
    MAX_RENDERED_DECISIONS = 10

    def __init__(self, telemetry: "RunTelemetry") -> None:
        self.telemetry = telemetry

    @classmethod
    def from_telemetry(cls, telemetry: "RunTelemetry") -> "RunReport":
        return cls(telemetry)

    # -- accessors ------------------------------------------------------------

    def _counter(self, name: str) -> float:
        instrument = self.telemetry.registry.get(name)
        return getattr(instrument, "value", 0.0)

    def _gauge(self, name: str) -> float:
        return self._counter(name)  # both expose .value

    @property
    def duration_s(self) -> float:
        return self._gauge("run.duration_s") or self.telemetry.end_time()

    @property
    def throughput_tps(self) -> float:
        duration = self.duration_s
        return self._gauge("run.commits") / duration if duration else 0.0

    def latency_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-histogram count/mean/min/max/p50/p95/p99 summaries."""
        from repro.obs.registry import Histogram

        summaries = {}
        for name in self.LATENCY_METRICS:
            instrument = self.telemetry.registry.get(name)
            if isinstance(instrument, Histogram):
                summaries[name] = instrument.summary()
        return summaries

    # -- output ---------------------------------------------------------------

    def as_json(self) -> Dict[str, Any]:
        """The full report as one JSON-serializable dict."""
        from dataclasses import asdict

        tel = self.telemetry
        return {
            "label": tel.label,
            "duration_s": self.duration_s,
            "throughput": {
                "commits": self._gauge("run.commits"),
                "rollbacks": self._gauge("run.rollbacks"),
                "commits_per_s": self.throughput_tps,
            },
            "locking": {
                "requests": self._counter("lock.requests"),
                "immediate_grants": self._counter("lock.grants.immediate"),
                "waits": self._counter("lock.waits"),
                "deadlocks": self._counter("lock.deadlocks"),
                "timeouts": self._counter("lock.timeouts"),
                "lock_list_full_errors": self._counter("lock.list_full_errors"),
                "wait_time_total_s": self._gauge("lock.wait.time_total_s"),
            },
            "escalations": {
                "count": self._counter("lock.escalations"),
                "exclusive": self._counter("lock.escalations.exclusive"),
                "failed": self._counter("lock.escalations.failed"),
            },
            "memory": {
                "final_allocated_pages": self._gauge("lock.final.allocated_pages"),
                "final_used_slots": self._gauge("lock.final.used_slots"),
                "final_maxlocks_fraction": self._gauge(
                    "lock.final.maxlocks_fraction"
                ),
                "sync_growth_blocks": self._counter(
                    "lock.sync_growth.blocks_total"
                ),
            },
            "latencies": self.latency_summaries(),
            "trace_event_counts": tel.event_counts(),
            "decisions": [asdict(d) for d in tel.decisions],
        }

    def render(self) -> str:
        """The report as aligned, sectioned text."""
        data = self.as_json()
        lines: List[str] = [f"run report: {data['label']}"]

        def section(title: str, pairs: Dict[str, Any]) -> None:
            lines.append(f"\n{title}:")
            lines.append(format_findings(pairs))

        section(
            "throughput",
            {
                "duration_s": data["duration_s"],
                "commits": data["throughput"]["commits"],
                "rollbacks": data["throughput"]["rollbacks"],
                "commits_per_s": data["throughput"]["commits_per_s"],
            },
        )
        section("locking", data["locking"])
        section("escalations", data["escalations"])
        section("memory", data["memory"])
        for name, summary in data["latencies"].items():
            if summary.get("count", 0) == 0:
                section(name, {"count": 0, "note": "no observations"})
                continue
            section(
                name,
                {
                    "count": summary["count"],
                    "mean": summary["mean"],
                    "min": summary["min"],
                    "max": summary["max"],
                    "p50": summary["p50"],
                    "p95": summary["p95"],
                    "p99": summary["p99"],
                },
            )
        if data["trace_event_counts"]:
            section("trace events", data["trace_event_counts"])
        decisions = data["decisions"]
        lines.append(f"\ncontroller decisions: {len(decisions)}")
        if decisions:
            shown = decisions[-self.MAX_RENDERED_DECISIONS:]
            if len(decisions) > len(shown):
                lines.append(f"  (last {len(shown)} of {len(decisions)})")
            lines.append(
                format_table(
                    ["t", "reason", "pages", "used", "free", "target"],
                    [
                        [
                            d["time"], d["reason"], d["current_pages"],
                            d["used_pages"], round(d["free_fraction"], 3),
                            d["target_pages"],
                        ]
                        for d in shown
                    ],
                )
            )
        return "\n".join(lines)

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.as_json(), handle, indent=2)
