"""repro.obs -- the unified observability layer.

One package behind which every telemetry path of the reproduction
meets:

* :mod:`repro.obs.registry` -- named :class:`Counter` / :class:`Gauge`
  / fixed-bucket :class:`Histogram` instruments in a
  :class:`MetricRegistry`,
* :mod:`repro.obs.instruments` -- :class:`LockManagerInstruments`, the
  pre-resolved bundle the lock manager hot paths observe into,
* :mod:`repro.obs.events` -- :class:`RunTelemetry`, the single
  time-ordered JSONL stream (trace events + controller decisions +
  STMM audit entries + metric samples + registry snapshots) with a
  lossless ``write_jsonl``/``from_jsonl`` round trip,
* :mod:`repro.obs.prometheus` -- dependency-free text-format rendering
  of a registry for the live service's ``/metrics`` endpoint,
* :mod:`repro.obs.audit` -- the bounded STMM decision audit log
  (:class:`TuningAuditLog`) with its closed reason vocabulary,
* :mod:`repro.obs.waits` -- the wait-event profiler
  (:class:`WaitEventProfiler`): wait-class histograms with blocker
  attribution plus Oracle-style latch statistics,
* :mod:`repro.obs.incidents` -- incident forensics
  (:class:`IncidentLog`): structured deadlock / escalation /
  tuner-freeze records with posture, blockers and audit tail,
* :mod:`repro.obs.ring` -- :class:`BoundedRing`, the one bounded ring
  (exact lifetime ``total``) every retained record above goes through,
* :mod:`repro.obs.tracing` -- the one sampled-request record
  (:class:`RequestTracer` / :class:`ServerTracer`): 1-in-N sampled
  requests decomposed into the closed ``HOP_NAMES`` vocabulary with
  per-trace wire-tax attribution -- seven hops across the process
  boundary, the one ``server.lock_wait`` hop in process.

Enable on a database with ``db.enable_telemetry()`` before the run,
collect with ``db.telemetry()`` (or
``RunTelemetry.from_database(db)``) after it, or drive everything from
the CLI::

    python -m repro.analysis.runner fig9 --telemetry out.jsonl --report

See ``docs/OBSERVABILITY.md`` for the event schema, metric names and
the overhead contract.
"""

from repro.obs.audit import (
    AUDIT_REASONS,
    BROKER_REASONS,
    BrokerAuditRecord,
    TuningAuditLog,
    TuningAuditRecord,
    audit_reason_for,
)
from repro.obs.events import (
    SCHEMA_VERSION,
    WAIT_LATENCY_METRIC,
    RunTelemetry,
    load_runs,
)
from repro.obs.instruments import LockManagerInstruments
from repro.obs.prometheus import render_prometheus, sanitize_metric_name
from repro.obs.ring import BoundedRing
from repro.obs.registry import (
    LATENCY_BUCKETS_S,
    SLOT_COUNT_BUCKETS,
    WALL_CLOCK_BUCKETS_S,
    Counter,
    CounterView,
    Gauge,
    Histogram,
    HistogramView,
    MetricRegistry,
    exponential_bounds,
    labeled_name,
    parse_labeled_name,
)
from repro.obs.incidents import (
    INCIDENT_KINDS,
    IncidentLog,
    IncidentRecord,
    IncidentRecorder,
)
from repro.obs.tracing import (
    HOP_NAMES,
    LOCK_HOPS,
    NET_HOPS,
    SERVER_HOPS,
    RequestTrace,
    RequestTracer,
    ServerTracer,
    TraceContext,
    hop_percentiles,
    wire_tax,
    wire_tax_summary,
)
from repro.obs.waits import (
    WAIT_CLASSES,
    WAIT_SECONDS_METRIC,
    LatchStats,
    WaitEvent,
    WaitEventProfiler,
    merged_class_totals,
)

__all__ = [
    "BoundedRing",
    "Counter",
    "CounterView",
    "Gauge",
    "Histogram",
    "HistogramView",
    "MetricRegistry",
    "LockManagerInstruments",
    "RunTelemetry",
    "load_runs",
    "exponential_bounds",
    "labeled_name",
    "parse_labeled_name",
    "render_prometheus",
    "sanitize_metric_name",
    "AUDIT_REASONS",
    "BROKER_REASONS",
    "BrokerAuditRecord",
    "TuningAuditLog",
    "TuningAuditRecord",
    "audit_reason_for",
    "LATENCY_BUCKETS_S",
    "WALL_CLOCK_BUCKETS_S",
    "SLOT_COUNT_BUCKETS",
    "SCHEMA_VERSION",
    "WAIT_LATENCY_METRIC",
    "WAIT_CLASSES",
    "WAIT_SECONDS_METRIC",
    "LatchStats",
    "WaitEvent",
    "WaitEventProfiler",
    "merged_class_totals",
    "INCIDENT_KINDS",
    "IncidentLog",
    "IncidentRecord",
    "IncidentRecorder",
    "HOP_NAMES",
    "LOCK_HOPS",
    "NET_HOPS",
    "SERVER_HOPS",
    "RequestTrace",
    "RequestTracer",
    "ServerTracer",
    "TraceContext",
    "hop_percentiles",
    "wire_tax",
    "wire_tax_summary",
]
