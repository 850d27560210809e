"""One time-ordered telemetry stream per run, exported as JSONL.

:class:`RunTelemetry` holds every record a run emitted plus its
:class:`~repro.obs.registry.MetricRegistry`, and serializes them as one
time-ordered JSONL stream that :meth:`RunTelemetry.from_jsonl` reads
back losslessly, so a run can be audited entirely offline.

Every record is one JSON object on one line in one envelope: ``kind``
first, then the record's fields.  The kinds (schema version 5):

=============  ==============================================================
``meta``       run header: ``version``, ``label`` (first line of every run)
``trace``      one lock manager event: ``t``, ``event``, ``app``,
               ``detail``, ``resource``, ``value``
``decision``   one controller tuning decision (all ControllerDecision fields)
``audit``      one STMM tuning audit entry (all TuningAuditRecord fields)
``wait``       one completed wait event from the wait-event profiler
               (``t``, ``class``, ``app``, ``duration_s``, blocker
               attribution)
``incident``   one incident forensics record (all IncidentRecord fields,
               its ``kind`` as ``incident_kind``)
``broker``     one whole-memory broker audit entry (all BrokerAuditRecord
               fields)
``reqtrace``   one completed end-to-end request trace (all RequestTrace
               fields: trace/span ids, hop durations, wire tax) --
               distinct from the lock manager's ``trace`` event records
``sample``     one metric sample: ``t``, ``series``, ``value``
``counter``    final counter value: ``name``, ``value``
``gauge``      final gauge value: ``name``, ``value``
``histogram``  full histogram snapshot (bounds, bucket counts, sum, min/max)
=============  ==============================================================

One table, :data:`_KINDS`, holds per kind where a run keeps its
records, how a record becomes its fields and back, and which fields
travel renamed (a record's ``time`` is the stream's leading ``t``).
The one writer, :meth:`RunTelemetry.records`, merges the timed kinds
in ``t`` order (ties in table order) and closes with the registry
snapshots; the one reader, :func:`load_runs`, walks the same table and
accepts :data:`SCHEMA_VERSION` only.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter as TallyCounter
from operator import itemgetter
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List,
    NamedTuple, Optional,
)

from repro.core.controller import ControllerDecision
from repro.engine.metrics import MetricsRecorder
from repro.lockmgr.tracing import TraceEvent
from repro.obs.audit import BrokerAuditRecord, TuningAuditRecord
from repro.obs.incidents import IncidentRecord
from repro.obs.registry import Histogram, MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database

#: The one schema version this module writes and reads.
SCHEMA_VERSION = 5

#: The histogram the lock manager observes wait durations into.
WAIT_LATENCY_METRIC = "lock.wait.latency_s"


class RunTelemetry:
    """Everything one run emitted, unified and (de)serializable.

    Build with :meth:`from_database` after a simulation finishes, or
    :meth:`from_jsonl` to reload an exported stream.  Construct
    directly for synthetic streams in tests.
    """

    def __init__(
        self,
        label: str = "run",
        trace_events: Optional[List[TraceEvent]] = None,
        decisions: Optional[List[ControllerDecision]] = None,
        metrics: Optional[MetricsRecorder] = None,
        registry: Optional[MetricRegistry] = None,
        audit: Optional[List[TuningAuditRecord]] = None,
        waits: Optional[List[Dict[str, Any]]] = None,
        incidents: Optional[List[IncidentRecord]] = None,
        broker: Optional[List[BrokerAuditRecord]] = None,
        traces: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        self.label = label
        self.trace_events = trace_events or []
        self.decisions = decisions or []
        self.metrics = metrics or MetricsRecorder()
        self.registry = registry or MetricRegistry()
        self.audit = audit or []
        #: Raw wait events as dicts (the profiler ring's ``to_dicts``).
        self.waits = waits or []
        self.incidents = incidents or []
        #: Whole-memory broker audit entries (trades and postures).
        self.broker = broker or []
        #: Completed end-to-end request traces as dicts (the client
        #: trace ring's ``to_dicts``; see :mod:`repro.obs.tracing`).
        self.traces = traces or []

    # -- construction --------------------------------------------------------

    @classmethod
    def from_database(cls, database: "Database", label: str = "run") -> "RunTelemetry":
        """Collect a finished database run into one telemetry object.

        Copies the lock manager's aggregate :class:`LockManagerStats`
        into registry counters/gauges (idempotently -- values are
        assigned, not added), so the exported stream carries the final
        totals even when only tracing was enabled.
        """
        tracer = database.lock_manager.tracer
        controller = getattr(database.policy, "controller", None)
        registry = getattr(database, "obs_registry", None) or MetricRegistry()
        telemetry = cls(
            label=label,
            trace_events=list(tracer) if tracer is not None else [],
            decisions=list(controller.decisions) if controller is not None else [],
            metrics=database.metrics,
            registry=registry,
        )
        telemetry._sync_final_state(database)
        return telemetry

    def _sync_final_state(self, database: "Database") -> None:
        stats = database.lock_manager.stats
        reg = self.registry
        for name, value in (
            ("lock.requests", stats.requests),
            ("lock.grants.immediate", stats.immediate_grants),
            ("lock.waits", stats.waits),
            ("lock.deadlocks", stats.deadlocks),
            ("lock.timeouts", stats.lock_timeouts),
            ("lock.list_full_errors", stats.lock_list_full_errors),
            ("lock.escalations", stats.escalations.count),
            ("lock.escalations.exclusive", stats.escalations.exclusive_count),
            ("lock.escalations.failed", stats.escalations.failures),
            ("lock.sync_growth.blocks_total", stats.sync_growth_blocks),
        ):
            reg.counter(name).value = float(value)
        for name, value in (
            ("run.duration_s", database.env.now),
            ("run.commits", database.commits),
            ("run.rollbacks", database.rollbacks),
            ("lock.final.allocated_pages", database.chain.allocated_pages),
            ("lock.final.used_slots", database.chain.used_slots),
            ("lock.final.maxlocks_fraction",
             database.lock_manager.maxlocks_fraction),
            ("lock.wait.time_total_s", stats.wait_time_total),
        ):
            reg.gauge(name).set(float(value))

    # -- queries -------------------------------------------------------------

    def event_counts(self) -> Dict[str, int]:
        """Trace events tallied per kind."""
        return dict(TallyCounter(e.kind for e in self.trace_events))

    def wait_latency(self) -> Optional[Histogram]:
        """The lock-wait latency histogram, if the run recorded one."""
        instrument = self.registry.get(WAIT_LATENCY_METRIC)
        return instrument if isinstance(instrument, Histogram) else None

    @property
    def decision_count(self) -> int:
        return len(self.decisions)

    def end_time(self) -> float:
        """Latest ``t`` of any timed record (0.0 when there is none)."""
        return max(
            (
                record["t"]
                for kind in _KINDS.values() if kind.timed
                for record in kind.fields(self)
            ),
            default=0.0,
        )

    # -- serialization -------------------------------------------------------

    def records(self) -> Iterator[Dict[str, Any]]:
        """The full record stream: meta, time-ordered events, snapshots."""
        yield {"kind": "meta", "version": SCHEMA_VERSION, "label": self.label}
        by_time = itemgetter("t")
        yield from heapq.merge(
            *(
                _tagged(name, sorted(kind.fields(self), key=by_time))
                for name, kind in _KINDS.items() if kind.timed
            ),
            key=by_time,
        )
        for name, kind in _KINDS.items():
            if not kind.timed:
                yield from _tagged(name, kind.fields(self))

    def write_jsonl(self, path: str, append: bool = False) -> int:
        """Write the stream to ``path``; returns the record count."""
        written = 0
        with open(path, "a" if append else "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record, separators=(",", ":")))
                handle.write("\n")
                written += 1
        return written

    @classmethod
    def from_jsonl(cls, path: str) -> "RunTelemetry":
        """Reload a single-run JSONL stream written by :meth:`write_jsonl`."""
        runs = load_runs(path)
        if not runs:
            raise ValueError(f"{path}: no telemetry runs found")
        if len(runs) > 1:
            raise ValueError(
                f"{path} holds {len(runs)} runs; use repro.obs.load_runs()"
            )
        return runs[0]

    def __repr__(self) -> str:
        return (
            f"RunTelemetry({self.label!r}, {len(self.trace_events)} trace "
            f"events, {len(self.decisions)} decisions, "
            f"{len(self.audit)} audit records, "
            f"{len(self.waits)} waits, {len(self.incidents)} incidents, "
            f"{len(self.broker)} broker records, "
            f"{len(self.traces)} request traces, "
            f"{len(self.metrics.names())} series)"
        )


def load_runs(path: str) -> List[RunTelemetry]:
    """Read every run from a (possibly multi-run) JSONL telemetry file.

    A ``meta`` record starts a new run; records before the first
    ``meta`` (a hand-built file) fall into an implicit ``"run"``.
    """
    runs: List[RunTelemetry] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_number}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: bad JSON: {exc}") from exc
            name = record.pop("kind", None)
            if name == "meta":
                version = record.get("version")
                if version != SCHEMA_VERSION:
                    raise ValueError(
                        f"{where}: schema version {version}, this reader "
                        f"handles {SCHEMA_VERSION}"
                    )
                runs.append(RunTelemetry(label=record.get("label", "run")))
                continue
            kind = _KINDS.get(name)
            if kind is None:
                raise ValueError(f"{where}: unknown record kind {name!r}")
            if not runs:
                runs.append(RunTelemetry())
            kind.add(runs[-1], record)
    return runs


class _Kind(NamedTuple):
    """How one record kind travels between a run and the stream."""

    #: The run's records of this kind, each as its stream fields.
    fields: Callable[[RunTelemetry], Iterable[Dict[str, Any]]]
    #: Put one record, given its stream fields, back into the run.
    add: Callable[[RunTelemetry, Dict[str, Any]], None]
    #: Carries ``t`` and merges in time order (else an end-of-run
    #: registry snapshot, written after every timed record).
    timed: bool = True


def _listed(attr: str, encode: Callable, decode: Callable, **renames: str) -> _Kind:
    """A kind the run keeps as the list ``attr``: ``encode`` turns a
    record into its fields and ``decode`` turns them back; ``renames``
    maps a field to its stream key.  The field renamed to ``t`` leads."""
    back = {key: field for field, key in renames.items()}

    def fields(run: RunTelemetry) -> Iterator[Dict[str, Any]]:
        for item in getattr(run, attr):
            raw = encode(item)
            record = {"t": raw.pop(back["t"])} if "t" in back else {}
            record.update((renames.get(k, k), v) for k, v in raw.items())
            yield record

    def add(run: RunTelemetry, record: Dict[str, Any]) -> None:
        getattr(run, attr).append(
            decode({back.get(k, k): v for k, v in record.items()})
        )

    return _Kind(fields, add)


def _copy_vars(record: Any) -> Dict[str, Any]:
    """A flat dataclass's fields, in declaration order (no deep copy)."""
    return dict(vars(record))


def _samples(run: RunTelemetry) -> Iterator[Dict[str, Any]]:
    for t, row in run.metrics.to_rows():
        for series in sorted(row):
            yield {"t": t, "series": series, "value": row[series]}


def _add_counter(run: RunTelemetry, record: Dict[str, Any]) -> None:
    run.registry.counter(record["name"]).value = float(record["value"])


def _values(group: str) -> Callable[[RunTelemetry], Iterator[Dict[str, Any]]]:
    """A registry snapshot group as ``{name, value}`` records."""
    def fields(run: RunTelemetry) -> Iterator[Dict[str, Any]]:
        for name, value in run.registry.snapshot()[group].items():
            yield {"name": name, "value": value}

    return fields


def _tagged(name: str, records: Iterable[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    return ({"kind": name, **record} for record in records)


#: Every record kind after ``meta``, in stream order (ties in ``t`` go
#: to the kind listed first).
_KINDS: Dict[str, _Kind] = {
    "trace": _listed(
        "trace_events", _copy_vars, lambda f: TraceEvent(**f),
        time="t", kind="event", app_id="app",
    ),
    "decision": _listed(
        "decisions", _copy_vars, lambda f: ControllerDecision(**f), time="t"
    ),
    "audit": _listed(
        "audit", TuningAuditRecord.to_dict, TuningAuditRecord.from_dict,
        time="t",
    ),
    "wait": _listed("waits", dict, dict),
    # The incident's own kind travels as ``incident_kind``: ``kind``
    # is the stream's.
    "incident": _listed(
        "incidents", IncidentRecord.to_dict, IncidentRecord.from_dict,
        time="t", kind="incident_kind",
    ),
    "broker": _listed(
        "broker", BrokerAuditRecord.to_dict, BrokerAuditRecord.from_dict,
        time="t",
    ),
    "reqtrace": _listed("traces", dict, dict),
    "sample": _Kind(
        _samples,
        lambda run, r: run.metrics.record(r["series"], r["t"], r["value"]),
    ),
    "counter": _Kind(_values("counters"), _add_counter, timed=False),
    "gauge": _Kind(
        _values("gauges"),
        lambda run, r: run.registry.gauge(r["name"]).set(r["value"]),
        timed=False,
    ),
    "histogram": _Kind(
        lambda run: run.registry.snapshot()["histograms"].values(),
        lambda run, r: run.registry.install(Histogram.from_snapshot(r)),
        timed=False,
    ),
}


__all__ = [
    "RunTelemetry",
    "load_runs",
    "SCHEMA_VERSION",
    "WAIT_LATENCY_METRIC",
]
