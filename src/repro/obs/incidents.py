"""Incident forensics: structured records for the moments that hurt.

The wait profiler (:mod:`repro.obs.waits`) answers "where does time
go"; this module answers "what exactly happened" at the three discrete
failure events the paper's tuning loop is designed around:

``deadlock``
    A victim was chosen -- by the immediate cycle check in the lock
    manager or by the cross-shard sweep.  The record carries the
    wait-for cycle, the contended resource and the victim rationale.
``escalation``
    A row-to-table escalation fired (paper section 3.1's signal).  The
    record carries the escalated table, trigger reason, rows freed and
    whether waiters were stalled behind the escalating app.
``tuner-freeze``
    The tuning daemon crashed and froze the LOCKLIST (degraded static
    mode).  The record carries the exception and final chain posture.

Every record also snapshots the lock-table *posture* (pages, slots,
free fraction, waiter count), the top blockers at capture time, and the
tail of the STMM audit ring -- the context a DBA would pull from DB2's
``db2pd -locks`` plus the event monitor after the fact.  Records live
in a bounded ring (:class:`IncidentLog`, the audit ring keyed on kind),
are served on the ``/incidents`` ops endpoint, and ride the telemetry
JSONL as ``incident`` records.

Capture cost is paid only when an incident fires -- deadlocks,
escalations and freezes are rare by construction -- so incident
recording is always on; the hot-path contract is the usual single
``is None`` check at each capture site.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.audit import TuningAuditLog

#: Closed vocabulary of incident kinds.  ``worker-crash`` is the
#: multi-process analogue of ``tuner-freeze``: a worker process died
#: and the surviving pool froze to static LOCKLIST sizing.
INCIDENT_KINDS = ("deadlock", "escalation", "tuner-freeze", "worker-crash")


@dataclass
class IncidentRecord:
    """One captured incident with its forensic context."""

    #: One of :data:`INCIDENT_KINDS`.
    kind: str
    #: Clock time of capture (wall seconds for the live service).
    time: float
    #: Application at the center of the incident (victim / escalator),
    #: or -1 for chain-level incidents (tuner freeze).
    app_id: int
    #: Shard the incident fired on (0 for the unsharded stack).
    shard: int
    #: Human-readable rationale (victim choice, trigger, crash message).
    detail: str
    #: Wait-for cycle as app ids, victim first (deadlocks only).
    cycle: List[int] = field(default_factory=list)
    #: Lock-table posture at capture time.
    posture: Dict[str, Any] = field(default_factory=dict)
    #: ``[{app, waiters_blocked, slots_held}, ...]`` -- worst first.
    blockers: List[Dict[str, Any]] = field(default_factory=list)
    #: Most recent STMM audit entries at capture time.
    audit_tail: List[Dict[str, Any]] = field(default_factory=list)
    #: Kind-specific extras (escalated table, rows freed, ...).
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "IncidentRecord":
        return cls(
            kind=str(record["kind"]),
            time=float(record["time"]),
            app_id=int(record["app_id"]),
            shard=int(record["shard"]),
            detail=str(record["detail"]),
            cycle=[int(app) for app in record.get("cycle", [])],
            posture=dict(record.get("posture", {})),
            blockers=[dict(b) for b in record.get("blockers", [])],
            audit_tail=[dict(a) for a in record.get("audit_tail", [])],
            data=dict(record.get("data", {})),
        )


#: Incidents the shared ring holds; older ones are evicted, counted.
INCIDENT_CAPACITY = 128


class IncidentLog(TuningAuditLog):
    """The audit ring keyed on :attr:`IncidentRecord.kind`.

    Appends come from request threads (deadlock, escalation) and the
    tuner thread (freeze); reads come from HTTP handler threads via
    ``/incidents``.
    """

    KEYED_ON = ("incident", "kind")

    def __init__(self, capacity: int = INCIDENT_CAPACITY) -> None:
        super().__init__(capacity, INCIDENT_KINDS)

    def kinds(self) -> List[str]:
        """The kind sequence currently in the ring, oldest first."""
        return self.reasons()

    def kind_counts(self) -> Dict[str, int]:
        """``{kind: count}`` over the current ring contents."""
        counts = {kind: 0 for kind in INCIDENT_KINDS}
        for kind in self.kinds():
            counts[kind] += 1
        return counts


class IncidentRecorder:
    """Capture-site helper bound to one lock domain (shard).

    The stacks create one per shard, all feeding a single shared
    :class:`IncidentLog`; the recorder knows how to snapshot a lock
    manager's posture and top blockers at the moment of capture.  The
    ``audit`` attribute is wired by the stack once the tuner exists
    (capture sites run before tuner construction during wiring).
    """

    def __init__(self, log: IncidentLog, *, shard: int = 0, audit=None) -> None:
        self.log = log
        self.shard = shard
        self.audit = audit
        #: ``{app_id: trace_id}`` for requests currently executing under
        #: a sampled trace (set/popped by the server's traced execute
        #: path).  Incidents captured against an app in this map carry
        #: ``data["trace_id"]``, linking the incident to the trace it
        #: hurt.  Plain dict, GIL-atomic set/pop -- no lock.
        self.trace_ids: Dict[int, int] = {}

    # -- capture sites -------------------------------------------------

    def record_deadlock(
        self,
        manager,
        app_id: int,
        resource,
        cycle: List[int],
        detail: str,
    ) -> None:
        """A deadlock victim was just chosen (before its error raises)."""
        data: Dict[str, Any] = {"resource": str(resource)}
        trace_id = self._trace_of(app_id, cycle)
        if trace_id is not None:
            data["trace_id"] = trace_id
        self.log.append(
            IncidentRecord(
                kind="deadlock",
                time=manager.env.now,
                app_id=app_id,
                shard=self.shard,
                detail=detail,
                cycle=list(cycle),
                posture=self._posture(manager),
                blockers=self._top_blockers(manager),
                audit_tail=self._audit_tail(),
                data=data,
            )
        )

    def record_escalation(
        self,
        manager,
        app_id: int,
        table_id: int,
        reason: str,
        rows_freed: int,
        waiters_present: bool,
    ) -> None:
        """A row-to-table escalation just completed."""
        data: Dict[str, Any] = {
            "table_id": table_id,
            "reason": reason,
            "rows_freed": rows_freed,
            "waiters_present": waiters_present,
        }
        trace_id = self._trace_of(app_id)
        if trace_id is not None:
            data["trace_id"] = trace_id
        self.log.append(
            IncidentRecord(
                kind="escalation",
                time=manager.env.now,
                app_id=app_id,
                shard=self.shard,
                detail=f"escalated table {table_id} ({reason})",
                posture=self._posture(manager),
                blockers=self._top_blockers(manager),
                audit_tail=self._audit_tail(),
                data=data,
            )
        )

    def record_freeze(self, chain, now: float, exc: BaseException) -> None:
        """The tuning daemon crashed; the LOCKLIST is frozen."""
        self.log.append(
            IncidentRecord(
                kind="tuner-freeze",
                time=now,
                app_id=-1,
                shard=self.shard,
                detail=f"{type(exc).__name__}: {exc}",
                posture={
                    "allocated_pages": chain.allocated_pages,
                    "used_slots": chain.used_slots,
                    "capacity_slots": chain.capacity_slots,
                },
                audit_tail=self._audit_tail(),
            )
        )

    def _trace_of(
        self, app_id: int, cycle: Optional[List[int]] = None
    ) -> Optional[int]:
        """The trace id executing as ``app_id`` (or anyone in the
        cycle), if a sampled trace is in flight there."""
        trace_id = self.trace_ids.get(app_id)
        if trace_id is not None:
            return trace_id
        for app in cycle or ():
            trace_id = self.trace_ids.get(app)
            if trace_id is not None:
                return trace_id
        return None

    # -- snapshot helpers ----------------------------------------------

    @staticmethod
    def _posture(manager) -> Dict[str, Any]:
        chain = manager.chain
        capacity = chain.capacity_slots
        free = (capacity - chain.used_slots) / capacity if capacity else 0.0
        return {
            "allocated_pages": chain.allocated_pages,
            "used_slots": chain.used_slots,
            "capacity_slots": capacity,
            "free_fraction": round(free, 4),
            "maxlocks_fraction": manager.maxlocks_fraction,
            "waiting_apps": len(manager.waiting_apps()),
        }

    @staticmethod
    def _top_blockers(manager, limit: int = 5) -> List[Dict[str, Any]]:
        """Apps blocking the most waiters right now, worst first."""
        blocked: Dict[int, int] = {}
        for obj in manager.contended_objects().values():
            for waiter in obj.waiters:
                for blocker in obj.blockers_of(waiter):
                    blocked[blocker] = blocked.get(blocker, 0) + 1
        worst = sorted(blocked.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            {
                "app": app,
                "waiters_blocked": count,
                "slots_held": manager.app_slots(app),
            }
            for app, count in worst[:limit]
        ]

    def _audit_tail(self, n: int = 5) -> List[Dict[str, Any]]:
        if self.audit is None:
            return []
        return [record.to_dict() for record in self.audit.tail(n)]


__all__ = [
    "INCIDENT_KINDS",
    "IncidentLog",
    "IncidentRecord",
    "IncidentRecorder",
]
