"""The STMM decision audit log: every tuning interval's "why", bounded.

Baryshnikov et al.'s memory-broker work (PAPERS.md) argues that an
adaptive memory manager is only operable if every decision leaves an
auditable trail of *inputs* and a machine-readable *reason*.  The DES
already keeps :class:`~repro.core.controller.ControllerDecision`
records, but those grow without bound and speak the controller's
internal vocabulary.  This module gives the live service a bounded ring
buffer of :class:`TuningAuditRecord` entries in a small, stable reason
enum that maps one-to-one onto the paper's section 3 tuning rules:

==============================  ==============================================
audit reason                    paper rule (controller reason)
==============================  ==============================================
``grow-async``                  3.3 grow so minFreeLockMemory is free
                                (``grow-to-min-free``)
``shrink-5pct``                 3.4 shrink by delta_reduce = 5 % per interval
                                (``shrink-delta-reduce``)
``double-escalation-recovery``  3.1 double while escalations continue
                                (``escalation-doubling``)
``noop``                        3.3 inside the [minFree, maxFree] spread
                                (``hold``)
``freeze``                      tuner crash -> static-LOCKLIST degraded mode
                                (no controller analogue)
==============================  ==============================================

The tuner daemon records one entry per interval (and one terminal
``freeze`` entry on a crash); the ops endpoint serves the ring over
``/stmm``, and ``RunTelemetry`` carries the entries into the JSONL
stream as ``audit`` records.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping

from repro.obs.ring import BoundedRing

#: The closed reason vocabulary, in paper-rule order.
AUDIT_REASONS = (
    "grow-async",
    "shrink-5pct",
    "double-escalation-recovery",
    "noop",
    "freeze",
)

#: The closed reason vocabulary of the whole-memory broker.  ``trade-*``
#: reasons document 128 KB block movements between PMC heaps;
#: ``pressure-*`` reasons document admission-posture transitions driven
#: by the aggregate demand-vs-budget pressure score.
BROKER_REASONS = (
    "trade-benefit",
    "pressure-throttle",
    "pressure-queue",
    "pressure-shed",
    "pressure-release",
)

#: ControllerDecision.reason -> audit reason.
_CONTROLLER_REASON_MAP = {
    "grow-to-min-free": "grow-async",
    "shrink-delta-reduce": "shrink-5pct",
    "escalation-doubling": "double-escalation-recovery",
    "hold": "noop",
}


def audit_reason_for(controller_reason: str) -> str:
    """Map a controller decision reason onto the audit enum.

    Unknown controller vocabulary (a future branch) degrades to
    ``noop`` rather than raising -- the audit log must never be able to
    crash the tuning pass it is documenting.
    """
    return _CONTROLLER_REASON_MAP.get(controller_reason, "noop")


@dataclass
class TuningAuditRecord:
    """One tuning interval: the inputs seen and the action chosen."""

    #: 1-based tuning interval ordinal (0 for a terminal freeze entry).
    interval: int
    #: Clock time of the pass (wall seconds for the live service).
    time: float
    #: One of :data:`AUDIT_REASONS`.
    reason: str
    #: Signed pages the locklist actually changed by this interval.
    delta_pages: int
    # -- inputs the decision was computed from ------------------------------
    current_pages: int
    target_pages: int
    used_pages: int
    free_fraction: float
    overflow_pages: int
    escalations_in_interval: int
    #: Synchronous-growth headroom left under LMOmax, in pages.
    lmo_headroom_pages: int
    #: Human-readable amplification (e.g. the crash message for freeze).
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "TuningAuditRecord":
        return cls(
            interval=int(record["interval"]),
            time=float(record["time"]),
            reason=str(record["reason"]),
            delta_pages=int(record["delta_pages"]),
            current_pages=int(record["current_pages"]),
            target_pages=int(record["target_pages"]),
            used_pages=int(record["used_pages"]),
            free_fraction=float(record["free_fraction"]),
            overflow_pages=int(record["overflow_pages"]),
            escalations_in_interval=int(record["escalations_in_interval"]),
            lmo_headroom_pages=int(record["lmo_headroom_pages"]),
            detail=str(record.get("detail", "")),
        )


@dataclass
class BrokerAuditRecord:
    """One broker action: a block trade or an admission-posture change."""

    #: 1-based broker interval ordinal (0 for a terminal entry).
    interval: int
    #: Clock time of the pass (wall seconds for the live service).
    time: float
    #: One of :data:`BROKER_REASONS`.
    reason: str
    #: Donor heap for a trade ("" for posture records).
    heap_from: str
    #: Receiver heap for a trade ("" for posture records).
    heap_to: str
    #: Pages actually moved this record (0 for posture records).
    pages: int
    # -- inputs the decision was computed from ------------------------------
    #: Donor marginal benefit per page at decision time (s/page/s).
    benefit_from: float
    #: Receiver marginal benefit per page at decision time (s/page/s).
    benefit_to: float
    #: Aggregate demand / budget at decision time (1.0 == exactly full).
    pressure: float
    #: Admission posture after this record (normal/throttle/queue/shed).
    posture: str
    #: Human-readable amplification.
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "BrokerAuditRecord":
        return cls(
            interval=int(record["interval"]),
            time=float(record["time"]),
            reason=str(record["reason"]),
            heap_from=str(record.get("heap_from", "")),
            heap_to=str(record.get("heap_to", "")),
            pages=int(record.get("pages", 0)),
            benefit_from=float(record.get("benefit_from", 0.0)),
            benefit_to=float(record.get("benefit_to", 0.0)),
            pressure=float(record["pressure"]),
            posture=str(record["posture"]),
            detail=str(record.get("detail", "")),
        )


class TuningAuditLog:
    """A bounded, thread-safe ring of records in a closed vocabulary.

    Appends from the tuner thread and reads from HTTP handler threads
    (the ``/stmm`` endpoint) interleave freely; readers always get a
    point-in-time copy.  The allowed reason vocabulary is closed:
    :data:`AUDIT_REASONS` by default (the LOCKLIST tuner's log),
    :data:`BROKER_REASONS` for the whole-memory broker's log.  The
    incident ring (:class:`repro.obs.incidents.IncidentLog`) is this
    class keyed on ``kind``.
    """

    #: What the log calls its records, and the record attribute checked
    #: against the vocabulary.
    KEYED_ON = ("audit", "reason")

    def __init__(self, capacity: int = 256, reasons=AUDIT_REASONS) -> None:
        if not reasons:
            raise ValueError("reasons vocabulary must be non-empty")
        self._ring: BoundedRing[Any] = BoundedRing(capacity)
        self.allowed_reasons = tuple(reasons)

    @property
    def total_recorded(self) -> int:
        """Total records ever appended (survives ring eviction)."""
        return self._ring.total

    def append(self, record) -> None:
        what, attr = self.KEYED_ON
        key = getattr(record, attr)
        if key not in self.allowed_reasons:
            raise ValueError(
                f"unknown {what} {attr} {key!r}; "
                f"expected one of {self.allowed_reasons}"
            )
        self._ring.append(record)

    def records(self) -> List[Any]:
        """A snapshot copy of the ring, oldest first."""
        return self._ring.snapshot()

    def tail(self, n: int) -> List[Any]:
        """The most recent ``n`` records, oldest first."""
        return self._ring.snapshot(n)

    def reasons(self) -> List[str]:
        """The reason sequence currently in the ring, oldest first."""
        return [getattr(record, self.KEYED_ON[1]) for record in self.records()]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [record.to_dict() for record in self.records()]

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self):
        return iter(self.records())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._ring!r})"


__all__ = [
    "AUDIT_REASONS",
    "BROKER_REASONS",
    "BrokerAuditRecord",
    "TuningAuditLog",
    "TuningAuditRecord",
    "audit_reason_for",
]
