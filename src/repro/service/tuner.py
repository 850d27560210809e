"""The STMM tuning daemon: asynchronous lock-memory tuning on wall time.

In the paper (section 3.2) the memory-tuning algorithm runs inside
DB2's self-tuning memory manager on its regular wall-clock interval,
concurrently with the applications taking locks.  The DES models that
as a deterministic tuner invoked at virtual times; :class:`TunerDaemon`
runs the *same* :class:`~repro.memory.stmm.Stmm` pass from a real
background thread:

* each pass runs **under the control plane's condition**, so tuning
  is atomic with respect to lock requests -- exactly the interleaving
  the DES produces, just at wall-clock instants instead of scheduled
  ones;
* the wait between passes honours :attr:`Stmm.current_interval_s`, so
  the adaptive interval (shrinking while benefit is high) carries over
  unchanged; *how* to wait is the host's business (a plain sleep in
  process; across processes the arbiter keeps granting synchronous
  borrows while it waits), and so is what to sample before a pass;
* a **crash of the tuning thread degrades, never corrupts**: the daemon
  catches the failure, records it, and freezes the host's tuning hooks
  (``freeze_tuning``) -- from then on the system behaves like the
  static-LOCKLIST baseline, with memory pressure answered by escalation
  alone, while lock service continues;
* every pass leaves one entry in a bounded
  :class:`~repro.obs.audit.TuningAuditLog` -- the inputs the controller
  saw and the action it chose, in the closed audit-reason vocabulary --
  and a crash leaves a terminal ``freeze`` entry, so the ``/stmm``
  endpoint can always answer *why* lock memory is the size it is.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List, Optional

from repro.memory.stmm import IntervalReport, Stmm
from repro.obs.audit import TuningAuditLog, TuningAuditRecord, audit_reason_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import LockMemoryController
    from repro.obs.registry import MetricRegistry
    from repro.service.control import ControlPlane


class TunerDaemon:
    """Background thread driving :meth:`Stmm.tune` on its interval.

    Parameters
    ----------
    host:
        The :class:`~repro.service.control.ControlPlane` being tuned:
        its ``_cond`` serialises a pass against lock traffic, its
        ``chain``, ``clock`` and ``controller`` are what the pass reads
        (each controller decision becomes one :class:`TuningAuditRecord`
        in :attr:`audit`), its ``metrics`` registry (if any) takes the
        ``tuner.*`` instruments, its ``wait_for_pass`` / ``before_pass``
        pace and prepare a pass, and its ``freeze_tuning`` is the
        failure path.
    stmm:
        The memory manager to drive; its ``current_interval_s`` governs
        the sleep between passes (re-read every pass, so the adaptive
        interval applies).
    interval_override_s:
        Fixed interval for tests and demos (bypasses the STMM interval).
    audit_capacity:
        Ring-buffer bound of :attr:`audit`.
    """

    def __init__(
        self,
        host: "ControlPlane",
        stmm: Stmm,
        *,
        interval_override_s: Optional[float] = None,
        audit_capacity: int = 256,
    ) -> None:
        if interval_override_s is not None and interval_override_s <= 0:
            raise ValueError(
                f"interval_override_s must be positive, got {interval_override_s}"
            )
        self.host = host
        self.stmm = stmm
        self.interval_override_s = interval_override_s
        self.controller: "LockMemoryController" = host.controller
        self.audit = TuningAuditLog(capacity=audit_capacity)
        #: Optional repro.obs.incidents.IncidentRecorder; a tuner crash
        #: then captures a ``tuner-freeze`` incident beside the audit
        #: ring's terminal ``freeze`` entry.
        self.incidents = None
        #: Optional repro.service.broker.MemoryBroker; when set, each
        #: pass runs the whole-memory arbitration right after the STMM
        #: pass, still under the host's condition.  A broker failure rides
        #: the same crash -> freeze_tuning degraded path as an STMM
        #: failure: arbitration stops, lock service continues.
        self.broker = None
        self.reports: List[IntervalReport] = []
        self.intervals_run = 0
        self.crash: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="stmm-tuner", daemon=True
        )
        self._started = False
        metrics: Optional["MetricRegistry"] = host.metrics
        self._metrics = metrics
        if metrics is not None:
            self._m_intervals = metrics.counter("tuner.intervals")
            self._m_crashes = metrics.counter("tuner.crashes")
            self._m_lock_pages = metrics.gauge("tuner.locklist_pages")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "TunerDaemon":
        if self._started:
            raise RuntimeError("tuner daemon already started")
        self._started = True
        self._thread.start()
        return self

    def stop(self, timeout_s: float = 5.0) -> None:
        """Ask the daemon to exit and join it."""
        self._stop.set()
        if self._started:
            self._thread.join(timeout_s)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    @property
    def frozen(self) -> bool:
        """True once a crash has degraded the service to static sizing."""
        return self.crash is not None

    # -- the daemon loop ---------------------------------------------------

    def _interval_s(self) -> float:
        if self.interval_override_s is not None:
            return self.interval_override_s
        return self.stmm.current_interval_s

    def _run(self) -> None:
        try:
            while not self.host.wait_for_pass(self._stop, self._interval_s()):
                self._tune_once()
        except BaseException as exc:  # noqa: BLE001 - degrade, never corrupt
            self._degrade(exc, "tuner thread died")

    def tune_now(self) -> IntervalReport:
        """Run one tuning pass synchronously (tests, manual demos).

        Same code path as the daemon loop, including crash handling --
        the exception is re-raised after the host is frozen so the
        caller sees the failure.
        """
        try:
            return self._tune_once()
        except BaseException as exc:  # noqa: BLE001
            self._degrade(exc, "tuner pass failed")
            raise

    def _degrade(self, exc: BaseException, what: str) -> None:
        """The crash-to-freeze path: record, then freeze the host."""
        self.crash = exc
        if self._metrics is not None:
            self._m_crashes.inc()
        self._record_freeze(exc)
        self.host.freeze_tuning(f"{what}: {type(exc).__name__}: {exc}")

    def _tune_once(self) -> IntervalReport:
        host = self.host
        with host._cond:  # noqa: SLF001 - daemon is part of the plane
            host.before_pass()
            decisions_before = len(self.controller.decisions)
            report = self.stmm.tune(host.clock.now())
            self.reports.append(report)
            self.intervals_run += 1
            if self._metrics is not None:
                self._m_intervals.inc()
                self._m_lock_pages.set(host.chain.allocated_pages)
            self._record_audit(report, decisions_before)
            if self.broker is not None:
                self.broker.run_interval(host.clock.now())
            return report

    # -- the audit trail ---------------------------------------------------

    def _record_audit(self, report: IntervalReport, decisions_before: int) -> None:
        """Append one audit entry per controller decision this pass made.

        Runs under the host's condition right after the tuning pass, so
        the controller state it reads (``lmo_pages``, overflow) is
        exactly the post-decision state.
        """
        controller = self.controller
        delta_pages = sum(
            action.pages
            for action in report.actions
            if action.kind == "resize" and action.heap == controller.heap_name
        )
        overflow_pages = controller.registry.overflow_pages
        lmo_max = controller.params.lmo_max_pages(
            overflow_pages, controller.lmo_pages
        )
        lmo_headroom = max(0, lmo_max - controller.lmo_pages)
        for decision in controller.decisions[decisions_before:]:
            self.audit.append(
                TuningAuditRecord(
                    interval=self.intervals_run,
                    time=decision.time,
                    reason=audit_reason_for(decision.reason),
                    delta_pages=delta_pages,
                    current_pages=decision.current_pages,
                    target_pages=decision.target_pages,
                    used_pages=decision.used_pages,
                    free_fraction=decision.free_fraction,
                    overflow_pages=overflow_pages,
                    escalations_in_interval=decision.escalations_in_interval,
                    lmo_headroom_pages=lmo_headroom,
                    detail=decision.reason,
                )
            )

    def _record_freeze(self, exc: BaseException) -> None:
        """Append the terminal ``freeze`` entry after a tuner crash."""
        controller = self.controller
        self.audit.append(
            TuningAuditRecord(
                interval=0,
                time=self.host.clock.now(),
                reason="freeze",
                delta_pages=0,
                current_pages=self.host.chain.allocated_pages,
                target_pages=self.host.chain.allocated_pages,
                used_pages=controller.used_pages(),
                free_fraction=0.0,
                overflow_pages=controller.registry.overflow_pages,
                escalations_in_interval=0,
                lmo_headroom_pages=0,
                detail=f"{type(exc).__name__}: {exc}",
            )
        )
        if self.incidents is not None:
            self.incidents.record_freeze(
                self.host.chain, self.host.clock.now(), exc
            )
