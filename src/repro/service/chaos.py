"""Chaos lane: fault injections with documented degraded postures.

Each injection fires a mid-run fault against a live stack and then
*verifies the documented degradation contract* -- the postures the
service docs promise when that component dies:

``tuner-crash``
    The tuner daemon dies mid-surge.  Contract: the service freezes to
    a static LOCKLIST (``frozen_reason`` set, growth disabled), the
    STMM audit gains a terminal ``freeze`` record, ``/healthz`` turns
    503 -- and lock service *continues* with exact accounting.
``shard-stall``
    One shard's mutex is held hostage for a beat.  Contract: requests
    to that shard stall then recover; nothing freezes, accounting
    stays exact (this lane expects a full recovery, not degradation).
``worker-sigkill``
    A worker process is SIGKILLed mid-matrix.  Contract: survivors
    freeze their lock memory, the crash is counted and recorded as a
    ``worker-crash`` incident, ``/healthz`` turns 503, and the
    reconciliation names the dead worker ``crashed``.
``overflow-exhaustion``
    No runtime fault: the scenario itself undersizes lock memory under
    a lock-hungry regime.  Contract: pressure shows up as escalations
    and/or lock-list-full rollbacks -- with accounting still exact.

The scenario runner (:mod:`repro.scenarios.runner`) arms one injection
per chaos scenario, calls :meth:`ChaosInjection.inject` once the load
is warm, and folds :meth:`ChaosInjection.verify` checks into the
scenario verdict; ``skip_checks`` names the standard checks that a
*successfully* degraded run is exempt from (e.g. completeness after a
SIGKILL), so degradation reads as ``expected-degraded``, not ``fail``.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, FrozenSet, List, Type

from repro.errors import ConfigurationError
from repro.scenarios.verdict import Check, check


class ChaosError(RuntimeError):
    """The synthetic fault a chaos injection raises inside a component."""


def wait_until_warm(
    stack, min_requests: int = 50, timeout_s: float = 30.0
) -> bool:
    """Block until the stack's lock tables have served some load (or
    timeout).

    Reads the request count off the ledger's partition postures: live
    for in-process tables, as last sampled (one tuner interval stale at
    most) for forked ones.  Returns True when warm, False on timeout.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if stack.ledger.total("requests") >= min_requests:
            return True
        time.sleep(0.002)
    return False


class ChaosInjection:
    """Base class: one named fault plus its degradation contract."""

    #: Registry name (grids reference injections by this).
    name = "chaos"
    #: Whether a correct run of this injection counts as degraded.
    expect_degraded = True
    #: Standard runner checks a degraded run is exempt from.
    skip_checks: FrozenSet[str] = frozenset()

    def inject(self, stack) -> None:
        """Fire the fault against a warm, running stack."""
        raise NotImplementedError

    def verify(self, stack, report) -> List[Check]:
        """Checks asserting the documented degraded posture."""
        raise NotImplementedError


class TunerCrashInjection(ChaosInjection):
    """Kill the tuner mid-surge; assert the frozen-LOCKLIST posture."""

    name = "tuner-crash"
    expect_degraded = True
    skip_checks = frozenset({"tuner-healthy"})

    def inject(self, stack) -> None:
        def explode(*args, **kwargs):
            raise ChaosError("chaos: injected tuner crash")

        stack.controller.compute_target_pages = explode
        # Force a pass now instead of waiting out the daemon interval:
        # the crash must land even if the remaining load is brief.
        try:
            stack.tuner.tune_now()
        except BaseException:  # noqa: BLE001 - the crash we just injected
            pass

    def verify(self, stack, report) -> List[Check]:
        tuner = stack.tuner
        freeze_records = [
            record
            for record in tuner.audit.tail(16)
            if record.reason == "freeze"
        ]
        health = stack.ops_health()
        checks = [
            check(
                "tuner-crashed",
                tuner.crash is not None and tuner.frozen,
                f"crash={tuner.crash!r}",
            ),
            check(
                "locklist-frozen",
                stack.frozen_reason is not None,
                f"frozen_reason={stack.frozen_reason!r}",
            ),
            check(
                "freeze-audited",
                bool(freeze_records),
                f"{len(freeze_records)} terminal freeze audit record(s)",
            ),
            check(
                "healthz-503",
                health.get("ok") is False,
                f"ops_health.ok={health.get('ok')!r}",
            ),
        ]
        checks.append(
            check(
                "growth-disabled",
                all(
                    part.occupancy()["frozen"] is not None
                    for part in stack.ledger.live()
                ),
                "every live partition froze to static sizing "
                "(synchronous growth provider detached)",
            )
        )
        return checks


class ShardStallInjection(ChaosInjection):
    """Hold one shard's mutex hostage; assert full recovery."""

    name = "shard-stall"
    expect_degraded = False

    def __init__(self, stall_s: float = 0.25) -> None:
        self.stall_s = stall_s

    def inject(self, stack) -> None:
        part = stack.partitions[0]
        if not part.atomic:
            raise ConfigurationError(
                "shard-stall chaos needs in-process lock tables"
            )
        # Holding the shard condition blocks every lock/release on that
        # shard -- and the tuner's all-shard pass -- until we let go.
        with part.service._cond:
            time.sleep(self.stall_s)

    def verify(self, stack, report) -> List[Check]:
        return [
            check(
                "stall-recovered",
                stack.tuner.crash is None and stack.frozen_reason is None,
                f"tuner crash={stack.tuner.crash!r}, "
                f"frozen={stack.frozen_reason!r}",
            ),
            check(
                "served-through-stall",
                report.lock_requests > 0,
                f"{report.lock_requests} lock requests completed",
            ),
        ]


class WorkerSigkillInjection(ChaosInjection):
    """SIGKILL one worker process; assert the survivors-frozen posture."""

    name = "worker-sigkill"
    expect_degraded = True
    skip_checks = frozenset(
        {
            "completeness",
            "worker-errors",
            "accounting-exact",
            "tuner-healthy",
            "admission-sheds",
        }
    )

    def __init__(self, victim: int = 0) -> None:
        self.victim = victim

    def inject(self, stack) -> None:
        part = stack.partitions[self.victim]
        if part.atomic:
            raise ConfigurationError(
                "worker-sigkill chaos needs the worker pool (workers >= 1)"
            )
        os.kill(part.process.pid, signal.SIGKILL)
        # The pool's monitor notices the death asynchronously; wait for
        # the freeze so verification never races the detection.
        deadline = time.monotonic() + 15.0
        while stack.frozen_reason is None and time.monotonic() < deadline:
            time.sleep(0.005)

    def verify(self, stack, report) -> List[Check]:
        health = stack.ops_health()
        rec = stack.reconciliation
        crashed_states = (
            [entry["state"] for entry in rec.workers] if rec else []
        )
        return [
            check(
                "survivors-frozen",
                stack.frozen_reason is not None,
                f"frozen_reason={stack.frozen_reason!r}",
            ),
            check(
                "crash-counted",
                stack.worker_crashes >= 1,
                f"{stack.worker_crashes} worker crash(es)",
            ),
            check(
                "incident-recorded",
                stack.incidents.kind_counts().get("worker-crash", 0) >= 1,
                f"incident kinds: {stack.incidents.kind_counts()}",
            ),
            check(
                "healthz-503",
                health.get("ok") is False,
                f"ops_health.ok={health.get('ok')!r}",
            ),
            check(
                "reconciliation-names-victim",
                "crashed" in crashed_states,
                f"worker states: {crashed_states}",
            ),
            check(
                "survivors-served",
                report.commits > 0,
                f"{report.commits} transactions committed",
            ),
        ]


class OverflowExhaustionInjection(ChaosInjection):
    """Undersized lock memory under a lock-hungry regime.

    No runtime fault to fire: the scenario's own config is the hazard.
    The contract is that pressure surfaces through the *documented*
    relief valves -- escalation and lock-list-full rollback -- while
    accounting stays exact (the standard checks still apply).
    """

    name = "overflow-exhaustion"
    expect_degraded = True
    skip_checks = frozenset({"admission-sheds"})

    def inject(self, stack) -> None:
        return None

    def verify(self, stack, report) -> List[Check]:
        stats = stack.manager_stats
        relieved = (
            stats.escalations.count
            + report.rollbacks_full
            + stats.sync_growth_blocks
        )
        return [
            check(
                "pressure-relieved",
                relieved > 0,
                f"{stats.escalations.count} escalations, "
                f"{report.rollbacks_full} full rollbacks, "
                f"{stats.sync_growth_blocks} sync-growth blocks",
            )
        ]


#: Registry: chaos name -> injection class (grids reference by name).
CHAOS: Dict[str, Type[ChaosInjection]] = {
    TunerCrashInjection.name: TunerCrashInjection,
    ShardStallInjection.name: ShardStallInjection,
    WorkerSigkillInjection.name: WorkerSigkillInjection,
    OverflowExhaustionInjection.name: OverflowExhaustionInjection,
}


def build_chaos(name: str) -> ChaosInjection:
    """Instantiate a named chaos injection; unknown names raise."""
    try:
        cls = CHAOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos injection {name!r}; choose from {sorted(CHAOS)}"
        ) from None
    return cls()
