"""Execute scenario grids: batch runs, result folders, verdict tables.

Two scenario kinds share the verdict machinery:

``service``
    A closed-loop threaded load (:class:`repro.service.driver.
    LoadDriver`) against a live stack -- unsharded, sharded or the
    multi-process worker pool, per the scenario's ``shards``/``workers``
    toggles (:func:`repro.service.stack.build_stack`) -- under a named
    contention regime from
    :data:`repro.workloads.contention.REGIMES`, optionally with a
    long-running DSS tenant pinning locks beside the OLTP load and/or
    one armed chaos injection (:mod:`repro.service.chaos`).
``replay``
    A deterministic DES run: a synthetic demand trace
    (:data:`repro.workloads.contention.TRACES`) replayed through
    :class:`repro.workloads.replay.LockDemandReplay` while a
    :class:`repro.service.capture.DemandTraceRecorder` on the virtual
    clock re-captures what the tuner saw.  Same seed in, byte-identical
    ``result.json`` out.

Each scenario lands in its own result folder (``NNN-slug-idprefix``)
holding ``result.json``; a matrix run adds ``matrix.json`` plus a
text/JSON verdict table where every scenario must come out ``pass`` or
``expected-degraded``.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.scenarios.grid import ScenarioGrid, ScenarioSpec
from repro.scenarios.verdict import (
    FAIL,
    STATUSES,
    Check,
    ScenarioVerdict,
    check,
    summarize_statuses,
)

#: result.json / matrix.json schema version.
SCHEMA_VERSION = 1


@dataclass
class ScenarioResult:
    """One executed scenario: spec, verdict and recorded metrics."""

    spec: ScenarioSpec
    verdict: ScenarioVerdict
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Absolute result folder path when the run persisted one.
    folder: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """The result.json payload (deterministic for replay runs)."""
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.spec.to_dict(),
            "verdict": self.verdict.to_dict(),
            "metrics": self.metrics,
        }


# ---------------------------------------------------------------------------
# service scenarios
# ---------------------------------------------------------------------------

class _DssTenant:
    """A long-running DSS tenant: pins S locks beside the OLTP load.

    Models Figure 11's reporting query -- one session acquiring a large
    row-lock footprint on its own table and sitting on it while the
    OLTP threads churn, so the tuner must size for OLTP churn *plus* a
    standing DSS demand floor.
    """

    def __init__(self, service, locks: int, table_id: int = 9_000) -> None:
        self.service = service
        self.locks = locks
        self.table_id = table_id
        self.acquired = 0
        self.error: Optional[str] = None
        #: Set once the acquisition loop has finished (target reached or
        #: lock list full) -- i.e. the standing footprint is in place.
        self.saturated = threading.Event()
        self._release = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="dss-tenant", daemon=True
        )

    def start(self) -> "_DssTenant":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._release.set()
        self._thread.join(30.0)

    def wait_saturated(self, timeout_s: float = 30.0) -> bool:
        """Block until the footprint is fully pinned (or timeout).

        Scenarios that *assert on* the tenant's pressure (the overflow
        chaos lane) wait here before teardown so the outcome never
        races the OLTP driver finishing first.
        """
        return self.saturated.wait(timeout_s)

    def _run(self) -> None:
        from repro.lockmgr.manager import (
            DeadlockError,
            LockListFullError,
            LockTimeoutError,
        )
        from repro.lockmgr.modes import LockMode

        try:
            with self.service.session() as app_id:
                for row in range(self.locks):
                    if self._release.is_set():
                        break
                    try:
                        self.service.lock_row(
                            app_id,
                            self.table_id,
                            row,
                            LockMode.S,
                            timeout_s=5.0,
                        )
                        self.acquired += 1
                    except (DeadlockError, LockTimeoutError):
                        continue  # a row can be skipped; footprint matters
                    except LockListFullError:
                        break  # memory pressure: hold what we have
                self.saturated.set()
                self._release.wait()
                # session exit releases the whole footprint at once
        except Exception as exc:  # noqa: BLE001 - surfaced in metrics
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.saturated.set()  # never leave a waiter hanging


def _build_stack(params: Mapping[str, Any]):
    """A started-able stack per the scenario's shape toggles."""
    from repro.service.stack import build_stack

    shards = int(params.get("shards", 0))
    workers = int(params.get("workers", 0))
    config: Dict[str, Any] = dict(
        total_memory_pages=int(params.get("memory_pages", 16_384)),
        initial_locklist_pages=int(params.get("locklist_pages", 128)),
        tuner_interval_s=float(params.get("tuner_interval_s", 0.05)),
        broker=bool(params.get("broker", False)),
        trace_sample_every=int(params.get("trace_sample_every", 0)),
    )
    if shards > 0 and not workers:
        config["deadlock_interval_s"] = float(
            params.get("deadlock_interval_s", 0.02)
        )
    return build_stack(
        threads=int(params.get("threads", 4)),
        shards=shards,
        workers=workers,
        **config,
    )


def _chaos_thread(injection, stack, warm_requests: int) -> threading.Thread:
    """Arm ``injection`` to fire once the stack has served some load."""
    from repro.service.chaos import wait_until_warm

    def fire() -> None:
        wait_until_warm(stack, min_requests=warm_requests)
        injection.inject(stack)

    thread = threading.Thread(target=fire, name="chaos", daemon=True)
    thread.start()
    return thread


def _service_checks(
    spec: ScenarioSpec, report, skip: frozenset
) -> List[Check]:
    """The standard service-scenario checks, minus chaos exemptions."""
    params = spec.params
    checks: List[Check] = []
    expected = int(params.get("threads", 4)) * int(
        params.get("requests_per_thread", 200)
    )
    if "completeness" not in skip:
        checks.append(
            check(
                "completeness",
                report.lock_requests >= expected,
                f"{report.lock_requests}/{expected} lock requests",
            )
        )
    if "worker-errors" not in skip:
        checks.append(
            check(
                "worker-errors",
                not report.worker_errors,
                "; ".join(report.worker_errors[:3]) or "none",
            )
        )
    if "admission-sheds" not in skip:
        allowed = int(params.get("allow_sheds", 0))
        checks.append(
            check(
                "admission-sheds",
                report.admission_sheds <= allowed,
                f"{report.admission_sheds} sheds (allowed {allowed})",
            )
        )
    return checks


def _stack_accounting_checks(stack, skip: frozenset) -> List[Check]:
    """Exact-accounting and liveness checks, any topology.

    ``check_invariants`` covers what is particular to one: the worker
    pool's includes its byte-exact shutdown reconciliation.
    """
    checks: List[Check] = []
    if "accounting-exact" not in skip:
        leaked = stack.chain.used_slots
        heap = stack.registry.heap("locklist").size_pages
        invariant_error = ""
        try:
            stack.check_invariants()
        except Exception as exc:  # noqa: BLE001 - folded into the verdict
            invariant_error = f"{type(exc).__name__}: {exc}"
        checks.append(
            check(
                "accounting-exact",
                leaked == 0
                and heap == stack.chain.allocated_pages
                and not invariant_error,
                f"leaked={leaked}, heap={heap}p vs chain="
                f"{stack.chain.allocated_pages}p"
                + (f", invariants: {invariant_error}" if invariant_error else ""),
            )
        )
    if "tuner-healthy" not in skip:
        detector = stack.detector
        checks.append(
            check(
                "tuner-healthy",
                stack.tuner.crash is None
                and stack.frozen_reason is None
                and (detector is None or detector.crash is None),
                f"tuner crash={stack.tuner.crash!r}, "
                f"frozen={stack.frozen_reason!r}",
            )
        )
    return checks


def _trace_ring_summary(stack) -> Dict[str, Any]:
    """The run's distributed-trace posture for result.json.

    Counts only (no timings), so the record stays stable across hosts:
    how many requests were sampled, how many round trips finished, how
    many finished traces fell off the bounded rings, and how many the
    rings still held at shutdown.  All zeros with ``enabled: false``
    when the scenario ran untraced (the default -- grids opt in via a
    ``trace_sample_every`` param; only the networked topology traces).
    """
    every = stack.config.trace_sample_every if stack.request_tracers else 0
    summary = {
        "enabled": every > 0,
        "sample_every": every,
        "sampled": 0,
        "finished": 0,
        "truncated": 0,
        "held": 0,
    }
    for tracer in stack.request_tracers:
        counts = tracer.summary()
        summary["sampled"] += counts["started"]
        summary["finished"] += counts["finished"]
        summary["truncated"] += counts["truncated"]
        summary["held"] += len(tracer.to_dicts())
    return summary


def _service_metrics(stack, report, dss: Optional[_DssTenant]) -> Dict[str, Any]:
    metrics: Dict[str, Any] = dict(report.summary())
    ledger = stack.ledger
    metrics.update(
        {
            "escalations": ledger.total("escalations"),
            "sync_growth_blocks": ledger.total("sync_growth_blocks"),
            "allocated_pages": stack.chain.allocated_pages,
            "block_count": stack.chain.block_count,
            "peak_used_slots": ledger.total("peak_used_slots"),
            "tuner_intervals": stack.tuner.intervals_run,
            "frozen_reason": stack.frozen_reason,
            "trace_ring": _trace_ring_summary(stack),
        }
    )
    health = stack.ops_health()
    for key in ("workers", "worker_crashes"):
        if key in health:
            metrics[key] = health[key]
    if dss is not None:
        metrics["dss_locks_acquired"] = dss.acquired
        if dss.error:
            metrics["dss_error"] = dss.error
    return metrics


def _run_service_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Drive one threaded service scenario (any topology).

    The load goes through ``stack.client_stack()``: in process that is
    the stack itself, for the worker pool a routed client over the
    workers' sockets -- which chaos may SIGKILL mid-run.
    """
    from repro.service.chaos import build_chaos
    from repro.service.driver import LoadDriver
    from repro.workloads.contention import build_regime

    params = spec.params
    mix = build_regime(str(params.get("regime", "uniform")))
    injection = build_chaos(spec.chaos) if spec.chaos else None
    skip = injection.skip_checks if injection else frozenset()
    warm = int(params.get("chaos_warm_requests", 50))

    stack = _build_stack(params)
    dss: Optional[_DssTenant] = None
    chaos_runner: Optional[threading.Thread] = None
    with stack, stack.client_stack() as client:
        dss_locks = int(params.get("dss_locks", 0))
        if dss_locks > 0:
            dss = _DssTenant(client.service, dss_locks).start()
        if injection is not None:
            chaos_runner = _chaos_thread(injection, stack, warm)
        driver = LoadDriver(
            client,
            mix=mix,
            threads=int(params.get("threads", 4)),
            requests_per_thread=int(params.get("requests_per_thread", 200)),
            seed=int(params.get("seed", 0)),
        )
        report = driver.run()
        if chaos_runner is not None:
            chaos_runner.join(60.0)
        if dss is not None:
            dss.wait_saturated(30.0)
            dss.stop()
    checks = _service_checks(spec, report, skip)
    checks.extend(_stack_accounting_checks(stack, skip))
    if injection is not None:
        checks.extend(injection.verify(stack, report))
    verdict = ScenarioVerdict.from_checks(
        checks,
        expect_degraded=injection.expect_degraded if injection else False,
    )
    return ScenarioResult(
        spec=spec, verdict=verdict, metrics=_service_metrics(stack, report, dss)
    )


# ---------------------------------------------------------------------------
# replay scenarios
# ---------------------------------------------------------------------------

def _run_replay_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Deterministic DES replay of a synthetic demand trace."""
    from repro.engine.database import Database, DatabaseConfig
    from repro.service.capture import DemandTraceRecorder
    from repro.service.clock import VirtualClock
    from repro.workloads.contention import build_trace
    from repro.workloads.replay import LockDemandReplay

    params = spec.params
    trace = build_trace(
        str(params.get("trace", "diurnal")),
        **dict(params.get("trace_params", {})),
    )
    batch_size = int(params.get("batch_size", 256))
    db = Database(
        seed=int(params.get("seed", 0)),
        config=DatabaseConfig(
            total_memory_pages=int(params.get("memory_pages", 16_384)),
            initial_locklist_pages=int(params.get("locklist_pages", 128)),
        ),
    )
    recorder = DemandTraceRecorder(
        db.chain,
        clock=VirtualClock(db.env),
        period_s=float(params.get("sample_period_s", 0.5)),
    )
    replay = LockDemandReplay(db, trace, batch_size=batch_size)
    replay.start()

    def sampler():
        while True:
            yield db.env.timeout(recorder.period_s)
            recorder.sample_now()

    db.env.process(sampler())
    db.run(until=trace[-1][0] + 1.0)

    captured = recorder.to_trace()
    peak_target = max(target for _, target in trace)
    achieved_peak = max((used for _, used in captured), default=0)
    invariant_error = ""
    try:
        db.check_invariants()
    except Exception as exc:  # noqa: BLE001 - folded into the verdict
        invariant_error = f"{type(exc).__name__}: {exc}"

    max_shortfalls = int(params.get("max_shortfalls", 0))
    checks = [
        check(
            "replay-complete",
            replay.shortfalls <= max_shortfalls,
            f"{replay.shortfalls} shortfalls (allowed {max_shortfalls})",
        ),
        check(
            "peak-tracked",
            achieved_peak >= peak_target - batch_size,
            f"achieved {achieved_peak} of target peak {peak_target} "
            f"(batch {batch_size})",
        ),
        check(
            "accounting-exact",
            not invariant_error,
            invariant_error or "database invariants hold",
        ),
    ]
    verdict = ScenarioVerdict.from_checks(checks, expect_degraded=False)
    metrics = {
        "trace_points": len(trace),
        "peak_target": peak_target,
        "achieved_peak": achieved_peak,
        "samples": len(captured),
        "shortfalls": replay.shortfalls,
        "escalations": db.lock_manager.stats.escalations.count,
        "final_locklist_pages": db.chain.allocated_pages,
        "final_held_locks": replay.held_locks,
    }
    return ScenarioResult(spec=spec, verdict=verdict, metrics=metrics)


# ---------------------------------------------------------------------------
# dispatch, envelopes, persistence
# ---------------------------------------------------------------------------

def _apply_baseline_envelope(
    result: ScenarioResult, baseline: Optional[Mapping[str, Any]]
) -> None:
    """Fold the throughput-envelope check in when a baseline matches.

    ``baseline`` is a loaded matrix.json; a scenario is compared
    against the entry with its ID.  Without a baseline (or without a
    matching entry / metric) no check is added -- the envelope is an
    opt-in gate, not a default one.
    """
    if not baseline:
        return
    entries = {
        record["scenario"]["id"]: record
        for record in baseline.get("results", [])
        if "scenario" in record
    }
    entry = entries.get(result.spec.scenario_id)
    if entry is None:
        return
    base_rps = entry.get("metrics", {}).get("requests_per_s")
    ours = result.metrics.get("requests_per_s")
    if not base_rps or ours is None:
        return
    ratio = float(result.spec.params.get("envelope_ratio", 0.5))
    floor = base_rps * ratio
    result.verdict.checks.append(
        check(
            "throughput-envelope",
            ours >= floor,
            f"{ours:.0f} req/s vs baseline {base_rps:.0f} "
            f"(floor {floor:.0f} at ratio {ratio})",
        )
    )
    if ours < floor and result.verdict.status != FAIL:
        result.verdict.status = FAIL


def run_scenario(
    spec: ScenarioSpec,
    out_dir: Optional[str] = None,
    baseline: Optional[Mapping[str, Any]] = None,
) -> ScenarioResult:
    """Run one scenario; optionally persist its result folder.

    Unexpected exceptions become a failing ``run-crashed`` check
    rather than aborting the whole matrix.
    """
    try:
        if spec.kind == "replay":
            result = _run_replay_scenario(spec)
        elif spec.kind == "service":
            result = _run_service_scenario(spec)
        else:
            raise ValueError(f"unknown scenario kind {spec.kind!r}")
    except Exception as exc:  # noqa: BLE001 - recorded as a failure
        result = ScenarioResult(
            spec=spec,
            verdict=ScenarioVerdict.from_checks(
                [
                    check(
                        "run-crashed",
                        False,
                        f"{type(exc).__name__}: {exc}",
                    )
                ]
            ),
        )
    _apply_baseline_envelope(result, baseline)
    if out_dir is not None:
        folder = os.path.join(out_dir, spec.folder)
        os.makedirs(folder, exist_ok=True)
        path = os.path.join(folder, "result.json")
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(result.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
        result.folder = folder
    return result


@dataclass
class MatrixReport:
    """An executed grid: ordered results plus the verdict table."""

    grid: ScenarioGrid
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every scenario passed or degraded as expected."""
        return all(result.verdict.ok for result in self.results)

    @property
    def status_counts(self) -> Dict[str, int]:
        return summarize_statuses(
            [result.verdict.status for result in self.results]
        )

    def to_dict(self) -> Dict[str, Any]:
        """The matrix.json payload (no wall timestamps: reproducible)."""
        return {
            "schema": SCHEMA_VERSION,
            "grid": self.grid.to_dict(),
            "status_counts": self.status_counts,
            "ok": self.ok,
            "results": [result.to_dict() for result in self.results],
        }

    def render_table(self) -> str:
        """The human verdict table (same data as the JSON form)."""
        return render_verdict_table(self.to_dict())


def render_verdict_table(matrix: Mapping[str, Any]) -> str:
    """Render a matrix.json payload as the text verdict table."""
    lines = []
    grid = matrix.get("grid", {})
    lines.append(
        f"scenario matrix: grid {grid.get('name', '?')!r}, "
        f"{len(matrix.get('results', []))} scenarios"
    )
    header = (
        f"  {'idx':>3} {'id':<12} {'kind':<7} {'scenario':<40} "
        f"{'status':<17} notes"
    )
    lines.append(header)
    for record in matrix.get("results", []):
        scenario = record.get("scenario", {})
        verdict = record.get("verdict", {})
        status = verdict.get("status", "?")
        failed = [
            entry["name"]
            for entry in verdict.get("checks", [])
            if not entry.get("ok")
        ]
        if failed:
            notes = "FAILED: " + ", ".join(failed)
        elif scenario.get("params", {}).get("chaos"):
            notes = f"chaos={scenario['params']['chaos']}"
        else:
            notes = ""
        lines.append(
            f"  {scenario.get('index', 0):>3} "
            f"{scenario.get('id', '?'):<12} "
            f"{scenario.get('kind', '?'):<7} "
            f"{scenario.get('slug', '?'):<40} "
            f"{status:<17} {notes}".rstrip()
        )
    counts = matrix.get("status_counts", {})
    # matrix.json is written sort_keys=True, so re-impose display order.
    ordered = sorted(
        counts.items(),
        key=lambda kv: STATUSES.index(kv[0]) if kv[0] in STATUSES else 99,
    )
    summary = ", ".join(f"{count} {status}" for status, count in ordered)
    lines.append(
        f"  => {summary or 'no scenarios'}"
        f" ({'OK' if matrix.get('ok') else 'FAILING'})"
    )
    return "\n".join(lines)


def run_matrix(
    grid: ScenarioGrid,
    out_dir: Optional[str] = None,
    baseline: Optional[Mapping[str, Any]] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> MatrixReport:
    """Expand and run a whole grid; persist matrix.json under out_dir.

    ``echo`` (e.g. ``print``) receives one progress line per scenario.
    """
    grid_dir: Optional[str] = None
    if out_dir is not None:
        grid_dir = os.path.join(out_dir, grid.name)
        os.makedirs(grid_dir, exist_ok=True)
    report = MatrixReport(grid=grid)
    for spec in grid.expand():
        result = run_scenario(spec, out_dir=grid_dir, baseline=baseline)
        report.results.append(result)
        if echo is not None:
            echo(
                f"[{spec.index + 1}/{len(grid)}] {spec.folder}: "
                f"{result.verdict.status}"
            )
    if grid_dir is not None:
        path = os.path.join(grid_dir, "matrix.json")
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(report.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
    return report


def load_matrix(path: str) -> Dict[str, Any]:
    """Load a matrix.json written by :func:`run_matrix`."""
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)
