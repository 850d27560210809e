"""Canonical experiment scenarios: one per figure of the paper.

Every scenario returns an :class:`~repro.analysis.experiment.ExperimentResult`
whose ``findings`` carry the facts the corresponding paper figure
conveys.  Benchmarks print them, integration tests assert on them, and
the examples reuse them, so the reproduction is defined in exactly one
place.

Scaling note (recorded per-result in ``notes``): the paper ran on a
5.11 GB database server; the default :class:`DatabaseConfig` here is a
512 MB system with every *ratio* preserved (20 % maxLockMemory, 10 %
compiler view, 50-60 % free band, 5 % delta_reduce, 65 % C1).  Client
counts match the paper (130 / 50 / 30); scenario durations are
compressed where the paper ran for tens of minutes of steady state.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.experiment import ExperimentResult
from repro.baselines import (
    ItlConfig,
    OracleItlTable,
    SqlServer2005Policy,
    StaticLocklistPolicy,
)
from repro.core.controller import LockMemoryController
from repro.core.params import TuningParameters
from repro.core.policy import AdaptiveLockMemoryPolicy, TuningPolicy
from repro.engine.database import Database, DatabaseConfig
from repro.engine.des import Environment
from repro.engine.metrics import MetricsRecorder
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockManager
from repro.lockmgr.modes import LockMode
from repro.memory.heaps import HeapCategory, MemoryHeap
from repro.memory.registry import DatabaseMemoryRegistry
from repro.memory.stmm import Stmm, StmmConfig
from repro.units import PAGES_PER_BLOCK
from repro.workloads.dss import ReportingQuery
from repro.workloads.oltp import OltpWorkload, heavy_mix, standard_mix
from repro.workloads.schedule import ClientSchedule


def _throughput(metrics: MetricsRecorder):
    """Commits-per-second series derived from the cumulative counter."""
    return metrics["commits"].rate().smooth(5)


# ---------------------------------------------------------------------------
# Database observers: external hooks into scenario-internal databases
# ---------------------------------------------------------------------------

#: Called with ``(label, database)`` right after a scenario constructs a
#: Database, before the simulation runs -- early enough to enable
#: telemetry or attach a tracer.
DatabaseObserver = Callable[[str, Database], None]

_database_observers: List[DatabaseObserver] = []


def add_database_observer(observer: DatabaseObserver) -> None:
    """Register a hook over every Database any scenario builds."""
    _database_observers.append(observer)


def remove_database_observer(observer: DatabaseObserver) -> None:
    _database_observers.remove(observer)


@contextmanager
def observe_databases(observer: DatabaseObserver) -> Iterator[None]:
    """Scoped registration, the runner's preferred form::

        with observe_databases(lambda label, db: db.enable_telemetry()):
            run_fig9_rampup()
    """
    add_database_observer(observer)
    try:
        yield
    finally:
        remove_database_observer(observer)


def _new_db(label: str, **kwargs) -> Database:
    """Construct a scenario Database and announce it to observers.

    Every scenario builds its databases through this factory so that
    ``runner --telemetry`` can reach runs it never constructs itself.
    """
    db = Database(**kwargs)
    for observer in list(_database_observers):
        observer(label, db)
    return db


# ---------------------------------------------------------------------------
# Figure 3: lock queuing (the S, S, X, S convoy)
# ---------------------------------------------------------------------------

def run_fig3_lock_queuing() -> ExperimentResult:
    """Four applications lock one row: S, S, then X, then S.

    Expected shape (paper Figure 3): the two share requests share one
    grant; the X request queues; the later S request queues *behind*
    the X (FIFO post discipline) instead of jumping the queue.
    """
    env = Environment()
    chain = LockBlockChain(initial_blocks=1)
    manager = LockManager(env, chain)
    metrics = MetricsRecorder()
    grant_order: List[int] = []

    def app(app_id: int, mode: LockMode, delay: float, hold: float):
        yield env.timeout(delay)
        yield from manager.lock_row(app_id, table_id=0, row_id=7, mode=mode)
        grant_order.append(app_id)
        yield env.timeout(hold)
        manager.release_all(app_id)

    env.process(app(1, LockMode.S, delay=0.0, hold=10.0))
    env.process(app(2, LockMode.S, delay=1.0, hold=10.0))
    env.process(app(3, LockMode.X, delay=2.0, hold=5.0))
    env.process(app(4, LockMode.S, delay=3.0, hold=1.0))
    env.run(until=4.0)
    queue_modes = [
        w.mode.name
        for obj in manager.contended_objects().values()
        if obj.resource.is_row
        for w in obj.waiters
    ]
    shared_grant = grant_order == [1, 2]
    env.run(until=40.0)
    manager.check_invariants()
    result = ExperimentResult("fig3-lock-queuing", metrics)
    result.findings.update(
        {
            "shared_S_grant": shared_grant,
            "queue_while_held": "->".join(queue_modes),
            "final_grant_order": "->".join(str(a) for a in grant_order),
            "fifo_respected": grant_order == [1, 2, 3, 4],
        }
    )
    return result


# ---------------------------------------------------------------------------
# Figure 4: the Oracle ITL page model
# ---------------------------------------------------------------------------

def run_fig4_oracle_itl(
    concurrent_txns: int = 10, config: Optional[ItlConfig] = None
) -> ExperimentResult:
    """Distinct-row writers on one page under Oracle's ITL model.

    Expected shape (paper section 2.3): once the page's ITL slots are
    exhausted and its free space is consumed, additional transactions
    block *even though the rows they want are free* -- de facto page
    locking.  The DB2 in-memory model has no such limit; its cost is
    lock memory, which the tuner manages.
    """
    cfg = config or ItlConfig(
        rows_per_page=100,
        initial_itl_slots=2,
        max_itl_slots=4,
        page_free_bytes=2 * 24,  # room to extend by exactly two slots
    )
    table = OracleItlTable(num_pages=4, config=cfg)
    granted = 0
    for txn in range(concurrent_txns):
        if table.lock_row(txn_id=txn, page_id=0, row_offset=txn):
            granted += 1
    blocked = concurrent_txns - granted
    overhead_before_commit = table.disk_overhead_bytes()
    stale = table.stale_lock_bytes()
    for txn in range(concurrent_txns):
        table.commit(txn)
    metrics = MetricsRecorder()
    result = ExperimentResult("fig4-oracle-itl", metrics)
    result.findings.update(
        {
            "concurrent_txns": concurrent_txns,
            "granted_before_itl_exhaustion": granted,
            "blocked_on_free_rows": blocked,
            "itl_waits": table.itl_waits,
            "row_conflicts": table.row_conflicts,
            "disk_overhead_bytes": overhead_before_commit,
            "disk_overhead_after_commit_bytes": table.disk_overhead_bytes(),
            "stale_lock_bytes_if_flushed": stale,
            "tunable_memory_pages": table.tunable_memory_pages(),
        }
    )
    result.notes.append(
        "ITL space is never reclaimed: overhead identical before/after commit"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 6: the worked example of combined sync + async tuning
# ---------------------------------------------------------------------------

def run_fig6_worked_example(total_pages: int = 131_072) -> ExperimentResult:
    """Script the T0..Tn timeline of section 4 against the controller.

    The lock *usage* trajectory is driven directly (as percentages of
    databaseMemory, matching the figure): steady 2 %, surge to 3 %
    (absorbed by free space), surge to 8 % (synchronous growth from
    overflow), then slump back to 2 % followed by the slow delta_reduce
    relaxation.
    """
    params = TuningParameters()
    registry = DatabaseMemoryRegistry(
        total_pages, overflow_goal_pages=total_pages // 10
    )
    registry.register(
        MemoryHeap("bufferpool", HeapCategory.PMC, size_pages=int(total_pages * 0.55),
                   min_pages=total_pages // 10,
                   benefit=lambda heap: 100.0 / heap.size_pages))
    registry.register(
        MemoryHeap("sort", HeapCategory.PMC, size_pages=int(total_pages * 0.20),
                   min_pages=256, benefit=lambda heap: 10.0 / heap.size_pages))
    lock_pages_t0 = (total_pages * 4 // 100 // PAGES_PER_BLOCK) * PAGES_PER_BLOCK
    registry.register(
        MemoryHeap("locklist", HeapCategory.FMC, size_pages=lock_pages_t0))
    chain = LockBlockChain(initial_blocks=lock_pages_t0 // PAGES_PER_BLOCK)
    controller = LockMemoryController(registry, chain, params=params)
    stmm = Stmm(registry, StmmConfig(interval_s=30.0))
    stmm.register_deterministic_tuner(controller)

    slots: List = []

    def set_used_percent(percent: float) -> None:
        """Drive chain usage to ``percent`` of databaseMemory."""
        locks_per_page = 4096 // params.locksize_bytes
        target_slots = int(total_pages * percent / 100.0) * locks_per_page
        while len(slots) < target_slots:
            if chain.free_slots == 0:
                granted = controller.sync_grow(1)
                if granted == 0:
                    raise RuntimeError("worked example ran out of overflow")
                chain.add_blocks(granted)
            slots.append(chain.allocate_slot())
        while len(slots) > target_slots:
            chain.free_slot(slots.pop())

    metrics = MetricsRecorder()

    def snap(label: str, time: float) -> None:
        metrics.record_many(
            time,
            {
                "lock_pages_pct": 100.0 * chain.allocated_pages / total_pages,
                "lock_used_pct": 100.0 * controller.used_pages() / total_pages,
                "overflow_pct": 100.0 * registry.overflow_pages / total_pages,
                "bufferpool_pct": 100.0
                * registry.heap("bufferpool").size_pages
                / total_pages,
            },
        )

    timeline: List[Tuple[str, float]] = []
    set_used_percent(2.0)
    snap("T0", 0.0)
    timeline.append(("T0 steady: 4% allocated, 2% used", chain.allocated_pages))

    set_used_percent(3.0)  # T1: surge absorbed by free space
    t1_sync = controller.lmo_pages
    snap("T1", 10.0)
    stmm.tune(30.0)  # T2: async growth to restore minFree
    snap("T2", 30.0)
    t2_alloc = chain.allocated_pages

    set_used_percent(8.0)  # T3: 267% surge, partly synchronous
    t3_sync = controller.lmo_pages
    t3_overflow = registry.overflow_pages
    snap("T3", 40.0)
    stmm.tune(60.0)  # T4: reconcile overflow, meet minFree
    snap("T4", 60.0)
    t4_overflow = registry.overflow_pages

    set_used_percent(2.0)  # T5: slump
    snap("T5", 70.0)
    t5_alloc = chain.allocated_pages
    shrink_trail: List[int] = [t5_alloc]
    t = 90.0
    for _ in range(40):  # T6..Tn: slow relaxation
        stmm.tune(t)
        snap("Tn", t)
        if chain.allocated_pages == shrink_trail[-1]:
            break  # reached the maxFreeLockMemory-free goal state
        shrink_trail.append(chain.allocated_pages)
        t += 30.0
    controller.check_consistency()

    result = ExperimentResult("fig6-worked-example", metrics)
    result.findings.update(
        {
            "t1_absorbed_without_sync_growth": t1_sync == 0,
            "t2_alloc_pct": 100.0 * t2_alloc / total_pages,
            "t3_used_sync_growth": t3_sync > 0,
            "t3_overflow_reduced_pct": 100.0 * t3_overflow / total_pages,
            "t4_overflow_restored_pct": 100.0 * t4_overflow / total_pages,
            "t5_alloc_pct": 100.0 * t5_alloc / total_pages,
            "shrink_intervals": len(shrink_trail) - 1,
            "final_alloc_pct": 100.0 * chain.allocated_pages / total_pages,
            "per_interval_shrink_fraction": (
                (shrink_trail[0] - shrink_trail[1]) / shrink_trail[0]
                if len(shrink_trail) >= 2
                else 0.0
            ),
        }
    )
    return result


# ---------------------------------------------------------------------------
# Figures 7 and 8: the static under-allocation catastrophe
# ---------------------------------------------------------------------------

def run_fig7_fig8_static_escalation(
    seed: int = 7,
    clients: int = 130,
    locklist_pages: int = 96,
    duration_s: float = 180.0,
    include_adaptive_reference: bool = True,
) -> ExperimentResult:
    """0.4 MB static lock memory under a 130-client OLTP ramp.

    Expected shape: lock requests rise with the ramp until escalation
    fires; escalation *reduces lock memory use* (Figure 7) while
    collapsing concurrency and throughput (Figure 8).  The adaptive
    reference run on the identical workload shows no escalations and
    healthy throughput.
    """
    def build(policy: TuningPolicy, label: str) -> Database:
        cfg = DatabaseConfig(initial_locklist_pages=128)
        db = _new_db(label, seed=seed, config=cfg, policy=policy)
        workload = OltpWorkload(
            db, ClientSchedule.ramp(1, clients, start=0.0, duration=30.0),
            mix=heavy_mix(),
        )
        workload.start()
        db.run(until=duration_s)
        return db

    static_db = build(
        StaticLocklistPolicy(locklist_pages=locklist_pages, maxlocks_fraction=0.10),
        "fig7-static",
    )
    stats = static_db.lock_manager.stats
    used = static_db.metrics["lock_used_slots"]
    tput = _throughput(static_db.metrics)
    result = ExperimentResult("fig7-fig8-static-escalation", static_db.metrics)
    result.findings.update(
        {
            "static_escalations": stats.escalations.count,
            "static_exclusive_escalations": stats.escalations.exclusive_count,
            "static_lock_errors": stats.lock_list_full_errors,
            "static_deadlocks": stats.deadlocks,
            "static_peak_used_slots": used.max(),
            "static_final_used_slots": used.last,
            "static_used_drop_after_escalation": used.max() - used.last,
            "static_peak_tput": tput.max(),
            "static_late_tput": tput.at(duration_s - 5),
            "static_commits": static_db.commits,
        }
    )
    if include_adaptive_reference:
        adaptive_db = build(AdaptiveLockMemoryPolicy(), "fig7-adaptive")
        a_stats = adaptive_db.lock_manager.stats
        a_tput = _throughput(adaptive_db.metrics)
        result.findings.update(
            {
                "adaptive_escalations": a_stats.escalations.count,
                "adaptive_commits": adaptive_db.commits,
                "adaptive_late_tput": a_tput.at(duration_s - 5),
                "adaptive_vs_static_commit_ratio": (
                    adaptive_db.commits / max(1, static_db.commits)
                ),
            }
        )
    result.notes.append(
        f"static LOCKLIST {locklist_pages} pages "
        f"({locklist_pages * 4 / 1024:.2f} MB) vs paper's 0.4 MB"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 9: rapid adaptation to a steady-state OLTP ramp
# ---------------------------------------------------------------------------

def run_fig9_rampup(
    seed: int = 9,
    clients: int = 130,
    initial_locklist_pages: int = 96,
    ramp_duration_s: float = 60.0,
    duration_s: float = 300.0,
) -> ExperimentResult:
    """Self-tuning from a minimal configuration under a 1-to-130 ramp.

    Expected shape: throughput climbs with the ramp, lock memory adapts
    immediately to a stable level roughly 10x its minimal starting
    point, and **no lock escalations occur** (the paper reports a 10.5x
    increase with zero escalations).
    """
    cfg = DatabaseConfig(initial_locklist_pages=initial_locklist_pages)
    db = _new_db("fig9", seed=seed, config=cfg, policy=AdaptiveLockMemoryPolicy())
    workload = OltpWorkload(
        db, ClientSchedule.ramp(1, clients, start=0.0, duration=ramp_duration_s)
    )
    workload.start()
    db.run(until=duration_s)
    pages = db.metrics["lock_pages"]
    tput = _throughput(db.metrics)
    final = pages.last
    convergence = pages.crossing_time(final, rising=True)
    result = ExperimentResult("fig9-rampup", db.metrics)
    result.findings.update(
        {
            "initial_lock_pages": pages.at(0),
            "final_lock_pages": final,
            "growth_factor": final / pages.at(0),
            "escalations": db.lock_manager.stats.escalations.count,
            "sync_growth_blocks": db.lock_manager.stats.sync_growth_blocks,
            "convergence_time_s": convergence,
            "steady_tput": tput.at(duration_s - 5),
            "commits": db.commits,
        }
    )
    return result


# ---------------------------------------------------------------------------
# Figure 10: the 50 -> 130 client surge
# ---------------------------------------------------------------------------

def run_fig10_surge(
    seed: int = 1,
    before_clients: int = 50,
    after_clients: int = 130,
    switch_at_s: float = 120.0,
    duration_s: float = 300.0,
) -> ExperimentResult:
    """Steady OLTP surged 2.6x in client count.

    Expected shape: lock memory increases "to just more than double its
    previous allocation" practically instantaneously at the switch, and
    no escalations occur throughout.
    """
    db = _new_db("fig10", seed=seed, policy=AdaptiveLockMemoryPolicy())
    workload = OltpWorkload(
        db, ClientSchedule.step(before_clients, after_clients, at=switch_at_s)
    )
    workload.start()
    db.run(until=duration_s)
    pages = db.metrics["lock_pages"]
    before = pages.at(switch_at_s - 5)
    after = pages.last
    # Adaptation delay: time from the switch until the new allocation.
    reached = pages.window(switch_at_s, duration_s).crossing_time(after, rising=True)
    tput = _throughput(db.metrics)
    result = ExperimentResult("fig10-surge", db.metrics)
    result.findings.update(
        {
            "lock_pages_before": before,
            "lock_pages_after": after,
            "growth_ratio": after / before,
            "adaptation_delay_s": (reached - switch_at_s) if reached else None,
            "escalations": db.lock_manager.stats.escalations.count,
            "tput_before": tput.at(switch_at_s - 10),
            "tput_after": tput.at(duration_s - 10),
        }
    )
    return result


# ---------------------------------------------------------------------------
# Figure 11: DSS reporting query injected into steady OLTP
# ---------------------------------------------------------------------------

def run_fig11_dss_injection(
    seed: int = 3,
    oltp_clients: int = 30,
    dss_rows: int = 500_000,
    inject_at_s: float = 90.0,
    acquisition_duration_s: float = 40.0,
    hold_duration_s: float = 30.0,
    duration_s: float = 330.0,
    maxlocks_policy: str = "adaptive",
) -> ExperimentResult:
    """A single reporting query with massive row locking joins OLTP.

    Expected shape: lock memory grows by tens of times within seconds
    of the injection (the paper reports 60x over 25 s, peaking near
    10 % of database memory), with **no exclusive escalations**; OLTP
    throughput dips from resource competition but keeps running.  The
    adaptive lockPercentPerApplication is what lets one application
    dominate lock memory -- re-run with ``maxlocks_policy="fixed10"``
    (the old DB2 default) and the query escalates.
    """
    cfg = DatabaseConfig(
        bufferpool_fraction=0.50,
        sort_fraction=0.10,
        hashjoin_fraction=0.05,
        pkgcache_fraction=0.03,
        overflow_goal_fraction=0.15,
    )
    if maxlocks_policy == "adaptive":
        policy: TuningPolicy = AdaptiveLockMemoryPolicy()
    elif maxlocks_policy == "fixed10":
        policy = AdaptiveLockMemoryPolicy(fixed_maxlocks_fraction=0.10)
    else:
        raise ValueError(f"unknown maxlocks_policy {maxlocks_policy!r}")
    db = _new_db(f"fig11-{maxlocks_policy}", seed=seed, config=cfg, policy=policy)
    workload = OltpWorkload(db, ClientSchedule.constant(oltp_clients))
    workload.start()
    query = ReportingQuery(
        db,
        start_time_s=inject_at_s,
        row_count=dss_rows,
        acquisition_duration_s=acquisition_duration_s,
        hold_duration_s=hold_duration_s,
    )
    query.start()
    db.run(until=duration_s)
    pages = db.metrics["lock_pages"]
    base = pages.at(inject_at_s - 5)
    peak = pages.max()
    peak_time = pages.crossing_time(peak, rising=True)
    tput = _throughput(db.metrics)
    stats = db.lock_manager.stats
    result = ExperimentResult("fig11-dss-injection", db.metrics)
    result.findings.update(
        {
            "base_lock_pages": base,
            "peak_lock_pages": peak,
            "growth_factor": peak / base,
            "peak_fraction_of_database_memory": peak / db.registry.total_pages,
            "time_to_peak_s": (peak_time - inject_at_s) if peak_time else None,
            "escalations": stats.escalations.count,
            "exclusive_escalations": stats.escalations.exclusive_count,
            "query_completed": query.result.completed if query.result else False,
            "query_rows_locked": query.result.rows_locked if query.result else 0,
            "min_maxlocks_percent": db.metrics["maxlocks_percent"].min(),
            "oltp_tput_before": tput.at(inject_at_s - 10),
            "oltp_tput_during": tput.at(inject_at_s + acquisition_duration_s),
            # Resource competition (section 5.3): the lock-memory spike
            # is funded by shrinking other consumers, the bufferpool
            # foremost -- the simulated analogue of the paper's observed
            # CPU / disk-bandwidth competition.
            "bufferpool_pages_taken": (
                db.metrics["bufferpool_pages"].at(inject_at_s - 5)
                - db.metrics["bufferpool_pages"].min()
            ),
            "maxlocks_policy": maxlocks_policy,
        }
    )
    result.notes.append(
        f"scaled: {dss_rows} DSS row locks against 512 MB databaseMemory "
        "(paper: ~60x growth to ~500 MB against 5.11 GB)"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 12: gradual lock memory reduction
# ---------------------------------------------------------------------------

def run_fig12_reduction(
    seed: int = 5,
    before_clients: int = 130,
    after_clients: int = 30,
    drop_at_s: float = 180.0,
    duration_s: float = 620.0,
) -> ExperimentResult:
    """Client population drops 76.9 %; lock memory relaxes slowly.

    Expected shape: after the drop the allocation decays by roughly
    delta_reduce (5 %) per 30 s tuning interval for about ten intervals
    and settles near half its previous steady state, with no escalations.
    """
    db = _new_db("fig12", seed=seed, policy=AdaptiveLockMemoryPolicy())
    workload = OltpWorkload(
        db, ClientSchedule.step(before_clients, after_clients, at=drop_at_s)
    )
    workload.start()
    db.run(until=duration_s)
    pages = db.metrics["lock_pages"]
    steady = pages.at(drop_at_s - 5)
    final = pages.last
    # Count the shrink intervals and the mean per-interval reduction.
    interval = db.config.stmm.interval_s
    t = drop_at_s
    trail: List[float] = []
    while t <= duration_s:
        trail.append(pages.at(t))
        t += interval
    shrink_steps = [
        (trail[i] - trail[i + 1]) / trail[i]
        for i in range(len(trail) - 1)
        if trail[i + 1] < trail[i]
    ]
    result = ExperimentResult("fig12-reduction", db.metrics)
    result.findings.update(
        {
            "steady_lock_pages": steady,
            "final_lock_pages": final,
            "reduction_ratio": final / steady,
            "shrink_intervals": len(shrink_steps),
            "mean_per_interval_reduction": (
                sum(shrink_steps) / len(shrink_steps) if shrink_steps else 0.0
            ),
            "escalations": db.lock_manager.stats.escalations.count,
            "client_drop_percent": 100.0 * (before_clients - after_clients)
            / before_clients,
        }
    )
    return result


# ---------------------------------------------------------------------------
# Extra experiments: baseline comparison and ablations
# ---------------------------------------------------------------------------

def run_baseline_comparison(
    seed: int = 11,
    clients: int = 40,
    dss_rows: int = 120_000,
    duration_s: float = 240.0,
) -> ExperimentResult:
    """The same surge + DSS workload under every tuning policy.

    Expected shape: the adaptive policy avoids escalation entirely; the
    static under-provisioned policy escalates; the SQL Server 2005
    policy escalates on the reporting query via its unconditional
    5000-locks-per-application trigger (the paper: "a single reporting
    query can easily result in lock escalation").  Memory behaviour
    also separates the policies: the adaptive policy's allocation
    relaxes after the query (delta_reduce), while the SQL Server model
    never returns lock memory to the pool.
    """
    policies: Dict[str, TuningPolicy] = {
        "db2-adaptive": AdaptiveLockMemoryPolicy(),
        "static-2MB-10pct": StaticLocklistPolicy(
            locklist_pages=512, maxlocks_fraction=0.10
        ),
        "sqlserver-2005": SqlServer2005Policy(),
    }
    metrics = MetricsRecorder()
    result = ExperimentResult("baseline-comparison", metrics)
    rows = []
    for name, policy in policies.items():
        cfg = DatabaseConfig(overflow_goal_fraction=0.10)
        db = _new_db(f"baseline-{name}", seed=seed, config=cfg, policy=policy)
        workload = OltpWorkload(
            db, ClientSchedule.step(clients // 2, clients, at=60.0)
        )
        workload.start()
        query = ReportingQuery(
            db, start_time_s=120.0, row_count=dss_rows,
            acquisition_duration_s=20.0, hold_duration_s=20.0,
        )
        query.start()
        db.run(until=duration_s)
        stats = db.lock_manager.stats
        rows.append(
            {
                "policy": name,
                "escalations": stats.escalations.count,
                "exclusive": stats.escalations.exclusive_count,
                "errors": stats.lock_list_full_errors,
                "commits": db.commits,
                "peak_lock_pages": db.metrics["lock_pages"].max(),
                "final_lock_pages": db.metrics["lock_pages"].last,
                "query_completed": query.result.completed if query.result else False,
            }
        )
        for key, value in rows[-1].items():
            if key != "policy":
                result.findings[f"{name}:{key}"] = value
    result.findings["policies"] = [r["policy"] for r in rows]
    best = max(rows, key=lambda r: r["commits"])
    result.findings["highest_throughput_policy"] = best["policy"]
    return result


def run_ablation_delta_reduce(
    deltas: Sequence[float] = (0.01, 0.05, 0.10, 0.25),
    seed: int = 13,
    drop_at_s: float = 120.0,
    duration_s: float = 480.0,
) -> ExperimentResult:
    """Sweep the shrink rate on the Figure 12 step-down scenario.

    Trade-off the paper's 5 % choice sits on: a small delta_reduce wastes
    memory for longer after a peak (slow relaxation); a large one
    de-stabilizes the allocation (and can immediately have to re-grow).
    """
    metrics = MetricsRecorder()
    result = ExperimentResult("ablation-delta-reduce", metrics)
    for delta in deltas:
        params = TuningParameters(delta_reduce=delta)
        db = _new_db(
            f"delta-{delta:.2f}", seed=seed, policy=AdaptiveLockMemoryPolicy(params)
        )
        workload = OltpWorkload(db, ClientSchedule.step(130, 30, at=drop_at_s))
        workload.start()
        db.run(until=duration_s)
        pages = db.metrics["lock_pages"]
        steady = pages.at(drop_at_s - 5)
        final = pages.last
        # The settled level every delta eventually reaches is the
        # 30-client minLockMemory floor; measuring waste against the
        # run's own final value would flatter slow shrink rates that
        # have not finished decaying inside the window.
        floor = params.min_lock_memory_pages(30)
        # Memory held above that floor after the drop (page-seconds):
        waste = 0.0
        window = pages.window(drop_at_s, duration_s)
        for i in range(1, len(window)):
            dt = window.times[i] - window.times[i - 1]
            waste += max(0.0, window.values[i - 1] - floor) * dt
        half_time = window.crossing_time((steady + floor) / 2.0, rising=False)
        key = f"delta={delta:.2f}"
        result.findings[f"{key}:final_pages"] = final
        result.findings[f"{key}:excess_page_seconds"] = waste
        result.findings[f"{key}:time_to_halfway_s"] = (
            (half_time - drop_at_s) if half_time is not None else None
        )
        result.findings[f"{key}:escalations"] = (
            db.lock_manager.stats.escalations.count
        )
    return result


def run_ablation_free_band(
    bands: Sequence[Tuple[float, float]] = ((0.50, 0.60), (0.20, 0.30), (0.75, 0.85)),
    seed: int = 17,
    duration_s: float = 240.0,
) -> ExperimentResult:
    """Sweep the minFree/maxFree band on the Figure 10 surge scenario.

    The paper keeps 50-60 % free so one interval can absorb a 100 %
    demand growth without synchronous allocation.  A narrow low band
    leaves little headroom (more synchronous growth, escalation risk);
    a high band wastes memory (allocated far above used).
    """
    metrics = MetricsRecorder()
    result = ExperimentResult("ablation-free-band", metrics)
    for min_free, max_free in bands:
        params = TuningParameters(
            min_free_fraction=min_free, max_free_fraction=max_free
        )
        db = _new_db(
            f"band-{min_free:.2f}-{max_free:.2f}",
            seed=seed, policy=AdaptiveLockMemoryPolicy(params),
        )
        workload = OltpWorkload(db, ClientSchedule.step(50, 130, at=90.0))
        workload.start()
        db.run(until=duration_s)
        pages = db.metrics["lock_pages"]
        used = db.metrics["lock_used_pages"]
        overhead = pages.mean() / max(1.0, used.mean())
        key = f"band={min_free:.2f}-{max_free:.2f}"
        result.findings[f"{key}:sync_growth_blocks"] = (
            db.lock_manager.stats.sync_growth_blocks
        )
        result.findings[f"{key}:escalations"] = (
            db.lock_manager.stats.escalations.count
        )
        result.findings[f"{key}:allocated_to_used_ratio"] = overhead
        result.findings[f"{key}:final_pages"] = pages.last
    return result


def run_two_heavy_consumers(
    seed: int = 37,
    dss_rows: int = 700_000,
    duration_s: float = 300.0,
) -> ExperimentResult:
    """Two simultaneous heavy lock consumers (section 5.3's discussion).

    The paper predicts: "Had two or more heavy lock consumers ... been
    simultaneously introduced the adaptive algorithm for
    lockPercentPerApplication would have attenuated the percentage of
    total lock memory that each query would be allowed to consume as
    global lock memory began to approach maxLockMemory".

    Expected shape: a single query of this size runs entirely on row
    locks (memory far from the maximum); the same two queries together
    push the allocation toward maxLockMemory, the MAXLOCKS curve
    attenuates hard, and the queries escalate (to S table locks) instead
    of exhausting global lock memory -- the system stays "well behaved".
    """
    cfg = DatabaseConfig(
        bufferpool_fraction=0.45,
        sort_fraction=0.10,
        hashjoin_fraction=0.05,
        pkgcache_fraction=0.03,
        overflow_goal_fraction=0.20,
    )

    def run(num_queries: int):
        db = _new_db(
            f"heavy-consumers-{num_queries}",
            seed=seed, config=cfg, policy=AdaptiveLockMemoryPolicy(),
        )
        queries = [
            ReportingQuery(
                db, start_time_s=10.0, row_count=dss_rows,
                table_id=1_000 + i,
                acquisition_duration_s=40.0, hold_duration_s=20.0,
            )
            for i in range(num_queries)
        ]
        for query in queries:
            query.start()
        db.run(until=duration_s)
        return db, queries

    solo_db, solo_queries = run(1)
    duo_db, duo_queries = run(2)

    metrics = MetricsRecorder()
    result = ExperimentResult("two-heavy-consumers", metrics)
    result.findings.update(
        {
            "solo_escalations": solo_db.lock_manager.stats.escalations.count,
            "solo_min_maxlocks_percent": solo_db.metrics["maxlocks_percent"].min(),
            "solo_completed": all(
                q.result and q.result.completed for q in solo_queries
            ),
            "duo_escalations": duo_db.lock_manager.stats.escalations.count,
            "duo_exclusive_escalations": (
                duo_db.lock_manager.stats.escalations.exclusive_count
            ),
            "duo_min_maxlocks_percent": duo_db.metrics["maxlocks_percent"].min(),
            "duo_completed": all(
                q.result and q.result.completed for q in duo_queries
            ),
            "duo_peak_lock_pages": duo_db.metrics["lock_pages"].max(),
            "max_lock_memory_pages": (
                duo_db.policy.controller.max_lock_memory_pages()
            ),
        }
    )
    result.notes.append(
        f"each query locks {dss_rows} rows; one fits comfortably, two "
        "together approach maxLockMemory"
    )
    return result


def run_ablation_maxlocks(
    seed: int = 19,
    oltp_clients: int = 20,
    dss_rows: int = 150_000,
    duration_s: float = 260.0,
) -> ExperimentResult:
    """Adaptive lockPercentPerApplication vs the old fixed 10 % default.

    Expected shape (section 5.3 discussion): with the adaptive curve a
    single DSS query may dominate lock memory and completes without
    escalation; with a fixed 10 % MAXLOCKS the very same query trips
    the per-application limit and escalates, "grinding the OLTP
    workload to a halt" in the paper's words.
    """
    metrics = MetricsRecorder()
    result = ExperimentResult("ablation-maxlocks", metrics)
    for label, policy_kind in (("adaptive", "adaptive"), ("fixed10", "fixed10")):
        sub = run_fig11_dss_injection(
            seed=seed,
            oltp_clients=oltp_clients,
            dss_rows=dss_rows,
            inject_at_s=60.0,
            acquisition_duration_s=25.0,
            hold_duration_s=20.0,
            duration_s=duration_s,
            maxlocks_policy=policy_kind,
        )
        for key in (
            "growth_factor",
            "escalations",
            "exclusive_escalations",
            "query_completed",
            "min_maxlocks_percent",
        ):
            result.findings[f"{label}:{key}"] = sub.findings[key]
    return result
