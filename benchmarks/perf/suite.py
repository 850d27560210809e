"""Microbenchmark definitions for the perf harness.

Each microbench is a plain function taking keyword parameters and
returning the number of *operations* it performed; the driver times
repeated invocations and derives ops/s and wall-time percentiles.
Every bench builds fresh state per invocation so repetitions are
independent, and none of them uses wall-clock-dependent control flow,
so the work done is a pure function of the parameters.

The benches and the hot paths they stress:

``lock_churn``
    Uncontended ``lock_row`` + ``release_all`` cycles: the allocation
    fast path (slot charge, held-lock bookkeeping, intent fast path).
``escalation_storm``
    Repeated memory-pressure escalations triggered by fresh zero-row
    requesters against an exactly-full block chain with no growth
    provider: global victim selection, candidate-table ordering, and
    the per-row escalation walk.
``detector_sweep``
    Repeated periodic-detector passes over a standing wait-for state
    (many contended rows, no cycles): wait-graph construction and the
    cycle DFS.
``fig9_e2e``
    A scaled-down Figure 9 ramp-up, end to end through the DES, the
    OLTP workload and the adaptive controller.
``service_churn_t{1,2,4,8}``
    Closed-loop threaded load through the live wall-clock LockService
    (mutex hand-off, condition-variable wakeups, live tuner daemon) at
    1/2/4/8 worker threads -- the req/s-vs-thread-count degradation
    curve.
``service_churn_t8_ops``
    ``service_churn_t8`` with the full ops plane enabled (metric
    registry, live /metrics endpoint, 1-in-64 request traces); the
    paired delta against the ops-off run is the observability
    overhead, contractually <= 5 % of median throughput.
``service_churn_t8_waits``
    ``service_churn_t8_ops`` plus the wait-event profiler (wait-class
    histograms, latch statistics, incident forensics); the delta
    against ``service_churn_t8_ops`` isolates the *profiler's* cost,
    and the delta against plain ``service_churn_t8`` gates the whole
    observed stack at the same <= 5 % of median throughput.
``service_churn_t8_broker``
    ``service_churn_t8`` with the whole-memory broker enabled
    (sortheap/hashjoin/pkgcache heaps, per-interval marginal-benefit
    trading, the pressure posture machine); the delta against the
    broker-off run gates the arbitration cost at <= 5 % of median
    throughput.
``service_churn_sharded_t{1,2,4,8}``
    The same closed loop through the sharded stack (per-shard lock
    tables, global STMM arbitration, cross-shard deadlock sweep): the
    hot-latch fix.  Compared against the unsharded curve it answers
    whether sharding restores positive thread scaling.
``service_churn_net_w2_traced``
    ``service_churn_net_w2`` with 1-in-8 distributed request tracing
    (trace context over the wire, hop timings on both ends, bounded
    trace rings); the paired delta against the untraced lane gates
    the tracer's cost at <= 5 % of median throughput.

``scenario_matrix_mini``
    The scenario matrix engine end to end over the ``mini`` grid
    (contention regimes, a sharded run, a DSS tenant, a demand replay
    and one chaos injection); raises if any scenario's verdict is
    ``fail``, so the lane gates on correctness, not timing.

An operation means: one row-lock request (churn, service churn), one
trigger/escalate/refill cycle (storm), one detector pass (sweep), one
committed transaction (fig9), one scenario run (matrix).
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.engine.des import Environment
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.detector import DeadlockDetector
from repro.lockmgr.manager import LockManager
from repro.lockmgr.modes import LockMode
from repro.units import LOCKS_PER_BLOCK


def _drive(gen) -> None:
    """Run a locking generator that must not block to completion."""
    try:
        next(gen)
    except StopIteration:
        return
    raise RuntimeError("benchmark generator blocked unexpectedly")


def _start(gen):
    """Advance a locking generator to its first suspension point.

    Returns the generator (still suspended) or None if it completed
    without blocking.
    """
    try:
        next(gen)
    except StopIteration:
        return None
    return gen


# ---------------------------------------------------------------------------
# lock churn
# ---------------------------------------------------------------------------

def run_lock_churn(
    apps: int = 16, tables: int = 8, rows: int = 64, iters: int = 4
) -> int:
    """Uncontended acquire/release churn; returns row-lock requests."""
    env = Environment()
    chain = LockBlockChain(initial_blocks=max(4, apps * tables * (rows + 1) // 2048 + 1))
    manager = LockManager(env, chain, maxlocks_fraction=1.0)
    ops = 0
    for _ in range(iters):
        for app in range(1, apps + 1):
            base = app * 1_000_000  # disjoint rows: no contention
            for table in range(tables):
                for row in range(rows):
                    _drive(manager.lock_row(app, table, base + row, LockMode.X))
                    ops += 1
        for app in range(1, apps + 1):
            manager.release_all(app)
    return ops


# ---------------------------------------------------------------------------
# escalation storm
# ---------------------------------------------------------------------------

def run_escalation_storm(
    holders: int = 512,
    tables_per_holder: int = 8,
    rows_per_table: int = 2,
    cycles: int = 2500,
) -> int:
    """Memory-pressure escalations driven by zero-row requesters.

    Setup: ``holders`` applications each X-lock ``rows_per_table`` rows
    in each of ``tables_per_holder`` private tables, sized so the block
    chain is *exactly* full (``holders * tables_per_holder *
    (rows_per_table + 1)`` must be a multiple of LOCKS_PER_BLOCK).

    Each cycle then runs the worst-case victim-selection path: a fresh
    application (holding nothing) requests one row lock.  With zero free
    structures and no growth provider the manager must pick a memory-
    pressure escalation victim -- and because the requester has no row
    locks it cannot escalate itself, forcing a search across *every*
    holder for the biggest row-lock owner.  The victim's fullest table
    is escalated (private tables, so the table lock is grantable
    immediately), the trigger releases, and the victim re-fills a fresh
    table with exactly the freed structures so the next cycle starts
    from a full chain again.

    Returns the number of trigger cycles (== victim selections ==
    escalations).
    """
    total_structures = holders * tables_per_holder * (rows_per_table + 1)
    blocks, rem = divmod(total_structures, LOCKS_PER_BLOCK)
    if rem:
        raise ValueError(
            "storm parameters must fill whole blocks: "
            f"{total_structures} structures % {LOCKS_PER_BLOCK} != 0"
        )
    env = Environment()
    chain = LockBlockChain(initial_blocks=blocks)
    manager = LockManager(env, chain, maxlocks_fraction=1.0)
    for app in range(1, holders + 1):
        base_table = app * tables_per_holder
        for t in range(tables_per_holder):
            for row in range(rows_per_table):
                _drive(manager.lock_row(app, base_table + t, row, LockMode.X))
    if chain.free_slots != 0:
        raise RuntimeError(
            f"storm setup left {chain.free_slots} free structures"
        )
    outcomes = manager.stats.escalations.outcomes
    for cycle in range(cycles):
        trigger = 1_000_000 + cycle  # fresh app: zero row locks held
        before = len(outcomes)
        _drive(manager.lock_row(trigger, 2_000_000 + cycle, 0, LockMode.X))
        if len(outcomes) != before + 1:
            raise RuntimeError("trigger request did not force an escalation")
        manager.release_all(trigger)
        victim, freed = outcomes[-1].app_id, outcomes[-1].freed_slots
        if victim == trigger or freed < 2:
            raise RuntimeError(
                f"unexpected escalation outcome: victim={victim} freed={freed}"
            )
        # Refill the victim: a fresh private table consuming exactly the
        # freed structures (1 intent + freed-1 rows) restores pressure.
        refill_table = 3_000_000 + cycle
        for row in range(freed - 1):
            _drive(manager.lock_row(victim, refill_table, row, LockMode.X))
        if chain.free_slots != 0:
            raise RuntimeError(
                f"cycle {cycle} left {chain.free_slots} free structures"
            )
    return cycles


# ---------------------------------------------------------------------------
# deadlock-detector sweep
# ---------------------------------------------------------------------------

def run_detector_sweep(
    groups: int = 64,
    readers_per_group: int = 8,
    writers_per_group: int = 4,
    sweeps: int = 400,
) -> int:
    """Repeated detector passes over a cycle-free wait state.

    Each group is one hot row: ``readers_per_group`` applications hold
    S, and ``writers_per_group`` applications queue for X (blocked by
    every reader plus the writers ahead of them).  The wait-for graph
    therefore has ``groups * writers_per_group`` waiting nodes with
    realistic fan-out and no cycles, so every pass builds the graph,
    runs the full DFS and rolls back nobody -- the state is reusable
    across sweeps.  Returns the number of detector passes.
    """
    env = Environment()
    chain = LockBlockChain(
        initial_blocks=max(
            2, groups * (readers_per_group + writers_per_group) // 1024 + 1
        )
    )
    manager = LockManager(env, chain, maxlocks_fraction=1.0)
    detector = DeadlockDetector(manager, interval_s=10.0)  # periodic mode

    app_id = 0
    for group in range(groups):
        for _ in range(readers_per_group):
            app_id += 1
            _drive(manager.lock_row(app_id, 0, group, LockMode.S))
        for _ in range(writers_per_group):
            app_id += 1
            blocked = _start(manager.lock_row(app_id, 0, group, LockMode.X))
            if blocked is None:
                raise RuntimeError("writer was expected to block")
    if len(manager.waiting_apps()) != groups * writers_per_group:
        raise RuntimeError("sweep setup did not produce the expected waiters")

    for _ in range(sweeps):
        if detector.check() != 0:
            raise RuntimeError("sweep state unexpectedly contained a cycle")
    return sweeps


# ---------------------------------------------------------------------------
# fig9 end-to-end
# ---------------------------------------------------------------------------

def run_fig9_e2e(
    clients: int = 32, ramp_duration_s: float = 20.0, duration_s: float = 60.0
) -> int:
    """Scaled-down Figure 9 ramp-up; returns committed transactions."""
    from repro.analysis.scenarios import run_fig9_rampup

    result = run_fig9_rampup(
        seed=9,
        clients=clients,
        ramp_duration_s=ramp_duration_s,
        duration_s=duration_s,
    )
    commits = int(result.findings["commits"])
    if commits <= 0:
        raise RuntimeError("fig9 e2e run committed nothing")
    return commits


# ---------------------------------------------------------------------------
# service churn (threaded, wall-clock)
# ---------------------------------------------------------------------------

def run_service_churn(
    threads: int = 4,
    requests_per_thread: int = 2_000,
    total_memory_pages: int = 16_384,
    initial_locklist_pages: int = 128,
    tuner_interval_s: float = 0.05,
    ops: bool = False,
    trace_sample_every: int = 64,
    waits: bool = False,
    broker: bool = False,
) -> int:
    """Closed-loop threaded load through the live LockService.

    Unlike the DES benches this one runs real threads against the
    wall-clock service stack -- mutex hand-off, condition-variable
    wakeups and the live tuner daemon included.  Measured across thread
    counts it answers "how does service throughput degrade as real
    concurrency rises" (under the GIL the coarse-mutex service cannot
    scale linearly; the interesting result is how gracefully req/s
    holds).  With ``ops=True`` the full observability plane rides along
    (metric registry, live /metrics HTTP endpoint on an ephemeral port,
    1-in-``trace_sample_every`` request traces); paired against the
    ops-off run it measures the plane's overhead, which the contract
    caps at 5 % of median throughput.  ``waits=True`` additionally
    enables the wait-event profiler (latch try-acquire/spin path on
    every hot entry, wait-class histograms, blocker attribution) --
    paired the same way, with the same 5 % gate.  ``broker=True``
    enables the whole-memory broker (sortheap/hashjoin/pkgcache heaps,
    per-interval benefit estimation and block trading, the pressure
    state machine); paired against the broker-off run it bounds the
    arbitration cost at the same 5 % of median throughput.  Returns
    lock requests completed.
    """
    from repro.service.driver import LoadDriver
    from repro.service.stack import ServiceConfig, ServiceStack

    stack = ServiceStack(
        ServiceConfig(
            total_memory_pages=total_memory_pages,
            initial_locklist_pages=initial_locklist_pages,
            tuner_interval_s=tuner_interval_s,
            max_in_flight=max(4, threads),
            admission_queue_depth=4 * max(4, threads),
            ops_port=0 if ops else None,
            trace_sample_every=trace_sample_every if ops else 0,
            wait_profile=waits,
            broker=broker,
        )
    )
    with stack:
        report = LoadDriver(
            stack,
            threads=threads,
            requests_per_thread=requests_per_thread,
            seed=17,
        ).run()
    if report.worker_errors:
        raise RuntimeError(f"service churn workers failed: {report.worker_errors}")
    if report.lock_requests < threads * requests_per_thread:
        raise RuntimeError(
            f"service churn incomplete: {report.lock_requests} requests"
        )
    if stack.chain.used_slots != 0:
        raise RuntimeError("service churn leaked lock structures")
    stack.check_invariants()
    return report.lock_requests


def run_service_churn_sharded(
    threads: int = 4,
    shards: int = 4,
    requests_per_thread: int = 2_000,
    total_memory_pages: int = 16_384,
    initial_locklist_pages: int = 256,
    tuner_interval_s: float = 0.05,
    deadlock_interval_s: float = 0.02,
) -> int:
    """Closed-loop threaded load through the sharded service stack.

    Identical workload and completeness/accounting assertions as
    :func:`run_service_churn`, but resources are partitioned across
    ``shards`` lock managers so uncontended requests on different
    tables never touch the same mutex.  Four shards matches the CI
    smoke job; more shards only add routing/close fan-out on hosts
    with few cores.  The initial LOCKLIST is larger only because each
    shard needs at least one 128 KB block to seed.
    The cross-shard deadlock sweep (DLCHKTIME) is tightened to 20 ms:
    DB2's 10 s default assumes transactions lasting seconds, while this
    driver's transactions run in microseconds -- at the 250 ms service
    default a single cross-shard cycle parks its victims for most of a
    timed repetition, measuring the sweep period rather than the lock
    path.  Returns lock requests completed.
    """
    from repro.service.driver import LoadDriver
    from repro.service.sharded import ShardedServiceConfig, ShardedServiceStack

    stack = ShardedServiceStack(
        ShardedServiceConfig(
            total_memory_pages=total_memory_pages,
            initial_locklist_pages=initial_locklist_pages,
            tuner_interval_s=tuner_interval_s,
            deadlock_interval_s=deadlock_interval_s,
            max_in_flight=max(4, threads),
            admission_queue_depth=4 * max(4, threads),
            shards=shards,
        )
    )
    with stack:
        report = LoadDriver(
            stack,
            threads=threads,
            requests_per_thread=requests_per_thread,
            seed=17,
        ).run()
    if report.worker_errors:
        raise RuntimeError(
            f"sharded service churn workers failed: {report.worker_errors}"
        )
    if report.lock_requests < threads * requests_per_thread:
        raise RuntimeError(
            f"sharded service churn incomplete: {report.lock_requests} requests"
        )
    if stack.chain.used_slots != 0:
        raise RuntimeError("sharded service churn leaked lock structures")
    if stack.detector.crash is not None:
        raise RuntimeError(
            f"deadlock sweep crashed: {stack.detector.crash!r}"
        )
    stack.check_invariants()
    return report.lock_requests


def run_service_churn_net(
    threads: int = 1,
    workers: int = 1,
    requests_per_thread: int = 6_000,
    total_memory_pages: int = 16_384,
    initial_locklist_pages: int = 128,
    tuner_interval_s: float = 0.05,
    trace_sample_every: int = 0,
) -> int:
    """Closed-loop load over the wire against the worker-process pool.

    The same workload as :func:`run_service_churn`, but every lock
    request crosses a Unix-domain socket into one of ``workers``
    forked worker processes (each owning its own LockService shard),
    with the STMM arbiter, resize distribution and deadlock sweep
    running in the parent.  Measured against ``service_churn_t1`` it
    prices the wire (framing, syscalls, pipelined dispatch); measured
    across worker counts it answers whether process-per-shard buys
    throughput on the host.  On a single-core box the curve is flat --
    workers time-slice one CPU and the socket adds a constant tax --
    so the lanes gate on completeness and byte-exact cross-worker
    block accounting, not on scaling.  ``requests_per_thread`` is
    higher than the in-process lanes because pool forking and socket
    setup would otherwise dominate the timing.  With
    ``trace_sample_every > 0`` the distributed tracer rides along
    (1-in-N requests carry a trace context over the wire and both ends
    record hop timings); paired against the untraced run it prices the
    tracer, contractually <= 5 % of median throughput.  Returns lock
    requests completed.
    """
    from repro.service.driver import LoadDriver
    from repro.service.workers import WorkerPoolConfig, WorkerPoolStack

    stack = WorkerPoolStack(
        WorkerPoolConfig(
            total_memory_pages=total_memory_pages,
            initial_locklist_pages=initial_locklist_pages,
            tuner_interval_s=tuner_interval_s,
            max_in_flight=max(4, threads),
            admission_queue_depth=4 * max(4, threads),
            workers=workers,
            trace_sample_every=trace_sample_every,
        )
    )
    with stack:
        with stack.client_stack(pool_size=1) as net:
            report = LoadDriver(
                net,
                threads=threads,
                requests_per_thread=requests_per_thread,
                seed=17,
            ).run()
    if report.worker_errors:
        raise RuntimeError(
            f"net service churn workers failed: {report.worker_errors}"
        )
    if report.lock_requests < threads * requests_per_thread:
        raise RuntimeError(
            f"net service churn incomplete: {report.lock_requests} requests"
        )
    rec = stack.reconciliation
    if rec is None or not rec.ok:
        raise RuntimeError(f"net service churn reconcile failed: {rec}")
    if rec.expected_blocks != rec.reported_blocks:
        raise RuntimeError(
            f"net service churn block mismatch: expected "
            f"{rec.expected_blocks}, reported {rec.reported_blocks}"
        )
    if trace_sample_every > 0:
        sampled = sum(t.summary()["finished"] for t in stack.request_tracers)
        if sampled <= 0:
            raise RuntimeError("traced net churn recorded no traces")
    return report.lock_requests


# ---------------------------------------------------------------------------
# scenario matrix
# ---------------------------------------------------------------------------

def run_scenario_matrix(grid: str = "mini") -> int:
    """The scenario matrix engine as a bench lane; returns scenarios run.

    Expands the named grid (``mini`` in the smoke, see
    :mod:`repro.scenarios.grids`) and runs every scenario -- contention
    regimes, topology toggles, demand replays and the chaos lane --
    asserting that each verdict lands ``pass`` or ``expected-degraded``.
    A ``fail`` verdict raises, naming the scenario and the checks that
    broke, so the matrix rides in BENCH_SERVICE.json with
    self-describing params like every other lane.
    """
    from repro.scenarios import build_grid, run_matrix

    report = run_matrix(build_grid(grid))
    failed = [
        f"{result.spec.folder}: "
        + ", ".join(entry.name for entry in result.verdict.failed_checks)
        for result in report.results
        if not result.verdict.ok
    ]
    if failed:
        raise RuntimeError(f"scenario matrix failed: {failed}")
    return len(report.results)


# ---------------------------------------------------------------------------
# registry and scales
# ---------------------------------------------------------------------------

#: name -> (callable, unit of the returned op count)
BENCHES: Dict[str, tuple] = {
    "lock_churn": (run_lock_churn, "row_lock_requests"),
    "escalation_storm": (run_escalation_storm, "escalation_cycles"),
    "detector_sweep": (run_detector_sweep, "detector_passes"),
    "fig9_e2e": (run_fig9_e2e, "commits"),
    "service_churn_t1": (run_service_churn, "lock_requests"),
    "service_churn_t2": (run_service_churn, "lock_requests"),
    "service_churn_t4": (run_service_churn, "lock_requests"),
    "service_churn_t8": (run_service_churn, "lock_requests"),
    "service_churn_t8_ops": (run_service_churn, "lock_requests"),
    "service_churn_t8_waits": (run_service_churn, "lock_requests"),
    "service_churn_t8_broker": (run_service_churn, "lock_requests"),
    "service_churn_sharded_t1": (run_service_churn_sharded, "lock_requests"),
    "service_churn_sharded_t2": (run_service_churn_sharded, "lock_requests"),
    "service_churn_sharded_t4": (run_service_churn_sharded, "lock_requests"),
    "service_churn_sharded_t8": (run_service_churn_sharded, "lock_requests"),
    "service_churn_net_w1": (run_service_churn_net, "lock_requests"),
    "service_churn_net_w2": (run_service_churn_net, "lock_requests"),
    "service_churn_net_w2_traced": (run_service_churn_net, "lock_requests"),
    "service_churn_net_w4": (run_service_churn_net, "lock_requests"),
    "scenario_matrix_mini": (run_scenario_matrix, "scenarios"),
}

#: Baked-in per-lane configuration.  Kept as data (not lambda
#: closures) so the emitted JSON records the real topology of every
#: lane -- ``threads``/``shards``/``workers`` land in each bench
#: entry's ``params`` instead of an empty dict.
BENCH_BASE_PARAMS: Dict[str, Dict[str, Any]] = {
    "service_churn_t1": {"threads": 1},
    "service_churn_t2": {"threads": 2},
    "service_churn_t4": {"threads": 4},
    "service_churn_t8": {"threads": 8},
    "service_churn_t8_ops": {"threads": 8, "ops": True},
    "service_churn_t8_waits": {"threads": 8, "ops": True, "waits": True},
    "service_churn_t8_broker": {"threads": 8, "broker": True},
    "service_churn_sharded_t1": {"threads": 1, "shards": 4},
    "service_churn_sharded_t2": {"threads": 2, "shards": 4},
    "service_churn_sharded_t4": {"threads": 4, "shards": 4},
    "service_churn_sharded_t8": {"threads": 8, "shards": 4},
    "service_churn_net_w1": {"threads": 1, "workers": 1},
    "service_churn_net_w2": {"threads": 4, "workers": 2},
    "service_churn_net_w2_traced": {
        "threads": 4,
        "workers": 2,
        "trace_sample_every": 8,
    },
    "service_churn_net_w4": {"threads": 4, "workers": 4},
    "scenario_matrix_mini": {"grid": "mini"},
}

#: Parameter overrides per scale.  ``smoke`` is sized for CI: it must
#: exercise every code path in seconds, not produce stable timings.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "default": {
        "lock_churn": {},
        "escalation_storm": {},
        "detector_sweep": {},
        "fig9_e2e": {},
        "service_churn_t1": {},
        "service_churn_t2": {},
        "service_churn_t4": {},
        "service_churn_t8": {},
        "service_churn_t8_ops": {},
        "service_churn_t8_waits": {},
        "service_churn_t8_broker": {},
        "service_churn_sharded_t1": {},
        "service_churn_sharded_t2": {},
        "service_churn_sharded_t4": {},
        "service_churn_sharded_t8": {},
        "service_churn_net_w1": {},
        "service_churn_net_w2": {},
        "service_churn_net_w2_traced": {},
        "service_churn_net_w4": {},
        "scenario_matrix_mini": {},
    },
    "smoke": {
        "lock_churn": {"apps": 4, "tables": 2, "rows": 16, "iters": 1},
        "escalation_storm": {
            "holders": 128,
            "tables_per_holder": 4,
            "rows_per_table": 3,
            "cycles": 10,
        },
        "detector_sweep": {
            "groups": 8,
            "readers_per_group": 4,
            "writers_per_group": 2,
            "sweeps": 3,
        },
        "fig9_e2e": {"clients": 6, "ramp_duration_s": 5.0, "duration_s": 15.0},
        "service_churn_t1": {"requests_per_thread": 200},
        "service_churn_t2": {"requests_per_thread": 200},
        "service_churn_t4": {"requests_per_thread": 100},
        "service_churn_t8": {"requests_per_thread": 50},
        "service_churn_t8_ops": {"requests_per_thread": 50},
        "service_churn_t8_waits": {"requests_per_thread": 50},
        "service_churn_t8_broker": {"requests_per_thread": 50},
        "service_churn_sharded_t1": {"requests_per_thread": 200, "shards": 2},
        "service_churn_sharded_t2": {"requests_per_thread": 200, "shards": 2},
        "service_churn_sharded_t4": {"requests_per_thread": 100, "shards": 4},
        "service_churn_sharded_t8": {"requests_per_thread": 50, "shards": 4},
        "service_churn_net_w1": {"requests_per_thread": 200},
        "service_churn_net_w2": {"requests_per_thread": 100},
        "service_churn_net_w2_traced": {"requests_per_thread": 100},
        "service_churn_net_w4": {"requests_per_thread": 100},
        "scenario_matrix_mini": {},
    },
}


def bench_params(name: str, scale: str) -> Dict[str, Any]:
    """The kwargs a lane runs with: baked-in topology + scale overrides."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    params = dict(BENCH_BASE_PARAMS.get(name, {}))
    params.update(SCALES[scale].get(name, {}))
    return params
