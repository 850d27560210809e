"""Lock-manager lanes the ladder (``benchmarks/ladder``) does not cover.

Two bare-``LockManager`` paths that no ladder workload reaches at rate:

``escalation_storm``
    Repeated memory-pressure escalations triggered by fresh zero-row
    requesters against an exactly-full block chain with no growth
    provider: global victim selection, candidate-table ordering and the
    per-row escalation walk.  One op is one trigger/escalate/refill
    cycle.
``detector_sweep``
    Repeated periodic-detector passes over a standing wait-for state
    (many contended rows, no cycles): wait-graph construction and the
    cycle DFS.  One op is one detector pass.

Each lane builds fresh state per round, has no wall-clock-dependent
control flow and checks its exact counts with ``assert``, so the work
is a pure function of the sizes.  The timed region is the whole lane
function, setup included.  Run, record and compare::

    PYTHONPATH=src python -m pytest benchmarks/bench_lock_lanes.py \\
        --benchmark-only --benchmark-json=lanes.json
    PYTHONPATH=src python -m pytest benchmarks/bench_lock_lanes.py \\
        --benchmark-only --benchmark-compare=lanes.json

``--benchmark-disable`` runs each lane once, with its asserts and no
timing (the CI step).
"""

from repro.engine.des import Environment
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.detector import DeadlockDetector
from repro.lockmgr.manager import LockManager
from repro.lockmgr.modes import LockMode
from repro.units import LOCKS_PER_BLOCK


def _blocks(gen) -> bool:
    """Advance a locking generator; True if it suspended on a wait."""
    try:
        next(gen)
    except StopIteration:
        return False
    return True


def _drive(gen) -> None:
    """Run a locking generator that must not block to completion."""
    blocked = _blocks(gen)
    assert not blocked, "lane generator blocked unexpectedly"


def escalation_storm(
    holders: int = 512,
    tables_per_holder: int = 8,
    rows_per_table: int = 2,
    cycles: int = 2500,
) -> int:
    """Memory-pressure escalations driven by zero-row requesters.

    Setup: ``holders`` applications each X-lock ``rows_per_table`` rows
    in each of ``tables_per_holder`` private tables, sized so the block
    chain is *exactly* full.  Each cycle then runs the worst-case
    victim-selection path: a fresh application (holding nothing)
    requests one row lock.  With zero free structures and no growth
    provider the manager must escalate someone, and because the
    requester holds no row lock it scans every holder for the biggest
    row-lock owner.  The victim's fullest table is escalated (private
    tables, so the table lock is grantable at once), the trigger
    releases, and the victim re-fills a fresh table with exactly the
    freed structures so the next cycle starts from a full chain again.
    Returns the number of cycles (== victim selections == escalations).
    """
    total_structures = holders * tables_per_holder * (rows_per_table + 1)
    blocks, rem = divmod(total_structures, LOCKS_PER_BLOCK)
    assert rem == 0, f"{total_structures} structures do not fill whole blocks"
    chain = LockBlockChain(initial_blocks=blocks)
    manager = LockManager(Environment(), chain, maxlocks_fraction=1.0)
    for app in range(1, holders + 1):
        base_table = app * tables_per_holder
        for t in range(tables_per_holder):
            for row in range(rows_per_table):
                _drive(manager.lock_row(app, base_table + t, row, LockMode.X))
    assert chain.free_slots == 0
    outcomes = manager.stats.escalations.outcomes
    for cycle in range(cycles):
        trigger = 1_000_000 + cycle  # fresh app: zero row locks held
        before = len(outcomes)
        _drive(manager.lock_row(trigger, 2_000_000 + cycle, 0, LockMode.X))
        assert len(outcomes) == before + 1, "trigger forced no escalation"
        manager.release_all(trigger)
        victim, freed = outcomes[-1].app_id, outcomes[-1].freed_slots
        assert victim != trigger and freed >= 2, (victim, freed)
        # Refill the victim: a fresh private table consuming exactly the
        # freed structures (1 intent + freed-1 rows) restores pressure.
        refill_table = 3_000_000 + cycle
        for row in range(freed - 1):
            _drive(manager.lock_row(victim, refill_table, row, LockMode.X))
        assert chain.free_slots == 0, f"cycle {cycle} left free structures"
    return cycles


def detector_sweep(
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
    chain = LockBlockChain(
        initial_blocks=max(
            2, groups * (readers_per_group + writers_per_group) // 1024 + 1
        )
    )
    manager = LockManager(Environment(), chain, maxlocks_fraction=1.0)
    detector = DeadlockDetector(manager, interval_s=10.0)  # periodic mode

    app_id = 0
    for group in range(groups):
        for _ in range(readers_per_group):
            app_id += 1
            _drive(manager.lock_row(app_id, 0, group, LockMode.S))
        for _ in range(writers_per_group):
            app_id += 1
            blocked = _blocks(manager.lock_row(app_id, 0, group, LockMode.X))
            assert blocked, "writer was expected to block"
    assert len(manager.waiting_apps()) == groups * writers_per_group

    for _ in range(sweeps):
        victims = detector.check()
        assert victims == 0, "sweep state contained a cycle"
    return sweeps


def test_escalation_storm(benchmark):
    cycles = benchmark.pedantic(escalation_storm, rounds=5, warmup_rounds=1)
    assert cycles == 2500
    benchmark.extra_info["escalation_cycles"] = cycles


def test_detector_sweep(benchmark):
    passes = benchmark.pedantic(detector_sweep, rounds=5, warmup_rounds=1)
    assert passes == 400
    benchmark.extra_info["detector_passes"] = passes
