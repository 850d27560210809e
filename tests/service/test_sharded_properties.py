"""Seeded property tests: sharding must be invisible to accounting.

Two families, both pure stdlib (``random.Random(seed)`` workloads, no
hypothesis) so they run identically under any ``PYTHONHASHSEED``:

* **Shard-count invariance** -- the same scripted workload replayed
  against shards=1, shards=2 and shards=4 (and the unsharded stack)
  must produce the *identical* aggregate accounting tuple: grants,
  timeouts, escalations and cancelled waits.  Partitioning the lock
  table may change where a lock lives, never whether it is granted.
  Conflicts use ``timeout_s=0`` (immediate, deterministic timeout), so
  a single driver thread replays the exact same decision sequence on
  every topology.

* **workers=1 is shards=1** -- one forked worker behind the wire and one
  in-process shard behind the facade are the same control plane over
  one partition: the same scripted load and ``tune_now()`` cadence must
  produce the identical audit reason sequence, the identical page count
  after every pass, and identical final block/page accounting -- the
  pipe, the parent's mirror and the pre-pass sampling may not change a
  single decision.

* **Free-band safety** -- after the asynchronous tuning passes settle
  under any stable demand, the aggregate free fraction sits inside the
  paper's 50--60 % band (modulo one resize step of rounding) unless
  the controller is pinned at its min/max bounds, and no intermediate
  pass ever breaks page accounting, the ledger, or the LMOmax ceiling.
"""

import random

import pytest

from repro.lockmgr.manager import LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.service.sharded import ShardedServiceConfig, ShardedServiceStack
from repro.service.stack import ServiceConfig, ServiceStack
from repro.units import LOCKS_PER_BLOCK, PAGES_PER_BLOCK

SEEDS = [7, 401, 0xC0FFEE]

#: Mixed-mode single-driver workload.  Every branch is a deterministic
#: function of the RNG stream and the service's *logical* lock state,
#: which sharding does not change.
N_SESSIONS = 6
N_TABLES = 8
N_ROWS = 48


def run_workload(stack, seed: int, steps: int = 500) -> None:
    rng = random.Random(seed)
    service = stack.service
    sessions = [service.open_session() for _ in range(N_SESSIONS)]
    for _ in range(steps):
        app = sessions[rng.randrange(N_SESSIONS)]
        roll = rng.random()
        try:
            if roll < 0.50:
                mode = LockMode.X if rng.random() < 0.4 else LockMode.S
                service.lock_row(
                    app,
                    rng.randrange(N_TABLES),
                    rng.randrange(N_ROWS),
                    mode,
                    timeout_s=0,
                )
            elif roll < 0.70:
                mode = LockMode.X if rng.random() < 0.25 else LockMode.S
                service.lock_table(
                    app, rng.randrange(N_TABLES), mode, timeout_s=0
                )
            elif roll < 0.85:
                service.release_read_lock(
                    app, rng.randrange(N_TABLES), rng.randrange(N_ROWS)
                )
            else:
                service.rollback(app)
        except LockTimeoutError:
            pass
    for app in sessions:
        service.rollback(app)
        service.close_session(app)


def service_stats(stack):
    svc = stack.service
    if hasattr(svc, "aggregate_stats"):
        return svc.aggregate_stats()
    return svc.stats


def accounting_tuple(stack):
    """Everything that must be invariant under re-sharding.

    ``peak_used_slots`` is deliberately absent: per-shard peaks sum to
    an upper bound of the global peak, not the global peak itself.
    """
    s = service_stats(stack)
    m = stack.manager_stats
    return (
        s.requests,
        s.granted,
        s.timeouts,
        s.cancellations,
        m.requests,
        m.immediate_grants,
        m.waits,
        m.lock_timeouts,
        m.cancelled_waits,
        m.deadlocks,
        m.escalations.count,
        m.escalations.failures,
    )


def make_stack(shards: int):
    if shards == 0:
        return ServiceStack(ServiceConfig(tuner_interval_s=None))
    return ShardedServiceStack(
        ShardedServiceConfig(shards=shards, tuner_interval_s=None)
    )


class TestShardCountInvariance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_accounting_identical_across_topologies(self, seed):
        results = {}
        for shards in (0, 1, 2, 4):
            stack = make_stack(shards)
            run_workload(stack, seed)
            results[shards] = accounting_tuple(stack)
            # the workload rolled everything back: nothing may leak
            assert stack.chain.used_slots == 0
            stack.stop()
            stack.check_invariants()
        baseline = results[0]
        # the workload must actually exercise the interesting paths
        assert baseline[0] > 0  # requests
        assert baseline[2] > 0  # service-level timeouts
        for shards, got in results.items():
            assert got == baseline, (
                f"shards={shards} accounting diverged from unsharded: "
                f"{got} != {baseline}"
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ledger_occupancy_matches_chain_aggregates(self, seed):
        """Mid-workload, the ledger view and the chains never disagree."""
        stack = make_stack(4)
        rng = random.Random(seed)
        service = stack.service
        apps = [service.open_session() for _ in range(4)]
        for step in range(200):
            app = apps[rng.randrange(len(apps))]
            try:
                service.lock_row(
                    app,
                    rng.randrange(N_TABLES),
                    rng.randrange(N_ROWS),
                    LockMode.S,
                    timeout_s=0,
                )
            except LockTimeoutError:
                pass
            if step % 50 == 49:
                occupancy = stack.ledger.occupancy()
                assert sum(o["used_slots"] for o in occupancy) == (
                    stack.chain.used_slots
                )
                assert sum(o["capacity_slots"] for o in occupancy) == (
                    stack.chain.capacity_slots
                )
                assert all(
                    0.0 <= o["free_fraction"] <= 1.0 for o in occupancy
                )
        for app in apps:
            service.rollback(app)
            service.close_session(app)
        stack.stop()
        stack.check_invariants()


class TestOneWorkerIsOneShard:
    """Same control plane, one partition: a pipe may not change a decision."""

    ROWS = 1500

    def drive(self, stack):
        """Scripted load with a fixed tune_now() cadence; returns the
        observable tuning history."""
        pages = []

        def tune():
            stack.tuner.tune_now()
            pages.append(stack.chain.allocated_pages)

        with stack, stack.client_stack() as client:
            service = client.service
            apps = [service.open_session() for _ in range(3)]
            # Fill past the 50 % free floor: the pass must grow.
            for app in apps:
                for row in range(self.ROWS):
                    service.lock_row(app, app, row, LockMode.S)
            tune()
            # Overrun the grown LOCKLIST: synchronous borrows, then the
            # pass that folds them into the persisted size.
            for app in apps:
                for row in range(self.ROWS, 9 * self.ROWS):
                    service.lock_row(app, app, row, LockMode.S)
            tune()
            tune()
            # Demand gone: the 5 % shrink walk.
            for app in apps:
                service.rollback(app)
            for _ in range(6):
                tune()
            for app in apps:
                service.close_session(app)
            borrowed = stack.ledger.total_borrowed_blocks()
            assert borrowed > 0, "the script must exercise sync growth"
        stack.check_invariants()
        return {
            "reasons": stack.tuner.audit.reasons(),
            "pages_after_each_pass": pages,
            "borrowed_blocks": borrowed,
            "final_pages": stack.chain.allocated_pages,
            "final_blocks": stack.chain.block_count,
            "final_used_slots": stack.chain.used_slots,
            "locklist_heap_pages": stack.registry.heap("locklist").size_pages,
            "overflow_pages": stack.registry.overflow_pages,
            "registry": stack.registry.snapshot(),
        }

    def test_same_audit_sequence_and_final_accounting(self):
        from repro.service.workers import WorkerPoolConfig, WorkerPoolStack

        common = dict(
            initial_locklist_pages=4 * PAGES_PER_BLOCK,
            tuner_interval_s=3600.0,  # only the scripted passes run
        )
        shard = self.drive(
            ShardedServiceStack(ShardedServiceConfig(shards=1, **common))
        )
        worker = self.drive(
            WorkerPoolStack(WorkerPoolConfig(workers=1, **common))
        )
        assert shard["reasons"], "the script must produce audit records"
        assert {"grow-async", "shrink-5pct"} <= set(shard["reasons"])
        assert worker == shard


class TestFreeBandSafety:
    def _settle(self, stack, max_passes: int = 60) -> None:
        """Tune until the allocation stops moving (or give up loudly)."""
        for _ in range(max_passes):
            before = stack.chain.allocated_pages
            stack.tuner.tune_now()
            stack.check_invariants()
            assert (
                stack.chain.allocated_pages
                <= stack.controller.max_lock_memory_pages()
            )
            if stack.chain.allocated_pages == before:
                return
        raise AssertionError("tuner never settled")

    def _assert_band(self, stack) -> None:
        params = stack.controller.params
        free = stack.chain.free_fraction()
        pages = stack.chain.allocated_pages
        at_min = pages <= stack.controller.min_lock_memory_pages()
        at_max = pages >= stack.controller.max_lock_memory_pages()
        in_band = (
            params.min_free_fraction - 0.05
            <= free
            <= params.max_free_fraction + 0.05
        )
        # one grant split's worth of rounding slack around the band
        near_boundary = (
            abs(free - params.max_free_fraction) * stack.chain.capacity_slots
            <= (len(stack.service.shards) + 1) * LOCKS_PER_BLOCK
        )
        assert in_band or at_min or at_max or near_boundary, (
            f"free={free:.3f} pages={pages} outside band with no excuse"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_band_holds_after_settling_under_random_demand(self, seed):
        rng = random.Random(seed)
        stack = ShardedServiceStack(
            ShardedServiceConfig(
                shards=4,
                initial_locklist_pages=4 * PAGES_PER_BLOCK,
                tuner_interval_s=None,
            )
        )
        service = stack.service
        apps = [service.open_session() for _ in range(4)]
        for phase in range(3):
            # pick a demand level and a skew: some phases hammer one
            # shard, others spread evenly
            rows_per_app = rng.randrange(0, 1500)
            tables = (
                [rng.randrange(N_TABLES)]
                if rng.random() < 0.5
                else list(range(4))
            )
            for app in apps:
                service.rollback(app)
                for i in range(rows_per_app):
                    service.lock_row(
                        app, tables[i % len(tables)], i, LockMode.S
                    )
            self._settle(stack)
            self._assert_band(stack)
        for app in apps:
            service.rollback(app)
        self._settle(stack)
        # all demand gone: the controller shrinks toward its floor
        assert stack.chain.used_slots == 0
        for app in apps:
            service.close_session(app)
        stack.stop()
        stack.check_invariants()

    def test_grant_split_preserves_block_totals(self):
        """Distribution arithmetic: grants always sum to the grant."""
        stack = ShardedServiceStack(
            ShardedServiceConfig(shards=3, tuner_interval_s=None)
        )
        rng = random.Random(11)
        with stack.service._cond:
            for _ in range(100):
                blocks = rng.randrange(0, 9)
                split = stack.ledger.grant_split(blocks)
                assert sum(split) == blocks
                assert len(split) == 3
                assert all(share >= 0 for share in split)
        stack.stop()
