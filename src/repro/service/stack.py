"""One-call assembly of the live lock service and its tuning stack.

:class:`ServiceStack` is the service-world analogue of
:class:`repro.engine.database.Database`: it puts the in-process lock
tables under the shared control plane
(:class:`~repro.service.control.ControlPlane` -- memory registry,
ledger, the paper's :class:`LockMemoryController` + adaptive MAXLOCKS,
STMM, the :class:`TunerDaemon`), exactly the way the simulation assembly
does -- same providers, same ``on_resize`` hook, same overflow plumbing
-- so the live system runs the identical tuning algorithm, just on
wall-clock intervals.

One class serves both in-process topologies.  A plain
:class:`ServiceConfig` means one lock table: ``stack.service`` is the
bare thread-safe :class:`LockService`, no facade hop.  A
:class:`~repro.service.sharded.ShardedServiceConfig` names a shard
count: ``stack.service`` is the
:class:`~repro.service.sharded.ShardedLockService` routing facade over
that many lock tables, and a deadlock sweep looks for the cycles no
single table can see.  Everything above the tables is the same object
graph either way -- the unsharded stack is the one-partition case.

The memory model is deliberately smaller than the full simulated
database: one bufferpool heap (the PMC donor STMM trades against) plus
the locklist FMC heap and the overflow area.  That is all the lock
memory algorithm of the paper interacts with.

:func:`build_stack` picks the stack class for a topology (unsharded,
``shards=N``, ``workers=N``); the CLI, the scenario runner and the
chaos lane all build through it.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Dict, List, Optional

from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockManagerStats
from repro.obs.incidents import IncidentRecorder
from repro.obs.tracing import RequestTracer
from repro.obs.waits import WaitEventProfiler
from repro.service.admission import AdmissionController
from repro.service.broker import (
    MemoryBroker,
    RateMeter,
    WorkloadProfile,
    default_estimators,
)
from repro.service.clock import Clock
from repro.service.control import ControlPlane, ServiceConfig
from repro.service.ledger import initial_split
from repro.service.partition import LocalPartition
from repro.service.service import LockService
from repro.units import PAGES_PER_BLOCK, round_pages_to_blocks


class ServiceStack(ControlPlane):
    """A fully wired in-process lock service (see module docstring).

    Lock ordering protocol (deadlock-freedom across internal actors):

    1. Partition conditions are only ever acquired one-at-a-time
       (request path) or all-ascending-by-index (tuner, sweep, close,
       invariant checks).
    2. The growth lock is acquired only *after* a partition condition
       (a sync-growing request thread) and never the other way around.
    3. The growth-lock holder never waits for any partition condition.

    A thread holding all partition conditions excludes every request
    thread, so the heap-grown-but-chain-not-yet window inside
    synchronous growth is unobservable to the tuner and
    ``check_consistency`` cannot misfire.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        clock: Optional[Clock] = None,
    ) -> None:
        cfg = config or ServiceConfig()
        super().__init__(cfg, clock)
        #: 0 = one bare lock table; N >= 1 = N tables behind the facade.
        shards: int = getattr(cfg, "shards", 0)
        self._sharded = shards > 0
        if self._sharded:
            self.service_name = "sharded-lock-service"
        blocks = round_pages_to_blocks(cfg.initial_locklist_pages) // PAGES_PER_BLOCK
        # Tables share the clock and the metric registry; behind the
        # facade each table's service.* instruments carry a shard=N
        # label, so the registry holds one distinct series per shard
        # (sum for the aggregate).
        tables = [
            LockService(
                LockBlockChain(initial_blocks=share),
                clock=self.clock,
                metrics=self.metrics,
                metric_labels=self._labels(idx),
            )
            for idx, share in enumerate(initial_split(blocks, shards or 1))
        ]
        if self._sharded:
            # Imported here: the facade's module builds on this one.
            from repro.service.sharded import ShardedLockService

            self.service: Any = ShardedLockService(tables, clock=self.clock)
        else:
            self.service = tables[0]
        self._wire(
            [LocalPartition(idx, table) for idx, table in enumerate(tables)],
            cond=self.service._cond,
            sessions=self.service.session_count,
            escalations=lambda: sum(
                table.manager.stats.escalations.count for table in tables
            ),
            sweep_interval_s=cfg.deadlock_interval_s if self._sharded else None,
        )
        # Synchronous borrows from any table funnel through one lock:
        # the registry is not thread-safe, and the ledger must see the
        # borrow attributed before another table reads the split.
        self._growth_lock = threading.Lock()
        self.admission = AdmissionController(
            cfg.max_in_flight,
            cfg.admission_queue_depth,
            clock=self.clock,
        )
        if cfg.broker:
            # The whole-memory broker over the same registry: it trades
            # PMC blocks by marginal benefit and drives the admission
            # postures, reading two live LOCKLIST signals (used pages,
            # and the escalation count as a rate).
            estimators = default_estimators(
                self.registry,
                WorkloadProfile(),
                locklist_used_pages=self.controller.used_pages,
                locklist_escalation_rate=RateMeter(self.escalation_count),
                locklist_min_free_fraction=cfg.params.min_free_fraction,
            )
            self.broker = MemoryBroker(
                self.registry,
                estimators,
                admission=self.admission,
                metrics=self.metrics,
            )
            self.tuner.broker = self.broker
        tracer = None
        if cfg.trace_sample_every > 0:
            # One tracer over every table, stamped on the stack clock so
            # traces merge with the wait events in ``t`` order.
            tracer = RequestTracer(cfg.trace_sample_every, self.clock.now)
            self.request_tracers.append(tracer)
        for idx, table in enumerate(tables):
            manager = table.manager
            manager.growth_provider = self._growth_provider(idx)
            manager.maxlocks_provider = self.maxlocks.fraction
            manager.refresh_period = cfg.params.refresh_period_requests
            manager.refresh_maxlocks()
            # One shared incident ring, one recorder per table
            # (immediate in-table deadlocks and escalations); the sweep
            # captures its victims on the victim's table.
            manager.incidents = IncidentRecorder(
                self.incidents, shard=idx, audit=self.tuner.audit
            )
            table.tracer, table.trace_worker = tracer, idx
            if cfg.wait_profile:
                profiler = self._wait_profiler(self._labels(idx))
                manager.wait_profiler = profiler
                table.env.latch_profiler = profiler
        if cfg.wait_profile:
            # The admission gate is stack-level, so its waits are an
            # unlabeled series: the one bare table's own profiler, or
            # one more beside the per-shard ones.
            self.admission.wait_profiler = (
                self._wait_profiler(None)
                if self._sharded
                else self.wait_profilers[0]
            )
        self.service.borrow_return = self.controller.reclaim_transient_blocks

    def _labels(self, idx: int) -> Optional[Dict[str, str]]:
        return {"shard": str(idx)} if self._sharded else None

    def _wait_profiler(self, labels) -> WaitEventProfiler:
        profiler = WaitEventProfiler(
            self.clock, registry=self.metrics, labels=labels
        )
        self.wait_profilers.append(profiler)
        return profiler

    def _growth_provider(self, idx: int):
        def grow(blocks_wanted: int) -> int:
            with self._growth_lock:
                granted = self.controller.sync_grow(blocks_wanted)
                if granted:
                    self.ledger.record_sync_borrow(idx, granted)
                return granted

        return grow

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServiceStack":
        """Launch the tuning daemon, the deadlock sweep (when sharded)
        and the ops plane (when configured)."""
        self._start_daemons()
        return self

    def stop(self) -> None:
        """Stop tuning, close the doors, cancel pending waits."""
        self._stop_daemons()
        self.admission.close()
        self.service.close()

    def client_stack(self):
        """What a load driver drives: in process, the stack itself.

        Mirrors :meth:`WorkerPoolStack.client_stack`, whose clients
        reach the lock tables over sockets instead.
        """
        return contextlib.nullcontext(self)

    # -- what "frozen" means here ------------------------------------------

    @property
    def frozen_reason(self) -> Optional[str]:
        return self.service.frozen_reason

    def freeze_tuning(self, reason: str) -> None:
        """Degrade every table to the static-LOCKLIST configuration."""
        self.service.freeze_tuning(reason)

    # -- reporting ---------------------------------------------------------

    @property
    def manager_stats(self) -> LockManagerStats:
        """Lock-manager counters, summed over the tables (a snapshot)."""
        return LockManagerStats.merged(
            [part.service.manager.stats for part in self.partitions]
        )

    def record_sweep_victim(
        self, owner: LocalPartition, victim: int, resource: str, cycle: List[int]
    ) -> None:
        manager = owner.service.manager
        manager.incidents.record_deadlock(
            manager,
            victim,
            resource,
            cycle,
            f"cross-partition sweep: victim by smallest global footprint "
            f"among cycle {sorted(cycle)}",
        )

    def _health(self) -> Dict[str, Any]:
        service = self.service
        health: Dict[str, Any] = {
            "serving": not service.closed,
            "shards": len(self.partitions),
            "closed": service.closed,
        }
        if self._sharded:
            health["shard_status"] = [
                {"shard": part.idx, "open": not part.service.closed}
                for part in self.partitions
            ]
        return health

    def check_invariants(self) -> None:
        # The facade's own bookkeeping (the adoption index) first.
        self.service.check_invariants()
        super().check_invariants()


def build_stack(*, threads: int, shards: int = 0, workers: int = 0, **config):
    """The stack for a topology, sized for ``threads`` load threads.

    ``workers`` forks that many worker processes
    (:class:`~repro.service.workers.WorkerPoolStack`), ``shards`` puts
    that many lock tables behind the in-process facade, neither means
    one bare :class:`LockService`.  ``config`` is passed through to the
    topology's config class, which rejects what it cannot honour.
    """
    config.setdefault("max_in_flight", max(4, threads))
    config.setdefault("admission_queue_depth", 4 * max(4, threads))
    if workers > 0:
        from repro.service.workers import WorkerPoolConfig, WorkerPoolStack

        return WorkerPoolStack(WorkerPoolConfig(workers=workers, **config))
    if shards > 0:
        from repro.service.sharded import ShardedServiceConfig

        return ServiceStack(ShardedServiceConfig(shards=shards, **config))
    return ServiceStack(ServiceConfig(**config))


__all__ = ["ServiceConfig", "ServiceStack", "build_stack"]
