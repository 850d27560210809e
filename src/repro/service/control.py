"""The control plane: one arbiter over a list of partitions.

The paper arbitrates exactly **one** LOCKLIST with **one** controller:
128 KB block grants, synchronous growth from overflow bounded by
``LMOmax``, adaptive MAXLOCKS pushed on every resize.  However the lock
*table* is laid out -- one :class:`~repro.service.service.LockService`,
N shards behind a routing facade, N forked workers -- that loop is
written once, here, over the :mod:`repro.service.partition` surface:

* :class:`ServiceConfig` sizes it and :func:`build_memory_registry`
  lays out database memory (bufferpool donor, locklist, overflow).
* :class:`ControlPlane` wires registry -> ledger and aggregate chain
  (:mod:`repro.service.ledger`) -> :class:`LockMemoryController` ->
  adaptive MAXLOCKS -> STMM -> :class:`TunerDaemon` -> the
  cross-partition :class:`DeadlockSweep` -> incident log -> ops plane,
  and serves ``/metrics`` ``/healthz`` ``/stmm`` ``/incidents``
  ``/traces`` from one body each.

A topology (:class:`repro.service.stack.ServiceStack` in-process,
:class:`repro.service.workers.WorkerPoolStack` across processes) builds
its partitions, hands them to :meth:`ControlPlane._wire`, and adds only
what is its own: how a synchronous borrow reaches the controller, what
the tuner does between passes, and what "frozen" means for its service.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.controller import LockMemoryController
from repro.core.maxlocks import AdaptiveMaxlocks
from repro.core.params import TuningParameters
from repro.errors import ConfigurationError, ServiceError
from repro.memory.bufferpool import BufferpoolModel
from repro.memory.heaps import HeapCategory, MemoryHeap
from repro.memory.registry import DatabaseMemoryRegistry
from repro.memory.stmm import Stmm, StmmConfig
from repro.obs.incidents import IncidentLog, IncidentRecorder
from repro.obs.registry import MetricRegistry
from repro.obs.tracing import hop_percentiles, wire_tax_summary
from repro.obs.waits import merged_class_totals
from repro.service.clock import Clock, MonotonicClock
from repro.service.ledger import AggregateLockChain, MemoryLedger
from repro.service.ops import OpsServer
from repro.service.sweep import DeadlockSweep
from repro.service.tuner import TunerDaemon
from repro.units import PAGES_PER_BLOCK, round_pages_to_blocks


#: The brokered PMC heaps beside the bufferpool (the fourth), with the
#: share of databaseMemory each starts with when ``broker`` is on.
BROKER_HEAPS = (("sortheap", 0.06), ("hashjoin", 0.04), ("pkgcache", 0.05))


def _broker_heap_pages(fraction: float, total_pages: int) -> int:
    """A brokered heap's starting size, floored at one 128 KB block."""
    return max(PAGES_PER_BLOCK, int(fraction * total_pages))


@dataclass
class ServiceConfig:
    """Sizing of a live service stack (defaults: 64 MB, demo scale)."""

    #: databaseMemory in 4 KB pages.  16384 pages = 64 MB.
    total_memory_pages: int = 16_384
    #: Initial LOCKLIST size in pages (rounded up to whole blocks).
    initial_locklist_pages: int = 128
    #: Share of databaseMemory the bufferpool (the STMM donor) starts with.
    bufferpool_fraction: float = 0.70
    #: STMM overflow-area goal as a fraction of databaseMemory.
    overflow_goal_fraction: float = 0.05
    #: Tuning parameters of the paper's algorithm.
    params: TuningParameters = field(default_factory=TuningParameters)
    #: STMM scheduling (interval, adaptivity).
    stmm: StmmConfig = field(default_factory=StmmConfig)
    #: Wall-clock seconds between tuner passes (None = STMM's interval;
    #: demos and tests want something far shorter than DB2's 30 s).
    tuner_interval_s: Optional[float] = 0.25
    #: Concurrency bound and wait-queue depth at the front door.
    max_in_flight: int = 64
    admission_queue_depth: int = 128
    #: TCP port of the live ops plane (/metrics, /healthz, /stmm).
    #: None = no HTTP server; 0 = ephemeral port (tests/CI).
    ops_port: Optional[int] = None
    #: Sample every Nth row-lock request into a hop-decomposed
    #: :class:`~repro.obs.tracing.RequestTrace` on ``/traces`` and in
    #: telemetry, on every topology (in process a trace's one hop is
    #: ``server.lock_wait``).  0 = off, costing one ``is None`` check.
    trace_sample_every: int = 0
    #: Ring-buffer bound of the STMM decision audit log.
    audit_capacity: int = 256
    #: Enable the wait-event profiler (lock waits with blocker
    #: attribution, latch gets/misses, admission waits, sync-growth
    #: stalls).  Off keeps every hot path at one ``is None`` check.
    wait_profile: bool = False
    #: Enable the whole-memory broker: sort/hashjoin/pkgcache heaps join
    #: the registry (:data:`BROKER_HEAPS`), benefit-driven block trading
    #: runs each tuning pass, and memory pressure drives the admission
    #: posture state machine.
    broker: bool = False

    def __post_init__(self) -> None:
        if self.initial_locklist_pages < PAGES_PER_BLOCK:
            raise ConfigurationError(
                f"initial_locklist_pages must be at least one block "
                f"({PAGES_PER_BLOCK} pages)"
            )
        locklist = round_pages_to_blocks(self.initial_locklist_pages)
        bufferpool = int(self.bufferpool_fraction * self.total_memory_pages)
        initial = locklist + bufferpool
        if self.broker:
            initial += sum(
                _broker_heap_pages(fraction, self.total_memory_pages)
                for _, fraction in BROKER_HEAPS
            )
        if initial >= self.total_memory_pages:
            raise ConfigurationError(
                "initial heaps oversubscribe database memory"
            )
        if self.ops_port is not None and self.ops_port < 0:
            raise ConfigurationError(
                f"ops_port must be non-negative, got {self.ops_port}"
            )
        if self.trace_sample_every < 0:
            raise ConfigurationError(
                f"trace_sample_every must be non-negative, "
                f"got {self.trace_sample_every}"
            )
        if self.audit_capacity <= 0:
            raise ConfigurationError(
                f"audit_capacity must be positive, got {self.audit_capacity}"
            )


def check_partitioned(cfg: ServiceConfig, count: int, what: str) -> None:
    """Validate a config that splits the lock table ``count`` ways.

    Shared by the sharded and the worker-pool configs: a positive
    count, a positive sweep interval, and an initial LOCKLIST that
    seeds every partition with at least one block.
    """
    if count < 1:
        raise ConfigurationError(f"{what} must be >= 1, got {count}")
    if cfg.deadlock_interval_s <= 0:
        raise ConfigurationError(
            f"deadlock_interval_s must be positive, "
            f"got {cfg.deadlock_interval_s}"
        )
    blocks = round_pages_to_blocks(cfg.initial_locklist_pages) // PAGES_PER_BLOCK
    if blocks < count:
        raise ConfigurationError(
            f"initial locklist of {blocks} blocks cannot seed "
            f"{count} {what} with one block each"
        )


def build_memory_registry(cfg: ServiceConfig) -> DatabaseMemoryRegistry:
    """The service memory model: bufferpool (PMC donor) + locklist + overflow.

    Shared by every topology, so all of them run the paper's tuning
    algorithm against the identical registry layout.
    """
    registry = DatabaseMemoryRegistry(
        total_pages=cfg.total_memory_pages,
        overflow_goal_pages=int(
            cfg.overflow_goal_fraction * cfg.total_memory_pages
        ),
    )
    bp_model = BufferpoolModel()
    registry.register(
        MemoryHeap(
            "bufferpool",
            HeapCategory.PMC,
            size_pages=int(cfg.bufferpool_fraction * cfg.total_memory_pages),
            min_pages=int(0.10 * cfg.total_memory_pages),
            benefit=lambda heap: bp_model.marginal_benefit(heap.size_pages),
        )
    )
    registry.register(
        MemoryHeap(
            "locklist",
            HeapCategory.FMC,
            size_pages=round_pages_to_blocks(cfg.initial_locklist_pages),
            min_pages=0,
        )
    )
    if cfg.broker:
        # The remaining PMC consumers the paper's section 2.1 names;
        # each keeps at least one block so it can always re-enter the
        # trading ranking as a receiver.
        for name, fraction in BROKER_HEAPS:
            registry.register(
                MemoryHeap(
                    name,
                    HeapCategory.PMC,
                    size_pages=_broker_heap_pages(
                        fraction, cfg.total_memory_pages
                    ),
                    min_pages=PAGES_PER_BLOCK,
                )
            )
    return registry


class ControlPlane:
    """One tuning loop over N partitions (see module docstring).

    Subclasses set :attr:`service_name` and :attr:`partition_label`,
    expose ``frozen_reason`` / ``freeze_tuning`` for their service, and
    call :meth:`_wire` once their partitions exist.
    """

    #: The ``/healthz`` service name.
    service_name = "lock-service"
    #: Label key of the per-partition metric series.
    partition_label = "shard"
    #: The shutdown reconcile report (only forked partitions need one).
    reconciliation: Any = None

    def __init__(self, cfg: ServiceConfig, clock: Optional[Clock]) -> None:
        self.config = cfg
        self.clock = clock or MonotonicClock()
        #: The service.* / tuner.* registry every topology records into.
        self.metrics = MetricRegistry()
        self.registry = build_memory_registry(cfg)
        self._started = False

    def _wire(
        self,
        partitions: Sequence[Any],
        *,
        cond: Any,
        sessions: Callable[[], int],
        escalations: Callable[[], int],
        sweep_interval_s: Optional[float],
    ) -> None:
        """Assemble the tuning loop over ``partitions``.

        ``cond`` serializes a tuning pass against whatever else mutates
        the partitions (every in-process service condition; the pool's
        borrow-consumer token).  ``sessions`` feeds minLockMemory and
        ``escalations`` the escalation-recovery doubling rule: the two
        counts the controller reads off the lock tables every pass.
        ``sweep_interval_s`` is None when one lock table holds every
        lock -- its immediate detection then sees every cycle.
        """
        cfg = self.config
        self.partitions = list(partitions)
        self._cond = cond
        self.session_count = sessions
        self.escalation_count = escalations
        self.ledger = MemoryLedger(self.partitions)
        self.chain = AggregateLockChain(self.ledger)
        # The paper's controller + adaptive MAXLOCKS, wired exactly as
        # AdaptiveLockMemoryPolicy.attach does for the simulation.
        self.controller = LockMemoryController(
            registry=self.registry,
            chain=self.chain,
            params=cfg.params,
            num_applications=sessions,
            escalation_count=escalations,
            clock=self.clock.now,
        )
        self.maxlocks = AdaptiveMaxlocks(
            params=cfg.params,
            allocated_pages=lambda: self.chain.allocated_pages,
            max_lock_memory_pages=self.controller.max_lock_memory_pages,
        )
        self.controller.on_resize = self._push_maxlocks

        stmm_cfg = cfg.stmm
        if cfg.broker and stmm_cfg.pmc_rebalance_fraction:
            # All PMC movement goes through the broker's audited
            # trading pass; STMM's unaudited 2% rebalance would fight
            # it (and leave page moves with no trade-benefit record).
            stmm_cfg = dataclasses.replace(stmm_cfg, pmc_rebalance_fraction=0.0)
        self.stmm = Stmm(self.registry, stmm_cfg)
        self.stmm.register_deterministic_tuner(self.controller)
        self.tuner = TunerDaemon(
            self,
            self.stmm,
            interval_override_s=cfg.tuner_interval_s,
            audit_capacity=cfg.audit_capacity,
        )
        self.detector: Optional[DeadlockSweep] = (
            None
            if sweep_interval_s is None
            else DeadlockSweep(self, interval_s=sweep_interval_s)
        )
        # Incident forensics is always on (capture only runs when a
        # deadlock / escalation / freeze actually fires).
        self.incidents = IncidentLog()
        self.tuner.incidents = IncidentRecorder(
            self.incidents, shard=0, audit=self.tuner.audit
        )
        #: What only some topologies have; the shared bodies below test
        #: for None / empty instead of duck-typing the stack.
        self.admission = None
        self.broker = None
        self.wait_profilers: List[Any] = []
        self.request_tracers: List[Any] = []
        self.ops: Optional[OpsServer] = None
        if cfg.ops_port is not None:
            self.ops = OpsServer(
                self.metrics,
                health=self.ops_health,
                stmm_status=self.ops_stmm,
                refresh=self.publish_ops_metrics,
                incidents=self.ops_incidents,
                traces=self.ops_traces,
                port=cfg.ops_port,
            )

    def _labels(self, idx: int) -> Optional[Dict[str, str]]:
        """The metric label set of partition ``idx``'s series."""
        return {self.partition_label: str(idx)}

    # -- what the tuner asks of its host -----------------------------------

    def wait_for_pass(self, stop: threading.Event, seconds: float) -> bool:
        """Idle until the next tuning pass is due; True means stop."""
        return stop.wait(seconds)

    def before_pass(self) -> None:
        """Refresh whatever the controller reads that is not read live."""

    def _push_maxlocks(self) -> None:
        """``on_resize`` hook: push the (aggregate-derived) MAXLOCKS
        fraction to every partition.  The caller is a tuning pass or the
        shutdown reclaim; in process either one holds every partition
        condition."""
        fraction = self.maxlocks.fraction()
        for part in self.ledger.live():
            try:
                part.set_maxlocks(fraction)
            except ServiceError:
                pass  # a dying partition: its owner handles the crash

    # -- lifecycle ---------------------------------------------------------

    def _start_daemons(self) -> None:
        if self._started:
            raise ConfigurationError("service stack already started")
        self._started = True
        self.tuner.start()
        if self.detector is not None:
            self.detector.start()
        if self.ops is not None:
            self.ops.start()

    def _stop_daemons(self) -> None:
        if self.ops is not None:
            self.ops.stop()
        if self.detector is not None:
            self.detector.stop()
        self.tuner.stop()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def thread_count(self) -> int:
        """Live stack-owned threads (tuner + deadlock sweep)."""
        owned = {self.tuner._thread}
        if self.detector is not None:
            owned.add(self.detector._thread)
        return sum(
            1 for t in threading.enumerate() if t in owned and t.is_alive()
        )

    # -- the ops plane -----------------------------------------------------

    def _refresh_for_scrape(self) -> None:
        """Bring sampled state up to date before a ``/metrics`` render."""

    def publish_ops_metrics(self) -> None:
        """Refresh the point-in-time gauges a scrape should see live.

        Counters update on the hot paths; these are *state* readings
        (sizes, fractions, queue depths) that would otherwise lag one
        tuning interval behind.
        """
        reg = self.metrics
        self._refresh_for_scrape()
        for occ in self.ledger.occupancy():
            labels = self._labels(occ.pop("partition"))
            if labels is None:
                continue  # one bare lock table: the service.* gauges say it all
            # Every numeric posture reading becomes a labelled series
            # (``shard.used_slots{shard="2"}``, ``worker.sessions{...}``).
            for key, value in occ.items():
                if isinstance(value, (int, float)):
                    reg.gauge(
                        f"{self.partition_label}.{key}", labels=labels
                    ).set(float(value))
        reg.gauge("service.locklist_pages").set(
            float(self.chain.allocated_pages)
        )
        reg.gauge("service.locklist_used_slots").set(
            float(self.chain.used_slots)
        )
        reg.gauge("service.locklist_free_fraction").set(
            self.chain.free_fraction()
        )
        reg.gauge("service.maxlocks_fraction").set(self.maxlocks.fraction())
        reg.gauge("service.sessions").set(float(self.session_count()))
        reg.gauge("service.escalations").set(float(self.escalation_count()))
        if self.admission is not None:
            reg.gauge("service.admission.in_flight").set(
                float(self.admission.in_flight())
            )
            reg.gauge("service.admission.queue_depth").set(
                float(self.admission.queue_depth())
            )
        if self.broker is not None:
            self.broker.publish_metrics()
        for prof in self.wait_profilers:
            latch = prof.latch
            labels = prof.labels
            reg.gauge("latch.gets", labels=labels).set(float(latch.gets))
            reg.gauge("latch.misses", labels=labels).set(float(latch.misses))
            reg.gauge("latch.spins", labels=labels).set(float(latch.spins))
            reg.gauge("latch.sleeps", labels=labels).set(float(latch.sleeps))
            reg.gauge("latch.sleep_seconds", labels=labels).set(
                latch.sleep_time_s
            )

    def _health(self) -> Dict[str, Any]:
        """The topology's own ``/healthz`` keys; ``serving`` gates ``ok``."""
        raise NotImplementedError

    def ops_health(self) -> dict:
        """The ``/healthz`` body; ``ok`` decides 200 vs 503."""
        tuner = self.tuner
        detector = self.detector
        health = self._health()
        body = {
            "ok": (
                health.pop("serving")
                and self.frozen_reason is None
                and not tuner.frozen
            ),
            "service": self.service_name,
            "sessions": self.session_count(),
            "frozen_reason": self.frozen_reason,
            "tuner": {
                "alive": tuner.alive,
                "frozen": tuner.frozen,
                "intervals": tuner.intervals_run,
                "crash": None if tuner.crash is None else str(tuner.crash),
                "frozen_reason": self.frozen_reason,
            },
        }
        if detector is not None:
            body["detector"] = {
                "alive": detector.alive,
                "crash": None if detector.crash is None else str(detector.crash),
                "checks": detector.stats.checks,
                "victims": len(detector.stats.victims),
            }
        body.update(health)
        return body

    def ops_stmm(self) -> dict:
        """The ``/stmm`` body: audit trail + current memory posture."""
        label = self.partition_label
        params = self.config.params
        tuner = self.tuner
        waits = None  # "off", as opposed to "on but idle"
        if self.wait_profilers:
            waits = {
                cls: {"count": count, "seconds": seconds}
                for cls, (count, seconds) in merged_class_totals(
                    self.wait_profilers
                ).items()
            }
        return {
            "audit": self.tuner.audit.to_dicts(),
            "audit_total": self.tuner.audit.total_recorded,
            "intervals": self.tuner.intervals_run,
            "locklist_pages": self.chain.allocated_pages,
            "locklist_free_fraction": self.chain.free_fraction(),
            "maxlocks_fraction": self.maxlocks.fraction(),
            "overflow_pages": self.registry.overflow_pages,
            "posture": {
                "allocated_pages": self.chain.allocated_pages,
                f"per_{label}_blocks": [
                    part.chain.block_count for part in self.partitions
                ],
                "borrowed_blocks": [
                    self.ledger.borrowed_blocks(part.idx)
                    for part in self.partitions
                ],
                "overflow_pages": self.registry.overflow_pages,
                "maxlocks_fraction": self.maxlocks.fraction(),
            },
            "frozen_reason": self.frozen_reason,
            # The controller constants in effect: ``analyze`` and ``top``
            # label their reports with these instead of guessing the
            # paper's defaults.
            "params": {
                "c1_overflow_fraction": params.c1_overflow_fraction,
                "min_free_fraction": params.min_free_fraction,
                "max_free_fraction": params.max_free_fraction,
                "delta_reduce": params.delta_reduce,
                "interval_s": (
                    tuner.interval_override_s
                    if tuner.interval_override_s is not None
                    else tuner.stmm.current_interval_s
                ),
            },
            "incident_total": self.incidents.total_recorded,
            "wait_classes": waits,
            "broker": (
                None if self.broker is None else self.broker.status()
            ),
        }

    def ops_incidents(self) -> dict:
        """The ``/incidents`` body: the forensics ring, oldest first."""
        return {
            "total": self.incidents.total_recorded,
            "counts": self.incidents.kind_counts(),
            "incidents": self.incidents.to_dicts(),
        }

    def _server_spans(self) -> Dict[str, Any]:
        """Per-partition server-side span rings (forked partitions only)."""
        return {}

    def ops_traces(self) -> dict:
        """The ``/traces`` body: every tracer's completed traces (hop
        decomposition and wire tax), time ordered, plus whatever span
        rings the partitions keep on their side of a wire."""
        traces: List[Dict[str, Any]] = []
        total = truncated = 0
        for tracer in self.request_tracers:
            traces.extend(tracer.to_dicts())
            total += tracer.finished
            truncated += tracer.truncated
        traces.sort(key=lambda trace: trace["t"])
        enabled = self.config.trace_sample_every > 0
        summary: Dict[str, Any] = {}
        if traces:
            summary = {
                "hops": hop_percentiles(traces),
                "wire_tax": wire_tax_summary(traces),
            }
        return {
            "enabled": enabled,
            "sample_every": self.config.trace_sample_every,
            "total": total,
            "truncated": truncated,
            "traces": traces,
            "server_spans": self._server_spans() if enabled else {},
            "summary": summary,
        }

    # -- consistency -------------------------------------------------------

    def check_invariants(self) -> None:
        """Byte-exact accounting across every layer.

        The locklist heap in the registry, the ledger's view of every
        partition's chain, and each partition's own per-application
        slot charges must all agree -- after any amount of concurrent
        traffic, growth, escalation and tuning.  Holding the plane's
        condition keeps a synchronous grow in flight on some partition
        from being observed half-applied.
        """
        with self._cond:
            self.chain.check_invariants()
            self.controller.check_consistency()
            # Registry-wide: overflow_pages raises if heaps oversubscribe.
            self.registry.overflow_pages


__all__ = [
    "ControlPlane",
    "ServiceConfig",
    "build_memory_registry",
    "check_partitioned",
]
