"""repro.service: the lock manager as a live, thread-safe service.

Everything below runs the *same* lock manager and tuning controller the
discrete-event simulation uses, on wall-clock time under real thread
concurrency:

* :mod:`repro.service.clock` -- the virtual/wall time seam;
* :mod:`repro.service.wallenv` -- the DES environment surface on a
  condition variable;
* :mod:`repro.service.service` -- :class:`LockService`, the thread-safe
  facade (deadlines, cancellation, sessions);
* :mod:`repro.service.tuner` -- :class:`TunerDaemon`, STMM on a real
  interval with crash-to-frozen degradation;
* :mod:`repro.service.admission` -- bounded in-flight sessions with
  queue shedding;
* :mod:`repro.service.broker` -- the whole-memory broker: per-heap
  marginal-benefit estimators, benefit-driven block trading and
  memory-pressure admission postures;
* :mod:`repro.service.partition` -- the ``Partition`` surface: the ten
  control ops the arbiter asks of one lock table, local or forked;
* :mod:`repro.service.control` -- the control plane over partitions
  (config, registry, controller, STMM, tuner, ops plane), written once;
* :mod:`repro.service.ledger` -- the memory ledger and the aggregate
  chain the controller tunes;
* :mod:`repro.service.sweep` -- the cross-partition deadlock sweep;
* :mod:`repro.service.stack` -- one-call assembly of the in-process
  stack (one bare lock table, or N behind the facade);
* :mod:`repro.service.sharded` -- the per-shard routing facade;
* :mod:`repro.service.workers` -- the same control plane over forked
  worker processes;
* :mod:`repro.service.driver` -- closed-loop multi-threaded load;
* :mod:`repro.service.capture` -- demand-trace capture for offline
  replay through :mod:`repro.workloads.replay`.
"""

from repro.service.admission import AdmissionController, AdmissionStats
from repro.service.broker import (
    BrokerConfig,
    MemoryBroker,
    PressureConfig,
    PressureMonitor,
    WorkloadProfile,
)
from repro.service.capture import DemandTraceRecorder, load_trace_jsonl
from repro.service.clock import Clock, ManualClock, MonotonicClock, VirtualClock
from repro.service.driver import DriverReport, LoadDriver
from repro.service.ledger import AggregateLockChain, MemoryLedger
from repro.service.partition import LocalPartition
from repro.service.service import LockService, ServiceStats
from repro.service.sharded import (
    ShardedLockService,
    ShardedServiceConfig,
    ShardedServiceStack,
    shard_of,
)
from repro.service.stack import ServiceConfig, ServiceStack, build_stack
from repro.service.sweep import DeadlockSweep
from repro.service.tuner import TunerDaemon

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "AggregateLockChain",
    "BrokerConfig",
    "Clock",
    "DeadlockSweep",
    "DemandTraceRecorder",
    "DriverReport",
    "LoadDriver",
    "LocalPartition",
    "LockService",
    "ManualClock",
    "MemoryBroker",
    "MemoryLedger",
    "MonotonicClock",
    "PressureConfig",
    "PressureMonitor",
    "ServiceConfig",
    "ServiceStack",
    "ServiceStats",
    "ShardedLockService",
    "ShardedServiceConfig",
    "ShardedServiceStack",
    "TunerDaemon",
    "VirtualClock",
    "WorkloadProfile",
    "build_stack",
    "load_trace_jsonl",
    "shard_of",
]
