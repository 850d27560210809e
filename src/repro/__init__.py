"""repro: reproduction of "Optimizing Concurrency Through Automated Lock
Memory Tuning in DB2" (Lightstone, Eaton, Lee, Storm -- ICDE 2007).

The library simulates DB2 9's self-tuning lock memory end to end:

* :mod:`repro.engine` -- discrete-event simulation kernel, clients,
  transactions and the wired :class:`~repro.engine.database.Database`,
* :mod:`repro.memory` -- database shared memory, heaps, overflow area
  and the Self-Tuning Memory Manager,
* :mod:`repro.lockmgr` -- the 128 KB block chain, multi-granularity
  locking, convoys and escalation,
* :mod:`repro.core` -- the paper's contribution: the adaptive lock
  memory controller, the MAXLOCKS curve, Table 1 parameters and the
  stabilized optimizer view,
* :mod:`repro.baselines` -- static LOCKLIST, SQL Server 2005 and Oracle
  ITL comparators,
* :mod:`repro.workloads` -- OLTP / DSS / batch workload generators,
* :mod:`repro.obs` -- the unified observability layer: metric registry,
  latency histograms and the JSONL telemetry stream,
* :mod:`repro.analysis` -- the experiment harness regenerating every
  figure of the paper's evaluation.

Quickstart::

    from repro import Database, DatabaseConfig
    from repro.workloads import ClientSchedule, OltpWorkload

    db = Database(seed=42)
    workload = OltpWorkload(db, ClientSchedule.constant(50))
    workload.start()
    db.run(until=300)
    print(db.metrics["lock_pages"].last, "pages of lock memory")
"""

from repro.core.controller import LockMemoryController
from repro.core.maxlocks import AdaptiveMaxlocks, lock_percent_per_application
from repro.core.optimizer import QueryOptimizer
from repro.core.params import TuningParameters
from repro.core.policy import AdaptiveLockMemoryPolicy, TuningPolicy
from repro.engine.database import Database, DatabaseConfig
from repro.engine.des import Environment
from repro.engine.metrics import MetricsRecorder, TimeSeries
from repro.lockmgr.isolation import IsolationLevel
from repro.lockmgr.manager import LockManager
from repro.lockmgr.modes import LockMode
from repro.lockmgr.tracing import LockTrace
from repro.memory.registry import DatabaseMemoryRegistry
from repro.memory.stmm import Stmm, StmmConfig
from repro.obs import Histogram, MetricRegistry, RunTelemetry
from repro.workloads.replay import LockDemandReplay

__version__ = "1.0.0"

__all__ = [
    "LockMemoryController",
    "AdaptiveMaxlocks",
    "lock_percent_per_application",
    "QueryOptimizer",
    "TuningParameters",
    "AdaptiveLockMemoryPolicy",
    "TuningPolicy",
    "Database",
    "DatabaseConfig",
    "Environment",
    "MetricsRecorder",
    "TimeSeries",
    "IsolationLevel",
    "LockManager",
    "LockMode",
    "LockTrace",
    "DatabaseMemoryRegistry",
    "Stmm",
    "StmmConfig",
    "Histogram",
    "MetricRegistry",
    "RunTelemetry",
    "LockDemandReplay",
    "__version__",
]
