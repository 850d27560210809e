"""Workload generators driving the simulated database.

* :mod:`repro.workloads.schedule` -- stepwise client-count schedules
  (ramp, surge, step-down),
* :mod:`repro.workloads.oltp` -- closed-loop OLTP client populations
  (the paper's TPCC-like side),
* :mod:`repro.workloads.dss` -- the reporting query of Figure 11 with
  massive row-locking requirements (the TPCH-like side),
* :mod:`repro.workloads.batch` -- batch update jobs (section 3.4's
  motivation for time-limited lock-memory peaks),
* :mod:`repro.workloads.contention` -- Thomasian-style contention
  regimes, wait-depth statistics, thrashing-point detection and the
  synthetic demand traces the scenario matrix replays.
"""

from repro.workloads.batch import BatchUpdateJob
from repro.workloads.contention import (
    REGIMES,
    TRACES,
    ThrashingDetector,
    build_regime,
    build_trace,
    diurnal_trace,
    flash_crowd_trace,
    max_wait_depth,
    wait_depth,
)
from repro.workloads.dss import ReportingQuery
from repro.workloads.oltp import OltpWorkload
from repro.workloads.replay import LockDemandReplay
from repro.workloads.schedule import ClientSchedule

__all__ = [
    "BatchUpdateJob",
    "REGIMES",
    "TRACES",
    "ThrashingDetector",
    "build_regime",
    "build_trace",
    "diurnal_trace",
    "flash_crowd_trace",
    "max_wait_depth",
    "wait_depth",
    "ReportingQuery",
    "OltpWorkload",
    "LockDemandReplay",
    "ClientSchedule",
]
