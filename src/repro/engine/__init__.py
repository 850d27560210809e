"""Simulation substrate: discrete-event kernel, clients, database wiring.

The :mod:`repro.engine` package provides everything needed to *run* the
self-tuning lock memory controller against a workload:

* :mod:`repro.engine.des` -- a small but complete discrete-event
  simulation kernel (environment, processes, timeouts, interrupts),
* :mod:`repro.engine.rng` -- deterministic random-stream management,
* :mod:`repro.engine.metrics` -- time-series recording,
* :mod:`repro.engine.transactions` -- the transaction lifecycle,
* :mod:`repro.engine.client` -- closed-loop application clients,
* :mod:`repro.engine.database` -- the simulated database instance that
  wires the memory registry, lock manager and tuning controller together.
"""

from repro.engine.des import (
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.engine.metrics import MetricsRecorder, TimeSeries
from repro.engine.rng import RngStreams

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    "MetricsRecorder",
    "TimeSeries",
    "RngStreams",
]
