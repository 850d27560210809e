"""Collect a finished service run into a :class:`RunTelemetry` stream.

The DES runner has had a ``--telemetry out.jsonl`` round trip since the
observability PR; this module gives the *live* stacks the same exit:
:func:`service_telemetry` gathers the shared metric registry (including
the per-partition labeled series), the controller's tuning decisions and
the tuner's audit trail into one :class:`~repro.obs.events.RunTelemetry`
that ``write_jsonl`` serializes and the standard ``repro.obs`` readers
load back.

Call it after :meth:`stop` (or inside the ``with stack:`` exit) so the
final counter values and the complete audit ring are captured.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import RunTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.control import ControlPlane


def service_telemetry(stack: "ControlPlane", label: str = "service") -> RunTelemetry:
    """One telemetry object for a finished (or quiesced) service run.

    Works for every topology: the control plane they share holds
    ``metrics`` (the registry), ``controller.decisions``,
    ``tuner.audit``, the incident ring and whichever of the wait
    profilers, request tracers and broker the topology wired.  When the
    stack ran without telemetry the stream still carries the decisions
    and audit trail over an empty registry.
    """
    # Final state of the point-in-time gauges (occupancy, sessions).
    stack.publish_ops_metrics()
    waits = []
    for profiler in stack.wait_profilers:
        waits.extend(profiler.to_dicts())
    waits.sort(key=lambda w: w["t"])
    traces = []
    for tracer in stack.request_tracers:
        traces.extend(tracer.to_dicts())
    traces.sort(key=lambda tr: tr["t"])
    broker = stack.broker
    return RunTelemetry(
        label=label,
        decisions=list(stack.controller.decisions),
        registry=stack.metrics,
        audit=stack.tuner.audit.records(),
        waits=waits,
        incidents=stack.incidents.records(),
        broker=[] if broker is None else broker.audit.records(),
        traces=traces,
    )


__all__ = ["service_telemetry"]
