"""Request tracing: the one sampled-request record, on every topology.

Recording a timeline for *every* lock request would violate the
overhead budget the live service promises (Nikolaev's DTrace latch
study is explicit that heavyweight probes distort exactly the
contention they measure), so a :class:`RequestTracer` samples **1 in
N** row-lock requests and decomposes each one the way that study
decomposes Oracle latches (gets / misses / spins / sleeps instead of
one opaque total).  Over the wire the tracer sits in
:class:`~repro.net.client.RoutedLockClient` and follows the request
through the worker's socket and back; in process it sits in
:class:`~repro.service.service.LockService` and the same record has a
single hop, ``server.lock_wait`` (= the request's service time), so
its hops still sum to ``total_s`` and its wire tax is 0.  One config
field (``trace_sample_every``) turns it on for whichever topology is
running.

A sampled request is decomposed into the **closed hop vocabulary**
:data:`HOP_NAMES`:

``client.encode``
    Building the request frame bytes on the client.
``client.net_wait``
    Client wall time from send to reply completion *minus* the time the
    server reported spending -- the socket, kernel and pipelining share.
``server.dispatch``
    Frame arrival in the server's read loop to execution start (decode
    plus any inline dispatch work).
``server.lock_wait``
    Inside the ``LockService`` call -- latch acquisition, grant, or a
    parked lock wait; the whole of an in-process trace.  This is the
    hop the wait-event profiler attributes to a blocker; join trace and
    wait records on (app, time) in telemetry for the blocker identity.
``server.executor_park``
    Waiting for an executor thread after dispatch chose the parking
    path (0 for inline grants).
``server.reply_encode``
    Building the reply on the server (the hop durations and framing
    setup; the final byte pack is small and lands in ``client.net_wait``).
``client.decode``
    Turning the traced OK's hop tail into the trace on the client (the
    reader unpacks the reply in place, inside ``client.net_wait``).

The hops are *disjoint by construction* -- ``client.net_wait``
subtracts the server-reported time from the client's wall wait, clamped
at zero -- so their sum tracks the observed end-to-end latency.  The
**wire tax** of a trace is the fraction of its total time spent in
:data:`NET_HOPS` (everything that is transport or scheduling) versus
:data:`LOCK_HOPS` (actual lock-manager time).

Context propagation rides the wire protocol's ``FLAG_TRACE`` frame
extension (:mod:`repro.net.protocol`): a 17-byte (trace id, span id,
sampled) tail the client attaches only when a tracer is configured, so
untraced deployments exchange byte-identical frames with old peers.

Overhead contract: a client stack or lock service without a tracer
holds ``None`` and pays exactly one ``is None`` check per request; with
a tracer, the off-sample cost is one increment and one modulo, and only
the sampled 1/N requests allocate a record.

Thread safety: the sampling counters are plain integer bumps (a
monitoring count may be one update stale); completed traces land in a
:class:`~repro.obs.ring.BoundedRing`, whose count is exact and whose
snapshot is the copy ops handler threads read.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.ring import BoundedRing

#: The closed hop vocabulary, in request-lifecycle order.
HOP_NAMES = (
    "client.encode",
    "client.net_wait",
    "server.dispatch",
    "server.lock_wait",
    "server.executor_park",
    "server.reply_encode",
    "client.decode",
)

#: Hops that are transport / scheduling cost (the "wire tax" side).
NET_HOPS = frozenset(h for h in HOP_NAMES if h != "server.lock_wait")

#: Hops that are genuine lock-manager time.
LOCK_HOPS = frozenset({"server.lock_wait"})

#: Hops measured on the server and shipped back as the traced OK's
#: tail, in wire order (see ``repro.net.protocol.pack_ok_frame``).
SERVER_HOPS = (
    "server.dispatch",
    "server.lock_wait",
    "server.executor_park",
    "server.reply_encode",
)


def wire_tax(hops: Mapping[str, float]) -> float:
    """Fraction of a trace's hop time spent in :data:`NET_HOPS`.

    0.0 for an empty (or all-zero) hop set, so callers can render a
    trace that never reached the lock manager without special-casing.
    """
    total = 0.0
    net = 0.0
    for name, seconds in hops.items():
        total += seconds
        if name in NET_HOPS:
            net += seconds
    if total <= 0.0:
        return 0.0
    return net / total


class TraceContext:
    """The compact context propagated in the wire frame tail."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: int, span_id: int, sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def child(self) -> "TraceContext":
        """The server-side child span keyed by this context."""
        return TraceContext(self.trace_id, self.span_id + 1, self.sampled)

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace={self.trace_id:#x}, span={self.span_id}, "
            f"sampled={self.sampled})"
        )


class RequestTrace:
    """One completed trace: a sampled request and every hop it crossed."""

    __slots__ = (
        "trace_id",
        "span_id",
        "t_start",
        "total_s",
        "worker",
        "app_id",
        "table_id",
        "row_id",
        "mode",
        "outcome",
        "hops",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        t_start: float,
        total_s: float,
        hops: Dict[str, float],
        *,
        worker: int = -1,
        app_id: int = -1,
        table_id: int = -1,
        row_id: int = -1,
        mode: str = "",
        outcome: str = "ok",
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.t_start = t_start
        self.total_s = total_s
        self.hops = hops
        self.worker = worker
        self.app_id = app_id
        self.table_id = table_id
        self.row_id = row_id
        self.mode = mode
        self.outcome = outcome

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "t": self.t_start,
            "total_s": self.total_s,
            "worker": self.worker,
            "app": self.app_id,
            "table": self.table_id,
            "row": self.row_id,
            "mode": self.mode,
            "outcome": self.outcome,
            "hops": dict(self.hops),
            "wire_tax": round(wire_tax(self.hops), 6),
        }

    def __repr__(self) -> str:
        return (
            f"RequestTrace(trace={self.trace_id:#x}, worker={self.worker}, "
            f"{self.total_s * 1e6:.1f}us, outcome={self.outcome!r})"
        )


class RequestTracer:
    """1-in-N request tracer with a bounded ring of completed traces.

    Parameters
    ----------
    every:
        Trace the Nth, 2Nth, ... lock request (``every=1`` traces all).
    clock:
        Callable returning the current time in seconds (stamped onto
        completed traces so telemetry merges them in ``t`` order);
        defaults to wall-clock ``time.time``.
    capacity:
        Ring-buffer bound for completed traces.
    origin:
        High bits of every allocated trace id (defaults to the pid's
        low 16 bits shifted into the top of the u64, so ids from
        concurrent client processes never collide without randomness).
    """

    def __init__(
        self,
        every: int,
        clock=None,
        *,
        capacity: int = 256,
        origin: Optional[int] = None,
    ) -> None:
        if every <= 0:
            raise ValueError(f"sampling period must be positive, got {every}")
        self._ring: BoundedRing[RequestTrace] = BoundedRing(capacity)
        self.every = every
        self.clock = clock if clock is not None else time.time
        self.capacity = capacity
        if origin is None:
            origin = (os.getpid() & 0xFFFF) << 48
        self._origin = origin
        self._ids = itertools.count(1)
        #: Requests counted (traced or not), and traces started.
        self.seen = 0
        self.started = 0

    # -- probe sites (request threads) ---------------------------------

    def maybe_trace(self) -> Optional[TraceContext]:
        """Count one request; return a live context for the sampled 1/N."""
        self.seen += 1
        if self.seen % self.every:
            return None
        self.started += 1
        trace_id = self._origin | next(self._ids)
        return TraceContext(trace_id, 1, True)

    def finish(
        self,
        ctx: TraceContext,
        total_s: float,
        hops: Dict[str, float],
        *,
        worker: int = -1,
        app_id: int = -1,
        table_id: int = -1,
        row_id: int = -1,
        mode: str = "",
        outcome: str = "ok",
    ) -> RequestTrace:
        """Land a completed trace in the ring."""
        trace = RequestTrace(
            ctx.trace_id,
            ctx.span_id,
            self.clock(),
            total_s,
            hops,
            worker=worker,
            app_id=app_id,
            table_id=table_id,
            row_id=row_id,
            mode=mode,
            outcome=outcome,
        )
        self._ring.append(trace)
        return trace

    # -- read side -----------------------------------------------------

    @property
    def finished(self) -> int:
        """Traces completed (evicted ones included)."""
        return self._ring.total

    @property
    def truncated(self) -> int:
        """Traces started but never finished (crash / in flight)."""
        return max(0, self.started - self.finished)

    def to_dicts(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Completed traces as dicts, oldest first (most recent ``limit``)."""
        return [trace.to_dict() for trace in self._ring.snapshot(limit)]

    def summary(self) -> Dict[str, Any]:
        """The ring summary scenario results and ``/traces`` report."""
        return {
            "sampled_every": self.every,
            "seen": self.seen,
            "started": self.started,
            "finished": self.finished,
            "truncated": self.truncated,
        }

    def __repr__(self) -> str:
        return (
            f"RequestTracer(1/{self.every}, seen={self.seen}, "
            f"finished={self.finished}, truncated={self.truncated})"
        )


class ServerTracer:
    """Per-process ring of server-side child spans.

    A worker records one child span per traced request it serves: the
    server hops it measured, keyed by the propagated (trace id, span
    id).  The parent pool merges worker rings into the ``/traces``
    payload so a truncated client trace (worker died mid-request) can
    still be attributed from the surviving side.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._ring: BoundedRing[Dict[str, Any]] = BoundedRing(capacity)

    @property
    def recorded(self) -> int:
        """Spans recorded (evicted ones included)."""
        return self._ring.total

    def record(
        self,
        trace_id: int,
        span_id: int,
        hops: Dict[str, float],
        *,
        app_id: int = -1,
        outcome: str = "ok",
    ) -> None:
        self._ring.append(
            {
                "trace_id": trace_id,
                "span_id": span_id,
                "app": app_id,
                "outcome": outcome,
                "hops": dict(hops),
            }
        )

    def to_dicts(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        return [dict(span) for span in self._ring.snapshot(limit)]

    def summary(self) -> Dict[str, Any]:
        return {"recorded": self._ring.total, "held": len(self._ring)}

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return f"ServerTracer({self._ring!r})"


def hop_percentiles(
    traces: List[Mapping[str, Any]]
) -> Dict[str, Dict[str, float]]:
    """``{hop: {count, p50, p99, total_s}}`` over trace dicts.

    Percentiles are exact (sorted raw values -- trace rings are small
    by construction), reported only for hops that appear.
    """
    values: Dict[str, List[float]] = {}
    for trace in traces:
        for name, seconds in (trace.get("hops") or {}).items():
            values.setdefault(name, []).append(float(seconds))
    report: Dict[str, Dict[str, float]] = {}
    for name in HOP_NAMES:
        series = values.get(name)
        if not series:
            continue
        series.sort()
        report[name] = {
            "count": len(series),
            "p50": series[(len(series) - 1) // 2],
            "p99": series[min(len(series) - 1, (len(series) * 99) // 100)],
            "total_s": sum(series),
        }
    return report


def wire_tax_summary(traces: List[Mapping[str, Any]]) -> Dict[str, float]:
    """Aggregate wire tax over trace dicts: net vs lock seconds."""
    net = 0.0
    lock = 0.0
    for trace in traces:
        for name, seconds in (trace.get("hops") or {}).items():
            if name in NET_HOPS:
                net += float(seconds)
            else:
                lock += float(seconds)
    total = net + lock
    return {
        "net_s": net,
        "lock_s": lock,
        "fraction": (net / total) if total > 0 else 0.0,
    }


__all__ = [
    "HOP_NAMES",
    "LOCK_HOPS",
    "NET_HOPS",
    "SERVER_HOPS",
    "RequestTrace",
    "RequestTracer",
    "ServerTracer",
    "TraceContext",
    "hop_percentiles",
    "wire_tax",
    "wire_tax_summary",
]
