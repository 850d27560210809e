"""Wait-event profiler: classify and time every blocking point.

DB2 diagnoses concurrency through its event monitor and Oracle through
the wait interface: every stall is classified (lock wait, latch miss,
queue wait, ...) and attributed to the resource -- and, for lock waits,
the *blocker* -- that caused it.  Nikolaev's DTrace latch study does the
same for Oracle latches with gets / misses / spins / sleeps counters.
This module is that layer for the live service:

``WaitEventProfiler``
    One profiler per lock domain (per shard in the sharded stack).
    Lock waits are recorded begin/end with blocker attribution (holding
    app, its mode, the contended resource, wait depth); latch misses,
    admission-queue waits and synchronous-growth stalls are one-shot
    observations.  Every completed wait lands in a labeled wait-class
    histogram (``service.wait.seconds{class=...}``) and -- except latch
    misses, which are far too hot -- in a bounded ring of raw
    :class:`WaitEvent` records for forensics and offline analysis.

``LatchStats``
    Oracle-style latch counters for the service mutex: ``gets`` (every
    acquisition), ``misses`` (contended acquisitions), ``spins``
    (bounded try-acquire retries), ``sleeps`` (blocking waits after the
    spin budget) and ``sleep_time_s``.

Disabled overhead is the repository-wide contract: a probe that is not
enabled costs exactly one ``is None`` check on the hot path
(``tests/obs/test_overhead.py`` enforces this for the DES manager; the
service keeps the same shape for its latch and admission probes).

Thread-safety model: each wait class is mutated under exactly one lock
domain (the manager classes under the service mutex, ``admission``
under the admission condition, ``latch`` partly *outside* the mutex --
see below), histograms and the event ring lock internally, and
the per-class totals dict is pre-created for every class at init so
readers never race dict growth.  Latch counters are plain ints bumped
only *after* the mutex is held, so they are serialized by the latch
itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.registry import WALL_CLOCK_BUCKETS_S, MetricRegistry
from repro.obs.ring import BoundedRing

#: Closed vocabulary of wait classes.  ``lock.*`` carries the terminal
#: outcome of the lock wait; the rest are single-shot stall classes.
WAIT_CLASSES = (
    "lock.granted",
    "lock.timeout",
    "lock.cancelled",
    "lock.deadlock",
    "latch",
    "admission",
    "sync-growth",
)

#: Histogram recording every completed wait, labeled by ``class``.
WAIT_SECONDS_METRIC = "service.wait.seconds"

#: Bounded try-acquire retries before a contended latch get sleeps.
LATCH_SPINS = 4

#: Raw wait events each profiler holds; older ones are evicted (the
#: per-class totals and histograms keep counting).
WAIT_RING_CAPACITY = 512


class WaitEvent:
    """One completed wait, with blocker attribution for lock waits."""

    __slots__ = (
        "wait_class",
        "app_id",
        "t",
        "duration_s",
        "resource",
        "mode",
        "blocker",
        "blocker_mode",
        "depth",
        "note",
    )

    def __init__(
        self,
        wait_class: str,
        app_id: int,
        t: float,
        duration_s: float,
        resource: str = "",
        mode: str = "",
        blocker: Optional[int] = None,
        blocker_mode: str = "",
        depth: int = 0,
        note: str = "",
    ) -> None:
        self.wait_class = wait_class
        self.app_id = app_id
        self.t = t
        self.duration_s = duration_s
        self.resource = resource
        self.mode = mode
        self.blocker = blocker
        self.blocker_mode = blocker_mode
        self.depth = depth
        self.note = note

    def to_dict(self) -> dict:
        return {
            "class": self.wait_class,
            "app": self.app_id,
            "t": self.t,
            "duration_s": self.duration_s,
            "resource": self.resource,
            "mode": self.mode,
            "blocker": self.blocker,
            "blocker_mode": self.blocker_mode,
            "depth": self.depth,
            "note": self.note,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WaitEvent({self.wait_class!r}, app={self.app_id}, "
            f"t={self.t:.6f}, {self.duration_s * 1e3:.3f} ms, "
            f"resource={self.resource!r}, blocker={self.blocker})"
        )


class LatchStats:
    """Oracle-style latch acquisition counters (plain ints).

    Every field is written only while the latch itself is held, so the
    increments are serialized without any extra synchronization; readers
    may see a value one update stale, which is fine for monitoring.
    """

    __slots__ = ("gets", "misses", "spins", "sleeps", "sleep_time_s")

    def __init__(self) -> None:
        self.gets = 0
        self.misses = 0
        self.spins = 0
        self.sleeps = 0
        self.sleep_time_s = 0.0

    def to_dict(self) -> dict:
        return {
            "gets": self.gets,
            "misses": self.misses,
            "spins": self.spins,
            "sleeps": self.sleeps,
            "sleep_time_s": self.sleep_time_s,
        }


class _OpenWait:
    """Begin-side context of a lock wait, keyed by waiting app."""

    __slots__ = ("started", "resource", "mode", "blocker", "blocker_mode", "depth")

    def __init__(
        self,
        started: float,
        resource: str,
        mode: str,
        blocker: Optional[int],
        blocker_mode: str,
        depth: int,
    ) -> None:
        self.started = started
        self.resource = resource
        self.mode = mode
        self.blocker = blocker
        self.blocker_mode = blocker_mode
        self.depth = depth


class WaitEventProfiler:
    """Wait-class histograms plus a bounded ring of raw wait events.

    One instance serves one lock domain: the DES/live lock manager sets
    ``manager.wait_profiler``, the wall-clock environment sets
    ``env.latch_profiler`` and the admission gate ``wait_profiler`` --
    in the unsharded stack all three share one instance (the class sets
    are disjoint per lock domain); the sharded stack creates one per
    shard with a ``{"shard": N}`` label.
    """

    def __init__(
        self,
        clock,
        *,
        registry: Optional[MetricRegistry] = None,
        labels: Optional[Dict[str, str]] = None,
        capacity: int = WAIT_RING_CAPACITY,
    ) -> None:
        self.clock = clock
        self.labels = dict(labels) if labels else None
        self.latch = LatchStats()
        self._ring: BoundedRing[WaitEvent] = BoundedRing(capacity)
        self._open: Dict[int, _OpenWait] = {}
        # Pre-created for every class so the dict never grows and
        # lock-free readers never race a rehash.  [count, seconds].
        self._totals: Dict[str, List[float]] = {
            cls: [0, 0.0] for cls in WAIT_CLASSES
        }
        self._hist = {}
        if registry is not None:
            for cls in WAIT_CLASSES:
                merged = dict(self.labels or {})
                merged["class"] = cls
                self._hist[cls] = registry.histogram(
                    WAIT_SECONDS_METRIC,
                    bounds=WALL_CLOCK_BUCKETS_S,
                    labels=merged,
                )

    # ------------------------------------------------------------------
    # Lock waits (begin/end, called under the owning service mutex)
    # ------------------------------------------------------------------

    def begin_lock_wait(
        self,
        app_id: int,
        resource: str,
        mode: str,
        blocker: Optional[int] = None,
        blocker_mode: str = "",
        depth: int = 0,
    ) -> None:
        """A lock request just parked; remember who it is waiting for."""
        self._open[app_id] = _OpenWait(
            self.clock.now(), resource, mode, blocker, blocker_mode, depth
        )

    def end_lock_wait(self, app_id: int, outcome: str) -> None:
        """Close the open wait with its terminal outcome.

        ``outcome`` is one of ``granted`` / ``timeout`` / ``cancelled``
        / ``deadlock``.  A second call for the same app is a no-op --
        the grant-wins race in the live service means both the deadline
        canceller and the granted waiter may reach an end site, and
        exactly-once accounting falls out of the pop here.
        """
        ctx = self._open.pop(app_id, None)
        if ctx is None:
            return
        now = self.clock.now()
        self._observe(
            WaitEvent(
                "lock." + outcome,
                app_id,
                ctx.started,
                max(0.0, now - ctx.started),
                resource=ctx.resource,
                mode=ctx.mode,
                blocker=ctx.blocker,
                blocker_mode=ctx.blocker_mode,
                depth=ctx.depth,
            )
        )

    def open_lock_waits(self) -> int:
        """Lock waits begun but not yet ended (0 when quiesced)."""
        return len(self._open)

    # ------------------------------------------------------------------
    # One-shot stalls (admission, sync-growth)
    # ------------------------------------------------------------------

    def observe(
        self,
        wait_class: str,
        duration_s: float,
        *,
        app_id: int = -1,
        note: str = "",
        started: Optional[float] = None,
    ) -> None:
        """Record a completed single-shot wait (no begin/end pairing)."""
        if wait_class not in self._totals:
            raise ValueError(f"unknown wait class: {wait_class!r}")
        t = started if started is not None else self.clock.now() - duration_s
        self._observe(
            WaitEvent(wait_class, app_id, t, duration_s, note=note)
        )

    # ------------------------------------------------------------------
    # Latch gets (called by WallClockEnvironment.latch_acquire)
    # ------------------------------------------------------------------

    def latch_fast_get(self) -> None:
        """Uncontended acquisition (first try-acquire succeeded)."""
        self.latch.gets += 1

    def latch_spin_get(self, spins: int) -> None:
        """Contended acquisition won within the spin budget."""
        self.latch.gets += 1
        self.latch.misses += 1
        self.latch.spins += spins

    def latch_sleep_get(self, spins: int, slept_s: float) -> None:
        """Contended acquisition that had to block after spinning."""
        self.latch.gets += 1
        self.latch.misses += 1
        self.latch.spins += spins
        self.latch.sleeps += 1
        self.latch.sleep_time_s += slept_s
        # Latch misses are orders of magnitude hotter than lock waits:
        # histogram only, never the ring.
        totals = self._totals["latch"]
        totals[0] += 1
        totals[1] += slept_s
        hist = self._hist.get("latch")
        if hist is not None:
            hist.observe(slept_s)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def class_totals(self) -> Dict[str, Tuple[int, float]]:
        """``{class: (count, total_seconds)}`` for every wait class."""
        return {cls: (int(c), s) for cls, (c, s) in self._totals.items()}

    def recent(self, limit: int = 50) -> List[WaitEvent]:
        """Most recent ``limit`` raw wait events, oldest first."""
        return self._ring.snapshot(limit)

    def to_dicts(self) -> List[dict]:
        """The raw ring as dicts (telemetry export)."""
        return [event.to_dict() for event in self._ring.snapshot()]

    def __len__(self) -> int:
        return len(self._ring)

    # ------------------------------------------------------------------

    def _observe(self, event: WaitEvent) -> None:
        totals = self._totals[event.wait_class]
        totals[0] += 1
        totals[1] += event.duration_s
        hist = self._hist.get(event.wait_class)
        if hist is not None:
            hist.observe(event.duration_s)
        self._ring.append(event)


def merged_class_totals(
    profilers,
) -> Dict[str, Tuple[int, float]]:
    """Sum :meth:`WaitEventProfiler.class_totals` across profilers."""
    merged: Dict[str, List[float]] = {cls: [0, 0.0] for cls in WAIT_CLASSES}
    for prof in profilers:
        for cls, (count, seconds) in prof.class_totals().items():
            merged[cls][0] += count
            merged[cls][1] += seconds
    return {cls: (int(c), s) for cls, (c, s) in merged.items()}


__all__ = [
    "LATCH_SPINS",
    "WAIT_CLASSES",
    "WAIT_RING_CAPACITY",
    "WAIT_SECONDS_METRIC",
    "LatchStats",
    "WaitEvent",
    "WaitEventProfiler",
    "merged_class_totals",
]
