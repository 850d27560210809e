"""Named runtime metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricRegistry` is the single home for every instrument one
simulated database run records.  The lock manager's hot-path probes
(lock-wait latency, synchronous-growth latency, escalation scan cost)
observe into histograms obtained from a registry; the telemetry
exporter (:mod:`repro.obs.events`) snapshots the registry into the
JSONL stream so percentiles survive a write/read round trip exactly.

Instruments are deliberately minimal:

* :class:`Counter` -- a monotonically increasing total,
* :class:`Gauge` -- a last-value-wins scalar,
* :class:`Histogram` -- fixed bucket bounds chosen at creation;
  observation is one bisect plus three float updates, and percentile
  queries are answered from the bucket counts deterministically, so a
  histogram rebuilt from its own snapshot reports *identical*
  p50/p95/p99.

The overhead contract of the wider system (one ``is None`` check per
probe site when telemetry is disabled) is enforced by the callers; see
``docs/OBSERVABILITY.md``.

Labels
------

Instruments may carry a small fixed label set (e.g. ``shard="3"``);
the live sharded service uses this for per-shard series.  A labeled
instrument's :attr:`name` is the fully rendered key
``base{key="value",...}`` (keys sorted), so the JSONL snapshot/restore
machinery and the registry's one-namespace rule work unchanged; the
structured parts stay available as :attr:`base_name` and
:attr:`labels` for exporters (``repro.obs.prometheus``).

Thread safety
-------------

The live service mutates instruments from many worker threads plus the
tuner daemon, and the ops endpoint snapshots them from HTTP handler
threads.  Every instrument therefore guards its mutators and snapshots
with a lock (``+=`` on an attribute is not atomic in CPython) -- its
own, or for a :class:`HistogramView` the one lock its writer already
holds -- and the registry guards get-or-create, so concurrent writers
lose no updates and a concurrent snapshot never sees a torn histogram.
"""

from __future__ import annotations

import functools
import math
import threading
from array import array
from bisect import bisect_left
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

#: A rendered label set: ((key, value), ...) sorted by key.
LabelPairs = Tuple[Tuple[str, str], ...]


def _normalize_labels(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def labeled_name(name: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """The fully rendered instrument key, e.g. ``a.b{shard="3"}``."""
    pairs = _normalize_labels(labels)
    if not pairs:
        return name
    rendered = ",".join(f'{k}="{v}"' for k, v in pairs)
    return f"{name}{{{rendered}}}"


def parse_labeled_name(full: str) -> Tuple[str, LabelPairs]:
    """Split a rendered key back into ``(base_name, label_pairs)``.

    Inverse of :func:`labeled_name` for the label values this library
    produces (no embedded quotes); unlabeled names pass through.
    """
    if not full.endswith("}") or "{" not in full:
        return full, ()
    base, _, body = full.partition("{")
    pairs = []
    for item in body[:-1].split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        pairs.append((key, value.strip('"')))
    return base, tuple(sorted(pairs))


def _identity(
    name: str, labels: Optional[Mapping[str, str]]
) -> Tuple[str, str, LabelPairs]:
    """An instrument's ``(name, base_name, labels)``."""
    if labels:
        return labeled_name(name, labels), name, _normalize_labels(labels)
    return (name, *parse_labeled_name(name))


class Counter:
    """A named monotonically increasing total."""

    __slots__ = ("name", "base_name", "labels", "value", "_lock")

    def __init__(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> None:
        self.name, self.base_name, self.labels = _identity(name, labels)
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class CounterView(Counter):
    """A counter whose total is a count the program already keeps.

    ``value`` sums its readers (one per object that registered under
    the name) at the moment it is read, so a hot path bumps only its own
    plain int and the counter can never disagree with it.  Everything
    that reads counters -- :meth:`MetricRegistry.counters`,
    :meth:`MetricRegistry.snapshot`, the Prometheus render, telemetry
    export -- sees an ordinary :class:`Counter`.
    """

    __slots__ = ("_reads",)

    def __init__(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> None:
        self.name, self.base_name, self.labels = _identity(name, labels)
        self._reads: List[Callable[[], float]] = []

    @property
    def value(self) -> float:  # type: ignore[override]
        return float(sum(read() for read in self._reads))

    def inc(self, amount: float = 1.0) -> None:
        raise TypeError(
            f"counter {self.name!r} reads a count kept elsewhere; "
            "bump that count instead"
        )

    def __repr__(self) -> str:
        return f"CounterView({self.name!r}, {self.value})"


class Gauge:
    """A named last-value-wins scalar."""

    __slots__ = ("name", "base_name", "labels", "value", "_lock")

    def __init__(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> None:
        self.name, self.base_name, self.labels = _identity(name, labels)
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


def exponential_bounds(
    start: float, factor: float = 2.0, count: int = 20
) -> Tuple[float, ...]:
    """``count`` ascending bucket upper bounds growing by ``factor``."""
    if start <= 0:
        raise ValueError(f"start must be positive, got {start}")
    if factor <= 1.0:
        raise ValueError(f"factor must exceed 1, got {factor}")
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    return tuple(start * factor**i for i in range(count))


#: Simulated lock-wait latencies: 1 ms up to ~524 s in doubling buckets.
LATENCY_BUCKETS_S = exponential_bounds(0.001, 2.0, 20)
#: Wall-clock cost of a synchronous-growth provider call: 1 us .. ~0.5 s.
WALL_CLOCK_BUCKETS_S = exponential_bounds(1e-6, 2.0, 20)
#: Structure counts (escalation scan cost): 1 .. ~1M in doubling buckets.
SLOT_COUNT_BUCKETS = exponential_bounds(1.0, 2.0, 21)


class Histogram:
    """Fixed-bucket histogram with exact snapshot/restore semantics.

    Parameters
    ----------
    name:
        Instrument name (dotted, e.g. ``"lock.wait.latency_s"``).
    bounds:
        Ascending finite bucket *upper* bounds.  An implicit overflow
        bucket catches observations above the last bound.  Defaults to
        :data:`LATENCY_BUCKETS_S`.

    Percentile semantics: ``percentile(q)`` returns the upper bound of
    the first bucket whose cumulative count reaches rank
    ``ceil(q/100 * count)``, clamped to the observed maximum (the
    overflow bucket reports the maximum directly).  The answer depends
    only on the bucket counts and min/max, so a histogram restored via
    :meth:`from_snapshot` reproduces every percentile bit-for-bit.
    """

    __slots__ = (
        "name",
        "base_name",
        "labels",
        "bounds",
        "counts",
        "count",
        "sum",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.name, self.base_name, self.labels = _identity(name, labels)
        self._lock = threading.Lock()
        chosen = tuple(
            float(b) for b in (LATENCY_BUCKETS_S if bounds is None else bounds)
        )
        if not chosen:
            raise ValueError(f"histogram {name!r} needs at least one bound")
        if any(b2 <= b1 for b1, b2 in zip(chosen, chosen[1:])):
            raise ValueError(f"histogram {name!r} bounds must be ascending")
        if not all(math.isfinite(b) for b in chosen):
            raise ValueError(f"histogram {name!r} bounds must be finite")
        self.bounds = chosen
        self.counts: List[int] = [0] * (len(chosen) + 1)
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation (the hot-path entry point)."""
        value = float(value)
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    # -- aggregates ---------------------------------------------------------

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self.sum / self.count

    @property
    def min(self) -> float:
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self._min

    @property
    def max(self) -> float:
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self._max

    def percentile(self, q: float) -> float:
        """The q-th percentile (``q`` in (0, 100]) from the bucket counts."""
        if not 0.0 < q <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {q}")
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if i == len(self.bounds):  # overflow bucket
                    return self._max
                # the builtin, not the property (class scope is not
                # visible from method bodies)
                return min(self.bounds[i], self._max)
        raise AssertionError("unreachable: rank <= count")  # pragma: no cover

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    # -- snapshot / restore -------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable full state (exact, including min/max).

        Taken under the instrument lock, so a snapshot racing concurrent
        ``observe`` calls is internally consistent (``count`` always
        equals the sum of the bucket counts).
        """
        with self._lock:
            return {
                "name": self.name,
                "bounds": list(self.bounds),
                "counts": list(self.counts),
                "count": self.count,
                "sum": self.sum,
                "min": self._min if self.count else None,
                "max": self._max if self.count else None,
            }

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, object]) -> "Histogram":
        """Rebuild a histogram whose percentiles match the original."""
        hist = cls(str(snapshot["name"]), snapshot["bounds"])  # type: ignore[arg-type]
        counts = list(snapshot["counts"])  # type: ignore[arg-type]
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"snapshot for {hist.name!r} has {len(counts)} buckets, "
                f"expected {len(hist.counts)}"
            )
        hist.counts = [int(c) for c in counts]
        hist.count = int(snapshot["count"])  # type: ignore[arg-type]
        hist.sum = float(snapshot["sum"])  # type: ignore[arg-type]
        if hist.count:
            hist._min = float(snapshot["min"])  # type: ignore[arg-type]
            hist._max = float(snapshot["max"])  # type: ignore[arg-type]
        return hist

    def summary(self) -> Dict[str, float]:
        """count/mean/max/p50/p95/p99 in one dict (empty -> count only)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


#: Raw observations a :class:`HistogramView` holds before it folds them
#: into its buckets: 4 096 doubles, 32 KiB.
PENDING_LIMIT = 4096


def _folding(read):
    """``read`` for a :class:`HistogramView`: fold its pending values
    under its lock first (re-entrant: a read may call another)."""

    @functools.wraps(read)
    def folded(self, *args):
        with self._lock:
            self._fold()
            return read(self, *args)

    return folded


class HistogramView(Histogram):
    """A histogram its one writer fills under a lock it already holds.

    The live ``LockService`` times every request while it holds its
    service mutex anyway, so the view is built over that mutex and the
    service records through :meth:`observe_held`: no second lock per
    request.  That call only appends the raw value to a pending buffer
    of at most :data:`PENDING_LIMIT` doubles; the values are folded into
    the buckets, count, sum, min and max in arrival order -- the same
    float additions :meth:`observe` makes, so ``sum`` is bit-identical
    -- when the buffer fills and on every read.  Every read --
    :meth:`snapshot`, hence the Prometheus render, the worker
    ``metrics`` pull and telemetry export, and :meth:`percentile`,
    :meth:`summary`, ``mean``, ``min`` and ``max`` -- folds under the
    same mutex first (a re-entrant one: the service's is an ``RLock``),
    so a scrape racing a request still sees ``count == sum(counts)`` and
    every read is exact.  Like :class:`CounterView`, readers see an
    ordinary histogram.
    """

    __slots__ = ("_pending",)

    def __init__(
        self,
        name: str,
        bounds: Optional[Sequence[float]],
        lock,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        super().__init__(name, bounds, labels)
        self._lock = lock
        self._pending = array("d")

    def observe_held(self, value: float) -> None:
        """:meth:`observe` for the writer, which holds the lock."""
        pending = self._pending
        pending.append(value)
        if len(pending) == PENDING_LIMIT:
            self._fold()

    def _fold(self) -> None:
        """Bucket the pending values (the caller holds the lock)."""
        pending = self._pending
        if not pending:
            return
        counts, bounds = self.counts, self.bounds
        total = self.sum
        for value in pending:
            counts[bisect_left(bounds, value)] += 1
            total += value
        self.sum = total
        self.count += len(pending)
        low, high = min(pending), max(pending)
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        del pending[:]

    def observe(self, value: float) -> None:
        with self._lock:
            self.observe_held(float(value))

    snapshot = _folding(Histogram.snapshot)
    percentile = _folding(Histogram.percentile)
    summary = _folding(Histogram.summary)
    mean = property(_folding(Histogram.mean.fget))  # type: ignore[attr-defined]
    min = property(_folding(Histogram.min.fget))  # type: ignore[attr-defined]
    max = property(_folding(Histogram.max.fget))  # type: ignore[attr-defined]


Instrument = Union[Counter, Gauge, Histogram]


class MetricRegistry:
    """Get-or-create home for every instrument of one run.

    Requesting an existing name returns the existing instrument;
    requesting it as a different type raises, so two subsystems cannot
    silently fight over a name.  A label set is part of the identity:
    ``counter("x", labels={"shard": "0"})`` and ``counter("x")`` are two
    distinct instruments.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, factory) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise TypeError(
                        f"metric {name!r} is a {type(existing).__name__}, "
                        f"not a {kind.__name__}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        key = labeled_name(name, labels)
        return self._get_or_create(key, Counter, lambda: Counter(name, labels))

    def counter_view(
        self,
        name: str,
        read: Callable[[], float],
        labels: Optional[Mapping[str, str]] = None,
    ) -> CounterView:
        """Get-or-create the :class:`CounterView` ``name`` and add
        ``read`` to the counts it sums."""
        key = labeled_name(name, labels)
        view = self._get_or_create(key, CounterView, lambda: CounterView(name, labels))
        view._reads.append(read)  # type: ignore[union-attr]
        return view  # type: ignore[return-value]

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        key = labeled_name(name, labels)
        return self._get_or_create(key, Gauge, lambda: Gauge(name, labels))

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        key = labeled_name(name, labels)
        return self._get_or_create(
            key, Histogram, lambda: Histogram(name, bounds, labels)
        )

    def histogram_view(
        self,
        name: str,
        bounds: Optional[Sequence[float]],
        lock,
        labels: Optional[Mapping[str, str]] = None,
    ) -> HistogramView:
        """Create the :class:`HistogramView` ``name``, written under
        ``lock``; a second writer under another lock is refused."""
        key = labeled_name(name, labels)
        view = self._get_or_create(
            key, HistogramView, lambda: HistogramView(name, bounds, lock, labels)
        )
        if view._lock is not lock:
            raise ValueError(f"histogram {key!r} already has a writer")
        return view  # type: ignore[return-value]

    def get(self, name: str) -> Optional[Instrument]:
        """The instrument called ``name``, or None."""
        with self._lock:
            return self._instruments.get(name)

    def install(self, instrument: Instrument) -> Instrument:
        """Adopt a ready-made instrument (e.g. a restored histogram).

        Replacing an existing instrument of a different type raises,
        matching the get-or-create rules.
        """
        with self._lock:
            existing = self._instruments.get(instrument.name)
            if existing is not None and type(existing) is not type(instrument):
                raise TypeError(
                    f"metric {instrument.name!r} is a {type(existing).__name__}, "
                    f"cannot install a {type(instrument).__name__}"
                )
            self._instruments[instrument.name] = instrument
            return instrument

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def counters(self) -> Iterable[Counter]:
        return [i for i in self._ordered() if isinstance(i, Counter)]

    def gauges(self) -> Iterable[Gauge]:
        return [i for i in self._ordered() if isinstance(i, Gauge)]

    def histograms(self) -> Iterable[Histogram]:
        return [i for i in self._ordered() if isinstance(i, Histogram)]

    def _ordered(self) -> List[Instrument]:
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Full registry state grouped by instrument type."""
        return {
            "counters": {c.name: c.value for c in self.counters()},
            "gauges": {g.name: g.value for g in self.gauges()},
            "histograms": {h.name: h.snapshot() for h in self.histograms()},
        }
