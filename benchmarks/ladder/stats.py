"""Arithmetic of the ladder benchmark: percentiles, window summaries,
span self-times and the ``--compare`` verdicts.

Pure functions over plain numbers -- nothing here imports the program,
so ``test_ladder.py`` checks it without building a stack.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[rank]


def tail_quantile(samples: int) -> Optional[float]:
    """The highest of p99 / p99.9 / ... that keeps >= 10 samples beyond it."""
    best = None
    q, beyond = 0.99, 0.01
    while samples * beyond >= 10:
        best = q
        beyond /= 10
        q = 1.0 - beyond
    return best


#: Share of a run's windows the best-decile window leaves on its better side.
BEST_SHARE = 0.10


def best(values: Sequence[float], better: str) -> float:
    """The value a tenth of the windows beat: the *best-decile window*.

    For a workload whose disturbances only ever make a window slower,
    seconds at a time, the better end of a run's windows repeats from
    run to run where their median does not (README, "Windows").
    """
    ordered = sorted(values, reverse=better == "higher")
    return ordered[int(BEST_SHARE * len(ordered))]


def summarize(values: Sequence[float], better: Optional[str] = None) -> Dict[str, float]:
    """One metric's per-window values: the value reported, and their
    median, range and count.  Reported is the median, or with ``better``
    ("lower" or "higher") the best-decile window."""
    return {
        "value": median(values) if better is None else best(values, better),
        "median": median(values),
        "min": min(values),
        "max": max(values),
        "windows": len(values),
    }


def spread(values: Sequence[float]) -> float:
    """(max - min) / median -- the window-to-window range of a metric."""
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


class SpanLog:
    """Spans one client thread records around its calls into the program.

    Columnar (one array per field) so a traced window of a few hundred
    thousand spans costs tens of bytes per span, not a tuple each.
    ``parent`` is the index of the enclosing span in the same log, -1
    for a root; one log per client thread, so no lock is needed.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self.names = list(names)
        self.name_ids = array("b")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")

    def open(self, name_id: int, start: float, parent: int = -1) -> int:
        """Begin a span whose end is not known yet; returns its index."""
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(start)
        return len(self.starts) - 1

    def close(self, index: int, end: float) -> None:
        self.ends[index] = end

    def add(self, name_id: int, start: float, end: float, parent: int) -> None:
        """Record a finished span (a leaf call that has returned)."""
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``{name: (span count, total self seconds)}``.

        A span's self time is its duration minus the part of it its
        direct children cover (children of one parent never overlap:
        a client thread makes one call at a time).
        """
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        totals: Dict[str, Tuple[int, float]] = {}
        for name_id, seconds in zip(self.name_ids, own):
            count, total = totals.get(self.names[name_id], (0, 0.0))
            totals[self.names[name_id]] = (count + 1, total + seconds)
        return totals

    def intervals(self, name: str) -> List[Tuple[float, float]]:
        """(start, end) of every span called ``name``, in record order."""
        wanted = self.names.index(name)
        return [
            (self.starts[i], self.ends[i])
            for i, name_id in enumerate(self.name_ids)
            if name_id == wanted
        ]


def mean_us(totals: Dict[str, Tuple[int, float]], name: str) -> float:
    """Mean self time of the spans called ``name``, in microseconds."""
    count, seconds = totals.get(name, (0, 0.0))
    return seconds / count * 1e6 if count else 0.0


def handoffs(
    waits: Sequence[Tuple[float, float]], releases: Sequence[float]
) -> List[float]:
    """Hand-off latencies of a contended lock.

    ``waits`` are one client's (request start, grant return) pairs for
    the hot lock, ``releases`` the *other* client's ascending
    ``close_session`` call starts.  A wait was handed the lock by the
    last release that began while it was pending; a request the lock
    was free for pairs with no release and is not a hand-off.
    """
    out = []
    for requested, granted in waits:
        at = bisect_left(releases, granted) - 1
        if at >= 0 and releases[at] > requested:
            out.append(granted - releases[at])
    return out


# -- --compare -----------------------------------------------------------------

BETTER, WITHIN, WORSE, UNRESOLVED = "better", "within-bound", "worse", "unresolved"


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """One workload x end-to-end metric verdict.

    ``base`` / ``new`` are :func:`summarize` dicts.  The reported values
    decide unless they differ by more than the bound *and* the two runs'
    window ranges overlap -- then window noise could explain the
    difference either way, and the honest answer is ``unresolved``.
    """
    b, n = base["value"], new["value"]
    gain = (n - b) / abs(b) if better == "higher" else (b - n) / abs(b)
    if abs(gain) <= bound:
        return WITHIN
    overlap = base["min"] <= new["max"] and new["min"] <= base["max"]
    if overlap:
        return UNRESOLVED
    return BETTER if gain > 0 else WORSE
