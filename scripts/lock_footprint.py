#!/usr/bin/env python
"""What one held lock costs the interpreter: heap bytes, collector work.

The lock table is bookkeeping for the one resource the paper tunes, so
its own footprint is tracked like a timing (docs/PERFORMANCE.md, "What
one held lock costs").  Two measurements, shape only -- no gate:

* **bare manager**: one application takes ``--locks`` S row locks on a
  bare ``LockManager`` through ``begin_lock_row``, the one grant path
  (the DES's ``lock_row`` generator and the live service both start
  there, and an uncontended request ends there);
  ``tracemalloc`` and ``gc.get_objects()`` price one held lock in
  traced bytes and newly collector-tracked objects, by the source line
  that allocated them.  The line marked ``<- grant word`` is the one
  that built the last held row's lock-table entry: the grant word
  ``(app_id, mode code, count, block id)`` an uncontended lock is (a
  ``LockObject`` would show there instead).  A fresh grant shares its
  app's last word of its mode and block, so there is one word per
  app, mode and block, not one per lock, and the line is printed
  however few bytes a lock it costs.  One ``gc.collect()``
  then shows which of those objects stay tracked (what every full
  collection walks: CPython untracks an exact tuple of ints at its
  first pass), and
  ``release_all`` shows what is left behind; whatever either
  collection finds unreachable -- a reference cycle the grant or
  release path made -- is counted, not forgiven;
* **service cycle**: the Fig. 10/11 surge shape through a
  ``ServiceStack`` (8 sessions round-robin with scripted tuning passes,
  then close), counting the cyclic collector's passes and seconds per
  generation, and its share of the cycle's wall time.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/lock_footprint.py [--locks 96000]
"""

from __future__ import annotations

import argparse
import gc
import linecache
import os
import sys
import tracemalloc
from time import perf_counter
from typing import Dict, List, NamedTuple, Set, Tuple

from repro.engine.des import Environment
from repro.lockmgr import LockBlockChain, LockManager, LockMode
from repro.service.stack import ServiceConfig, ServiceStack
from repro.units import LOCKS_PER_BLOCK

LOCKS = 96_000
SESSIONS = 8
TUNE_EVERY = 16_384
#: Locks taken and released through the measured path before the
#: baseline, so that what the interpreter allocates on its first calls
#: (on CPython 3.10, ~8 KB for a generator path) is not billed as
#: residue.
WARM_UP = 8
#: Only allocations made by the program are billed, not this script's
#: snapshots and id sets.
PROGRAM = os.path.join("src", "repro") + os.sep

Line = Tuple[str, int]


class Site(NamedTuple):
    """One allocating source line, per held lock."""

    where: str
    bytes_per_lock: float
    tracked_per_lock: float
    #: Of those, still tracked after one ``gc.collect()``.
    surviving_per_lock: float


class HeldCost(NamedTuple):
    bytes_per_lock: float
    tracked_per_lock: float
    surviving_per_lock: float
    sites: List[Site]
    #: ``Site.where`` of the line that built the last row's lock-table
    #: entry (its grant word, shared by the app's rows of one block).
    word_site: str
    #: Still there after ``release_all`` and a full collection, in
    #: total (not per lock).  The collection empties the interpreter's
    #: free lists, which can keep up to 2 000 freed tuples (144 KB of
    #: grant words when each lock had its own) that the program no
    #: longer holds.  The lock
    #: table's own hash tables (the table map and the map of row maps)
    #: are left out: CPython returns a dict's slots on a later insert,
    #: never on a delete.
    residue_bytes: int
    residue_tracked: int
    #: Objects the two full collections (after the grants, after
    #: ``release_all``) found unreachable: reference cycles the program
    #: made, which a collection frees before the counts above see them.
    cycles: int


def _program_tracked(known: Set[int]) -> Dict[Line, int]:
    """line -> collector-tracked objects the program allocated there,
    beyond the object ids in ``known``."""
    lines: Dict[Line, int] = {}
    for obj in gc.get_objects():
        if id(obj) in known:
            continue
        trace = tracemalloc.get_object_traceback(obj)
        if trace is not None and PROGRAM in trace[0].filename:
            line = (trace[0].filename, trace[0].lineno)
            lines[line] = lines.get(line, 0) + 1
    return lines


def _program_allocations(
    before: tracemalloc.Snapshot, known: Set[int]
) -> Dict[Line, List[int]]:
    """line -> [bytes, tracked objects] the program allocated since
    ``before`` / beyond the object ids in ``known``, and still holds."""
    lines: Dict[Line, List[int]] = {}
    for stat in tracemalloc.take_snapshot().compare_to(before, "lineno"):
        frame = stat.traceback[0]
        if PROGRAM in frame.filename:
            lines[(frame.filename, frame.lineno)] = [stat.size_diff, 0]
    for line, tracked in _program_tracked(known).items():
        lines.setdefault(line, [0, 0])[1] = tracked
    return lines


def _lock_table_size(manager: LockManager) -> int:
    """Bytes of the lock table's two outer hash tables: table entries,
    and the per-table row maps (a map itself goes when it empties)."""
    return sys.getsizeof(manager._objects) + sys.getsizeof(manager._rows)


def held_lock_cost(locks: int) -> HeldCost:
    """Price ``locks`` S row locks of one application on a bare manager,
    taken through ``begin_lock_row``."""
    manager = LockManager(
        Environment(), LockBlockChain(initial_blocks=locks // LOCKS_PER_BLOCK + 2)
    )

    def take(app: int, rows: int) -> None:
        for row in range(rows):
            if manager.begin_lock_row(app, 0, row, LockMode.S) is not None:
                raise RuntimeError("an uncontended request did not end at once")

    take(2, WARM_UP)
    manager.release_all(2)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()  # so that every tracked object is counted where it stands
    tracemalloc.start(1)
    try:
        table_before = _lock_table_size(manager)
        known = {id(obj) for obj in gc.get_objects()}
        before = tracemalloc.take_snapshot()
        take(1, locks)
        entry = next(reversed(manager._rows[0].values()))  # the last row's
        word_frame = tracemalloc.get_object_traceback(entry)[0]
        held = _program_allocations(before, known)
        cycles = gc.collect()
        surviving = _program_tracked(known)
        manager.release_all(1)
        cycles += gc.collect()
        left = _program_allocations(before, known)
        manager.check_invariants()  # after the count: its own first run is no residue
        table_growth = _lock_table_size(manager) - table_before
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    def where(filename: str, lineno: int) -> str:
        return (
            f"{filename.split(PROGRAM)[-1]}:{lineno}  "
            f"{linecache.getline(filename, lineno).split('  # ')[0].strip()}"
        )

    sites = [
        Site(
            where(filename, lineno),
            size / locks,
            tracked / locks,
            surviving.get((filename, lineno), 0) / locks,
        )
        for (filename, lineno), (size, tracked) in held.items()
    ]
    sites.sort(key=lambda site: -site.bytes_per_lock)
    return HeldCost(
        sum(site.bytes_per_lock for site in sites),
        sum(site.tracked_per_lock for site in sites),
        sum(site.surviving_per_lock for site in sites),
        sites,
        where(word_frame.filename, word_frame.lineno),
        sum(size for size, _ in left.values()) - table_growth,
        sum(tracked for _, tracked in left.values()),
        cycles,
    )


class CycleCost(NamedTuple):
    acquire_s: float
    close_s: float
    peak_pages: int
    #: Per collector generation: passes run, seconds spent in them.
    gc_passes: List[int]
    gc_seconds: List[float]

    @property
    def gc_share(self) -> float:
        """The collector's share of the cycle's wall time."""
        return sum(self.gc_seconds) / (self.acquire_s + self.close_s)


def service_cycle(locks: int) -> CycleCost:
    """One surge cycle through a ``ServiceStack``, collector observed."""
    stack = ServiceStack(ServiceConfig())  # not started: passes are scripted
    service = stack.service
    passes, seconds, began = [0, 0, 0], [0.0, 0.0, 0.0], [0.0]

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            began[0] = perf_counter()
        else:
            passes[info["generation"]] += 1
            seconds[info["generation"]] += perf_counter() - began[0]

    gc.callbacks.append(on_gc)
    try:
        apps = [service.open_session() for _ in range(SESSIONS)]
        t0 = perf_counter()
        for n in range(locks):
            session = n % SESSIONS
            service.lock_row(apps[session], session, n, LockMode.S)
            if (n + 1) % TUNE_EVERY == 0:
                stack.tuner.tune_now()
        t1 = perf_counter()
        peak_pages = stack.chain.allocated_pages
        for app in apps:
            service.close_session(app)
        t2 = perf_counter()
        stack.check_invariants()
    finally:
        gc.callbacks.remove(on_gc)
        stack.stop()
    return CycleCost(t1 - t0, t2 - t1, peak_pages, passes, seconds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--locks", type=int, default=LOCKS)
    args = parser.parse_args()

    cost = held_lock_cost(args.locks)
    print(
        f"bare LockManager, {args.locks} S row locks of one application "
        "through begin_lock_row"
    )
    print(
        f"  {'bytes/lock':>10}  {'tracked/lock':>12}  {'after gc':>8}  "
        "allocated at"
    )
    for site in cost.sites:
        word = site.where == cost.word_site
        if site.bytes_per_lock >= 0.5 or site.tracked_per_lock >= 0.01 or word:
            mark = "  <- grant word, one per app, mode and block" if word else ""
            print(
                f"  {site.bytes_per_lock:10.1f}  {site.tracked_per_lock:12.2f}  "
                f"{site.surviving_per_lock:8.2f}  {site.where}{mark}"
            )
    print(
        f"  {cost.bytes_per_lock:10.1f}  {cost.tracked_per_lock:12.2f}  "
        f"{cost.surviving_per_lock:8.2f}  total"
    )
    print(
        f"  after release_all and gc: {cost.residue_bytes} bytes and "
        f"{cost.residue_tracked} tracked objects remain; the collections "
        f"found {cost.cycles} unreachable"
    )

    cycle = service_cycle(args.locks)
    print(
        f"ServiceStack, {SESSIONS} sessions x {args.locks // SESSIONS} locks: "
        f"acquire {cycle.acquire_s:.3f} s, close {cycle.close_s:.3f} s, "
        f"peak {cycle.peak_pages} pages"
    )
    for generation, (count, spent) in enumerate(
        zip(cycle.gc_passes, cycle.gc_seconds)
    ):
        print(f"  gen-{generation} collections: {count:5d}  {spent:7.3f} s")
    print(f"  collector share of the cycle: {cycle.gc_share:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
