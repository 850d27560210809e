#!/usr/bin/env python
"""What one held lock costs the interpreter: heap bytes, collector work.

The lock table is bookkeeping for the one resource the paper tunes, so
its own footprint is tracked like a timing (docs/PERFORMANCE.md, "What
one held lock costs").  Two measurements, shape only -- no gate:

* **bare manager**: one application takes ``--locks`` S row locks on a
  bare ``LockManager``, once through the DES's ``lock_row`` generator
  and once through ``lock_row_fast``, the live service's grant path;
  ``tracemalloc`` and ``gc.get_objects()`` price one held lock in
  traced bytes and newly collector-tracked objects, by the source line
  that allocated them, and ``release_all`` shows what is left behind;
* **service cycle**: the Fig. 10/11 surge shape through a
  ``ServiceStack`` (8 sessions round-robin with scripted tuning passes,
  then close), counting the cyclic collector's passes and seconds per
  generation.

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
#: baseline, so that what the interpreter allocates on a path's first
#: calls (on CPython 3.10, ~8 KB for the generator path) is not billed
#: as residue.
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


class HeldCost(NamedTuple):
    bytes_per_lock: float
    tracked_per_lock: float
    sites: List[Site]
    #: Still there after ``release_all``, in total (not per lock).  The
    #: lock table's own hash table is left out: CPython returns a
    #: dict's slots on a later insert, never on a delete.
    residue_bytes: int
    residue_tracked: int


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
    for obj in gc.get_objects():
        if id(obj) in known:
            continue
        trace = tracemalloc.get_object_traceback(obj)
        if trace is not None and PROGRAM in trace[0].filename:
            line = (trace[0].filename, trace[0].lineno)
            lines.setdefault(line, [0, 0])[1] += 1
    return lines


def held_lock_cost(locks: int, fast: bool = False) -> HeldCost:
    """Price ``locks`` S row locks of one application on a bare manager,
    taken through the ``lock_row`` generator or, ``fast``, through
    ``lock_row_fast``."""
    manager = LockManager(
        Environment(), LockBlockChain(initial_blocks=locks // LOCKS_PER_BLOCK + 2)
    )

    def take(app: int, rows: int) -> None:
        for row in range(rows):
            if fast:
                if not manager.lock_row_fast(app, 0, row, LockMode.S):
                    raise RuntimeError("an uncontended request left the fast path")
            else:
                for _ in manager.lock_row(app, 0, row, LockMode.S):
                    raise RuntimeError("an uncontended request waited")

    take(2, WARM_UP)
    manager.release_all(2)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()  # so that every tracked object is counted where it stands
    tracemalloc.start(1)
    try:
        table_before = sys.getsizeof(manager._objects)
        known = {id(obj) for obj in gc.get_objects()}
        before = tracemalloc.take_snapshot()
        take(1, locks)
        held = _program_allocations(before, known)
        manager.release_all(1)
        left = _program_allocations(before, known)
        manager.check_invariants()  # after the count: its own first run is no residue
        table_growth = sys.getsizeof(manager._objects) - table_before
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    sites = [
        Site(
            f"{filename.split(PROGRAM)[-1]}:{lineno}  "
            f"{linecache.getline(filename, lineno).strip()}",
            size / locks,
            tracked / locks,
        )
        for (filename, lineno), (size, tracked) in held.items()
    ]
    sites.sort(key=lambda site: -site.bytes_per_lock)
    return HeldCost(
        sum(site.bytes_per_lock for site in sites),
        sum(site.tracked_per_lock for site in sites),
        sites,
        sum(size for size, _ in left.values()) - table_growth,
        sum(tracked for _, tracked in left.values()),
    )


class CycleCost(NamedTuple):
    acquire_s: float
    close_s: float
    peak_pages: int
    #: Per collector generation: passes run, seconds spent in them.
    gc_passes: List[int]
    gc_seconds: List[float]


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

    for path, fast in (("lock_row", False), ("lock_row_fast", True)):
        cost = held_lock_cost(args.locks, fast)
        print(
            f"bare LockManager, {args.locks} S row locks of one application "
            f"through {path}"
        )
        print(f"  {'bytes/lock':>10}  {'tracked/lock':>12}  allocated at")
        for site in cost.sites:
            if site.bytes_per_lock >= 0.5 or site.tracked_per_lock >= 0.01:
                print(
                    f"  {site.bytes_per_lock:10.1f}  {site.tracked_per_lock:12.2f}  "
                    f"{site.where}"
                )
        print(f"  {cost.bytes_per_lock:10.1f}  {cost.tracked_per_lock:12.2f}  total")
        print(
            f"  after release_all: {cost.residue_bytes} bytes and "
            f"{cost.residue_tracked} tracked objects remain"
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
