"""The cross-partition deadlock sweep (DLCHKTIME over many lock tables).

Partition-local cycles cannot exist -- every partition keeps the lock
manager's immediate detection -- so any cycle in the merged wait-for
graph spans partitions.  One sweep: collect the **global** waiting set,
have every partition build its wait-for graph against it (a blocker
idle in one partition may be the waiter whose edge closes the cycle in
another), merge the graphs (:func:`merge_wait_graphs` also audits the
one-wait-per-session invariant), and victimize each cycle's member with
the smallest **global** lock footprint, ties to the lowest application
id -- the same pure-function-of-membership contract as the
single-manager detector.

Whether a cycle can be trusted on first sight depends on the
partitions, not on an option.  In-process partitions are read while the
sweep holds every partition condition, so their snapshots are atomic
with each other and a cycle seen once is real.  Forked partitions
answer one pipe round trip at a time; skewed snapshots can show a cycle
that never existed, so it is only victimized when seen in **two
consecutive sweeps** -- a real deadlock is permanent until broken, a
phantom dissolves by itself.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Dict, Optional, Set

from repro.errors import ServiceError
from repro.lockmgr.detector import (
    DetectorStats,
    find_cycles_in_graph,
    merge_wait_graphs,
)
from repro.service.partition import WorkerDiedError


class DeadlockSweep:
    """Wall-clock sweep for cycles that span partitions (see module doc).

    Degraded mode: if the sweep thread dies (``crash`` is set), tuning
    is *not* frozen -- lock memory management is unaffected -- but
    cross-partition cycles then persist until a participant's request
    deadline resolves them.  The CLI surfaces ``crash``
    at shutdown.
    """

    def __init__(self, plane: Any, *, interval_s: float) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.plane = plane
        self.interval_s = interval_s
        self.stats = DetectorStats()
        self.crash: Optional[BaseException] = None
        #: Cycles seen last sweep and not yet victimized (non-atomic
        #: snapshots only).
        self._pending: Set[frozenset] = set()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            raise ServiceError("deadlock sweep already started")
        self._thread = threading.Thread(
            target=self._run, name="deadlock-sweep", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.check()
            except WorkerDiedError:
                continue  # the partition's owner handles the crash
            except Exception as exc:  # degraded mode, see class docstring
                self.crash = exc
                return

    def check(self) -> int:
        """One sweep; returns the number of victims cancelled."""
        parts = self.plane.ledger.live()
        self.stats.checks += 1
        # Idle short-circuit, read WITHOUT the hold below: holding every
        # condition stalls all request threads, and almost every sweep
        # finds nobody waiting.
        if not any(part.waiting() for part in parts):
            self._pending.clear()
            return 0
        atomic = all(part.atomic for part in parts)
        hold = self.plane._cond if atomic else contextlib.nullcontext()
        with hold:
            waiting: Set[int] = set().union(
                *(part.waiting() for part in parts)
            )
            graphs = []
            owner: Dict[int, Any] = {}
            footprint: Dict[int, int] = dict.fromkeys(waiting, 0)
            for part in parts:
                graph, slots = part.graph(sorted(waiting))
                graphs.append(graph)
                owner.update(dict.fromkeys(graph, part))
                for app, held in slots.items():
                    footprint[app] += held
            cycles = find_cycles_in_graph(merge_wait_graphs(graphs))
            if not atomic:
                seen = {frozenset(cycle) for cycle in cycles}
                cycles = [c for c in cycles if frozenset(c) in self._pending]
                self._pending = seen - {frozenset(c) for c in cycles}
            victims = 0
            for cycle in cycles:
                self.stats.cycles_found += 1
                victim = min(cycle, key=lambda app: (footprint[app], app))
                # A victim that resumed since its graph was read makes
                # the cycle a phantom: the cancel then refuses.
                cancelled, resource = owner[victim].victimize(
                    victim,
                    f"cross-partition deadlock: app {victim} chosen as "
                    f"victim of cycle {sorted(cycle)}",
                )
                if cancelled:
                    self.stats.victims.append(victim)
                    victims += 1
                    self.plane.record_sweep_victim(
                        owner[victim], victim, resource, list(cycle)
                    )
            return victims


__all__ = ["DeadlockSweep"]
