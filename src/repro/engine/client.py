"""Closed-loop application clients and the dynamically sized client pool.

A :class:`Client` is one simulated application connection: it thinks,
runs a transaction (acquiring row locks one by one with simulated work
between them), commits, and repeats.  Deadlocks and lock-list-full
errors roll the transaction back -- locks released, a retry after a
short backoff -- mirroring how a real OLTP application reacts to
SQL0911/SQL0912.

A :class:`ClientPool` manages a varying number of clients so workloads
can ramp (Figure 9), surge (Figure 10) or step down (Figure 12).
Deactivated clients finish their current transaction and disconnect, so
a step-down releases lock memory the way the paper's experiment does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.engine.transactions import TransactionMix
from repro.errors import DeadlockError
from repro.lockmgr.isolation import IsolationLevel
from repro.lockmgr.manager import LockListFullError
from repro.lockmgr.modes import LockMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database


@dataclass
class ClientStats:
    """Per-client counters."""

    commits: int = 0
    rollbacks: int = 0
    deadlocks: int = 0
    lock_list_full: int = 0


class Client:
    """One simulated application connection."""

    #: Backoff after a rolled-back transaction, seconds.
    ROLLBACK_BACKOFF_S = 0.25
    #: Row accesses whose simulated work is coalesced into one DES event.
    WORK_BATCH = 8

    def __init__(self, database: "Database", app_id: int, mix: TransactionMix,
                 name: str = "client") -> None:
        self.database = database
        self.app_id = app_id
        self.mix = mix
        self.name = name
        self.active = True
        self.stats = ClientStats()
        self._rng = database.rng.stream(f"{name}-{app_id}")

    def stop(self) -> None:
        """Ask the client to disconnect after its current transaction."""
        self.active = False

    def run(self):
        """DES process: the client's closed-loop lifetime."""
        env = self.database.env
        self.database.register_application(self.app_id)
        try:
            while self.active:
                think = self.mix.draw_think_time(self._rng)
                if think > 0:
                    yield env.timeout(think)
                if not self.active:
                    break
                yield from self._run_transaction()
        finally:
            self.database.lock_manager.release_all(self.app_id)
            self.database.deregister_application(self.app_id)

    def _run_transaction(self):
        env = self.database.env
        lock_manager = self.database.lock_manager
        accesses = self.mix.draw_transaction(self._rng)
        isolation = getattr(self.mix, "isolation", IsolationLevel.RR)
        # Simulated work is batched (one DES event per WORK_BATCH row
        # accesses) to keep the event count tractable for long runs.
        # Each transaction pays the expected statement-compile overhead
        # (zero while the package cache holds the plan working set).
        pending_work = self.database.statement_compile_time()
        try:
            for i, access in enumerate(accesses):
                is_plain_read = access.mode is LockMode.S
                if is_plain_read and not isolation.takes_read_locks:
                    pass  # UR: read without any row lock
                else:
                    yield from lock_manager.lock_row(
                        self.app_id, access.table_id, access.row_id, access.mode
                    )
                if access.mode is LockMode.U:
                    # Cursor-style read then update: convert U to X.
                    yield from lock_manager.lock_row(
                        self.app_id, access.table_id, access.row_id, LockMode.X
                    )
                pending_work += self.database.row_access_time(self.mix.pages_per_lock)
                pending_work += self.mix.work_time_per_lock_s
                if (
                    is_plain_read
                    and isolation.takes_read_locks
                    and not isolation.holds_read_locks_to_commit
                ):
                    # CS: the cursor moves on; the share lock goes now.
                    lock_manager.release_read_lock(
                        self.app_id, access.table_id, access.row_id
                    )
                if pending_work > 0 and (i + 1) % self.WORK_BATCH == 0:
                    yield env.timeout(pending_work)
                    pending_work = 0.0
            if pending_work > 0:
                yield env.timeout(pending_work)
            lock_manager.release_all(self.app_id)
            self.stats.commits += 1
            self.database.note_commit()
        except DeadlockError:
            lock_manager.release_all(self.app_id)
            self.stats.rollbacks += 1
            self.stats.deadlocks += 1
            self.database.note_rollback()
            yield env.timeout(self.ROLLBACK_BACKOFF_S)
        except LockListFullError:
            lock_manager.release_all(self.app_id)
            self.stats.rollbacks += 1
            self.stats.lock_list_full += 1
            self.database.note_rollback()
            yield env.timeout(self.ROLLBACK_BACKOFF_S)


class ClientPool:
    """A dynamically sized population of clients sharing one mix."""

    def __init__(self, database: "Database", mix: TransactionMix,
                 name: str = "oltp") -> None:
        self.database = database
        self.mix = mix
        self.name = name
        self.clients: List[Client] = []

    @property
    def active_count(self) -> int:
        return sum(1 for c in self.clients if c.active)

    def set_target(self, count: int) -> None:
        """Grow or shrink the pool to ``count`` active clients.

        Growth spawns fresh client processes immediately; shrink flags
        the newest clients to stop, and they disconnect at their next
        transaction boundary.
        """
        if count < 0:
            raise ValueError(f"client count must be non-negative, got {count}")
        active = [c for c in self.clients if c.active]
        if count > len(active):
            for _ in range(count - len(active)):
                self._spawn()
        elif count < len(active):
            for client in reversed(active[count:]):
                client.stop()

    def _spawn(self) -> Client:
        app_id = self.database.next_app_id()
        client = Client(self.database, app_id, self.mix, name=self.name)
        self.clients.append(client)
        self.database.env.process(client.run())
        return client

    def total_commits(self) -> int:
        return sum(c.stats.commits for c in self.clients)

    def total_rollbacks(self) -> int:
        return sum(c.stats.rollbacks for c in self.clients)
