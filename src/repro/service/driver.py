"""Closed-loop multi-threaded load driver for the live lock service.

Each worker thread is one closed-loop client: admit, open a session,
draw a transaction from a :class:`TransactionMix` (the same statistical
mixes the DES workloads use), take its row locks through the service,
commit (release everything), repeat.  Deadlocks, lock timeouts and
lock-list-full errors roll the transaction back, exactly like the DES
client processes; admission sheds back off exponentially.

The driver is the load behind ``repro-service stress``, the scenario
matrix and the stress tests: it produces real contention --
many threads colliding on the hot set while the tuner daemon resizes
lock memory underneath them.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.transactions import TransactionMix
from repro.errors import (
    AdmissionRejectedError,
    AdmissionTimeoutError,
    RequestCancelledError,
    ServiceClosedError,
    ServiceError,
)
from repro.lockmgr.manager import (
    DeadlockError,
    LockListFullError,
    LockTimeoutError,
)
from repro.service.stack import ServiceStack


@dataclass
class DriverReport:
    """What a load run did, aggregated over all worker threads."""

    threads: int = 0
    commits: int = 0
    rollbacks_deadlock: int = 0
    rollbacks_timeout: int = 0
    rollbacks_full: int = 0
    rollbacks_cancelled: int = 0
    lock_requests: int = 0
    admission_sheds: int = 0
    admission_timeouts: int = 0
    wall_s: float = 0.0
    worker_errors: List[str] = field(default_factory=list)

    @property
    def transactions(self) -> int:
        return (
            self.commits
            + self.rollbacks_deadlock
            + self.rollbacks_timeout
            + self.rollbacks_full
            + self.rollbacks_cancelled
        )

    @property
    def requests_per_s(self) -> float:
        return self.lock_requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def commits_per_s(self) -> float:
        return self.commits / self.wall_s if self.wall_s > 0 else 0.0

    def merge(self, other: "DriverReport") -> None:
        self.commits += other.commits
        self.rollbacks_deadlock += other.rollbacks_deadlock
        self.rollbacks_timeout += other.rollbacks_timeout
        self.rollbacks_full += other.rollbacks_full
        self.rollbacks_cancelled += other.rollbacks_cancelled
        self.lock_requests += other.lock_requests
        self.admission_sheds += other.admission_sheds
        self.admission_timeouts += other.admission_timeouts
        self.worker_errors.extend(other.worker_errors)

    def summary(self) -> Dict[str, float]:
        return {
            "threads": self.threads,
            "commits": self.commits,
            "transactions": self.transactions,
            "lock_requests": self.lock_requests,
            "rollbacks_deadlock": self.rollbacks_deadlock,
            "rollbacks_timeout": self.rollbacks_timeout,
            "rollbacks_full": self.rollbacks_full,
            "admission_sheds": self.admission_sheds,
            "wall_s": round(self.wall_s, 4),
            "requests_per_s": round(self.requests_per_s, 1),
            "commits_per_s": round(self.commits_per_s, 1),
        }


class LoadDriver:
    """Drive a :class:`ServiceStack` with closed-loop worker threads.

    Parameters
    ----------
    stack:
        A started service stack.
    mix:
        Transaction shape; defaults to a contention-heavy, think-free
        mix suitable for stress (real row counts, hot-set skew).
    threads / requests_per_thread / duration_s:
        ``threads`` workers each run until they have issued
        ``requests_per_thread`` lock requests (or ``duration_s``
        elapses, whichever first; either may be None for unbounded).
    seed:
        Base RNG seed; worker ``i`` uses ``seed + i`` so runs are
        reproducible per thread regardless of scheduling.
    request_timeout_s:
        Per-lock-request deadline passed to the service.
    """

    def __init__(
        self,
        stack: ServiceStack,
        *,
        mix: Optional[TransactionMix] = None,
        threads: int = 4,
        requests_per_thread: Optional[int] = 2_000,
        duration_s: Optional[float] = None,
        seed: int = 0,
        request_timeout_s: Optional[float] = 5.0,
        admission_timeout_s: float = 10.0,
    ) -> None:
        if threads <= 0:
            raise ServiceError(f"threads must be positive, got {threads}")
        if requests_per_thread is None and duration_s is None:
            raise ServiceError(
                "need requests_per_thread or duration_s (else workers never stop)"
            )
        self.stack = stack
        self.mix = mix or TransactionMix(
            locks_per_txn_mean=12.0,
            think_time_mean_s=0.0,
            work_time_per_lock_s=0.0,
            rows_per_table=50_000,
            hot_access_probability=0.25,
        )
        self.threads = threads
        self.requests_per_thread = requests_per_thread
        self.duration_s = duration_s
        self.seed = seed
        self.request_timeout_s = request_timeout_s
        self.admission_timeout_s = admission_timeout_s
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask workers to finish their current transaction and exit."""
        self._stop.set()

    def run(self) -> DriverReport:
        """Run the load to completion and return the merged report."""
        reports = [DriverReport() for _ in range(self.threads)]
        workers = [
            threading.Thread(
                target=self._worker,
                args=(i, reports[i]),
                name=f"load-{i}",
                daemon=True,
            )
            for i in range(self.threads)
        ]
        started = time.perf_counter()
        for worker in workers:
            worker.start()
        deadline = (
            None if self.duration_s is None else started + self.duration_s
        )
        for worker in workers:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.perf_counter()) + 30.0
            )
            worker.join(remaining)
            if worker.is_alive():  # pragma: no cover - watchdog path
                self._stop.set()
                worker.join(30.0)
        total = DriverReport(
            threads=self.threads, wall_s=time.perf_counter() - started
        )
        for report in reports:
            total.merge(report)
        return total

    # -- the worker loop ---------------------------------------------------

    def _deadline_passed(self, started: float) -> bool:
        if self._stop.is_set():
            return True
        if self.duration_s is not None:
            return time.perf_counter() - started >= self.duration_s
        return False

    def _worker(self, index: int, report: DriverReport) -> None:
        rng = random.Random(self.seed + index)
        service = self.stack.service
        admission = self.stack.admission
        started = time.perf_counter()
        backoff = 0.001
        try:
            while not self._deadline_passed(started):
                if (
                    self.requests_per_thread is not None
                    and report.lock_requests >= self.requests_per_thread
                ):
                    return
                try:
                    admission.acquire(timeout_s=self.admission_timeout_s)
                except AdmissionRejectedError as exc:
                    report.admission_sheds += 1
                    # Exponential backoff from the controller's hint.
                    delay = max(exc.retry_after_s, backoff) * (
                        0.5 + rng.random()
                    )
                    backoff = min(backoff * 2, 0.05)
                    time.sleep(delay)
                    continue
                except AdmissionTimeoutError:
                    report.admission_timeouts += 1
                    continue
                except ServiceClosedError:
                    return
                backoff = 0.001
                try:
                    self._one_transaction(rng, service, report)
                except ServiceClosedError:
                    return
                finally:
                    admission.release()
        except Exception as exc:  # noqa: BLE001 - surfaced in the report
            report.worker_errors.append(
                f"worker {index}: {type(exc).__name__}: {exc}"
            )

    def _one_transaction(self, rng, service, report: DriverReport) -> None:
        accesses = self.mix.draw_transaction(rng)
        with service.session() as app_id:
            try:
                for access in accesses:
                    report.lock_requests += 1
                    service.lock_row(
                        app_id,
                        access.table_id,
                        access.row_id,
                        access.mode,
                        timeout_s=self.request_timeout_s,
                    )
                report.commits += 1
            except DeadlockError:
                report.rollbacks_deadlock += 1
            except LockTimeoutError:
                report.rollbacks_timeout += 1
            except LockListFullError:
                report.rollbacks_full += 1
            except RequestCancelledError:
                report.rollbacks_cancelled += 1
            # session() releases all locks: commit and rollback alike.
        think = self.mix.draw_think_time(rng)
        if think > 0:
            time.sleep(think)
