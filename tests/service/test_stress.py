"""The acceptance stress: heavy thread concurrency with exact accounting.

Eight worker threads issue >= 5000 lock requests each against a small
initial LOCKLIST while the tuning pressure knobs are set so that both
*synchronous growth* and *lock escalation* fire during the run.  At
shutdown the accounting must be byte-exact: zero leaked structures, the
registry's locklist heap equal to the chain's allocation, and every
cross-layer invariant intact.  A lost wakeup would hang a worker (the
watchdog join catches it); a double grant would corrupt the manager's
slot accounting (the invariant sweep catches it).
"""

import threading
import time

import pytest

from repro.core.params import TuningParameters
from repro.engine.transactions import TransactionMix
from repro.service.driver import LoadDriver
from repro.service.stack import ServiceConfig, ServiceStack
from tests.service.sched import wait_until

THREADS = 8
REQUESTS_PER_THREAD = 5_000


@pytest.mark.slow
class TestServiceStress:
    def test_stress_with_growth_and_escalation(self):
        # Small machine, small LOCKLIST, huge transactions and a low
        # MAXLOCKS curve: memory pressure must be answered by synchronous
        # growth until overflow runs dry, and per-application pressure by
        # escalation -- the two paper mechanisms, both under real threads.
        config = ServiceConfig(
            total_memory_pages=4_096,
            initial_locklist_pages=32,
            tuner_interval_s=0.05,
            params=TuningParameters(maxlocks_p=3.0),
            max_in_flight=THREADS,
            admission_queue_depth=2 * THREADS,
        )
        stack = ServiceStack(config)
        mix = TransactionMix(
            locks_per_txn_mean=200.0,
            think_time_mean_s=0.0,
            work_time_per_lock_s=0.0,
            rows_per_table=500_000,
            write_fraction=0.10,
            hot_access_probability=0.02,
        )
        driver = LoadDriver(
            stack,
            mix=mix,
            threads=THREADS,
            requests_per_thread=REQUESTS_PER_THREAD,
            seed=42,
            request_timeout_s=10.0,
        )
        with stack:
            report = driver.run()

        # every worker finished its quota and none raised
        assert report.worker_errors == []
        assert report.lock_requests >= THREADS * REQUESTS_PER_THREAD
        assert report.transactions > 0

        # both tuning mechanisms really fired during the run
        stats = stack.service.manager.stats
        assert stats.sync_growth_blocks > 0, "sync growth never exercised"
        assert stats.escalations.count > 0, "escalation never exercised"

        # no worker left anything behind: no waiter, no session, no slot
        assert stack.service.manager.waiting_apps() == set()
        assert stack.service.session_count() == 0
        assert stack.chain.used_slots == 0

        # byte-exact memory accounting across every layer
        assert (
            stack.registry.heap("locklist").size_pages
            == stack.chain.allocated_pages
        )
        stack.check_invariants()  # every lock object's and grant word's too

        # the tuner daemon survived the whole run
        assert stack.tuner.crash is None
        assert stack.tuner.intervals_run > 0

    def test_no_threads_leak(self):
        """Service-owned threads are all gone after stop()."""
        before = threading.active_count()
        stack = ServiceStack(
            ServiceConfig(total_memory_pages=4_096, tuner_interval_s=0.02)
        )
        with stack:
            LoadDriver(
                stack, threads=4, requests_per_thread=200, seed=7
            ).run()
        wait_until(
            lambda: threading.active_count() <= before,
            what="stack threads exiting after stop",
        )
        assert threading.active_count() <= before
