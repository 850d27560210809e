"""Multi-process worker pool: accounting, routing, failure modes.

A real :class:`WorkerPoolStack` -- forked worker processes, Unix-domain
sockets, the arbiter thread in the parent -- exercised through the
routed client library.  Covers the ISSUE acceptance criteria: byte-exact
cross-worker block accounting on clean shutdown, sync-growth borrows
over the control channel, cross-worker deadlock detection, and the
worker-crash degraded mode.
"""

import os
import shutil
import signal
import sys
import threading
import time

import pytest

from repro.errors import ConfigurationError, DeadlockError, ServiceError
from repro.net import protocol as wire
from repro.net.client import ConnectionLostError
from repro.service.driver import LoadDriver, TransactionMix
from repro.service.workers import WorkerPoolConfig, WorkerPoolStack
from repro.lockmgr.modes import LockMode
from repro.units import LOCKS_PER_BLOCK, PAGES_PER_BLOCK


def wait_until(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def pool_config(**overrides) -> WorkerPoolConfig:
    defaults = dict(
        total_memory_pages=16384,
        initial_locklist_pages=128,
        tuner_interval_s=0.05,
        max_in_flight=16,
        admission_queue_depth=64,
        workers=2,
        deadlock_interval_s=0.1,
    )
    defaults.update(overrides)
    return WorkerPoolConfig(**defaults)


class TestConfigTheWorkerPoolCannotHonour:
    """What the pool cannot do it refuses at construction -- it used to
    carve broker heaps it never traded, and drop the rest silently."""

    def test_broker_is_refused(self):
        with pytest.raises(ConfigurationError, match="broker"):
            pool_config(broker=True)

    def test_wait_profile_is_refused(self):
        with pytest.raises(ConfigurationError, match="wait_profile"):
            pool_config(wait_profile=True)

    def test_what_it_does_honour_still_builds(self):
        cfg = pool_config(trace_sample_every=8, telemetry=True, ops_port=0)
        pool = WorkerPoolStack(cfg)
        assert pool.broker is None and pool.wait_profilers == []
        shutil.rmtree(pool.socket_dir, ignore_errors=True)

    def test_build_stack_passes_the_refusal_on(self):
        from repro.service.stack import build_stack

        with pytest.raises(ConfigurationError, match="broker"):
            build_stack(threads=2, workers=2, broker=True)


class TestControlOpDispatch:
    """The worker serves an allow-list of ops; anything else is an
    ``("error", ...)`` reply, never a dead worker."""

    def test_unknown_and_malformed_ops_are_answered_not_fatal(self):
        with WorkerPoolStack(pool_config(workers=1)) as pool:
            part = pool.partitions[0]
            with pytest.raises(ServiceError, match="unknown control op"):
                part.call("reboot")
            # Real attributes of the worker's partition object that are
            # not ops stay unreachable through the pipe.
            for attr in ("service", "posture", "server", "__class__"):
                with pytest.raises(ServiceError, match="unknown control op"):
                    part.call(attr)
            # A known op with the wrong arity fails in the worker ...
            with pytest.raises(ServiceError, match="TypeError"):
                part.call("add_blocks")
            # ... and so does a message that is not an op tuple at all.
            with part.ctl_lock:
                for garbage in (42, (), ([],), None):
                    part.ctl.send(garbage)
                    tag, detail = part.ctl.recv()
                    assert tag == "error", (garbage, detail)
            # The worker shrugged all of it off.
            assert not part.dead
            assert part.process.is_alive()
            assert part.check() == part.chain.block_count
            assert part.occupancy()["used_slots"] == 0
        assert pool.reconciliation is not None and pool.reconciliation.ok


class TestCleanShutdown:
    def test_idle_pool_reconciles_byte_exactly(self):
        pool = WorkerPoolStack(pool_config()).start()
        pool.stop()
        rec = pool.reconciliation
        assert rec is not None and rec.ok
        assert rec.expected_blocks == rec.reported_blocks
        assert rec.expected_pages == 128
        assert all(w["state"] == "closed" for w in rec.workers)

    def test_driven_pool_reconciles_byte_exactly(self):
        with WorkerPoolStack(pool_config()) as pool:
            with pool.client_stack() as net:
                driver = LoadDriver(
                    net,
                    mix=TransactionMix(
                        locks_per_txn_mean=8.0,
                        think_time_mean_s=0.0,
                        work_time_per_lock_s=0.0,
                        rows_per_table=20_000,
                    ),
                    threads=4,
                    requests_per_thread=800,
                    seed=17,
                )
                report = driver.run()
                assert report.worker_errors == []
                assert report.lock_requests >= 4 * 800
                assert report.commits > 0
                # Traffic reached every worker, not just one shard.
                per_worker = net.service.stats()
                assert len(per_worker) == 2
                for payload in per_worker:
                    assert payload["service"]["requests"] > 0
        rec = pool.reconciliation
        assert rec is not None and rec.ok
        assert rec.expected_blocks == rec.reported_blocks
        for worker in rec.workers:
            assert worker["state"] == "closed"
            assert worker["reported_used_slots"] == 0


class TestSyncGrowthBorrow:
    def test_borrow_over_the_control_channel(self):
        # One block per worker, and a tuner interval so long the async
        # grow path never fires during the test: filling worker 0 past
        # its capacity *must* go through the synchronous borrow pipe.
        cfg = pool_config(
            initial_locklist_pages=2 * PAGES_PER_BLOCK,
            tuner_interval_s=5.0,
        )
        with WorkerPoolStack(cfg) as pool:
            assert pool.chain.capacity_slots == 2 * LOCKS_PER_BLOCK
            with pool.client_stack() as net:
                client = net.service
                apps = [client.open_session() for _ in range(4)]
                # Even tables all route to worker 0; each session stays
                # far below MAXLOCKS so escalation never preempts the
                # growth path.
                per_session = (LOCKS_PER_BLOCK // 4) + 150
                for offset, app in enumerate(apps):
                    for row in range(per_session):
                        client.lock_row(app, 2 * offset, row, LockMode.X)
                assert pool.ledger.borrowed_blocks(0) >= 1
                assert pool.ledger.total_borrowed_blocks() >= 1
                # The grant landed in the parent's authoritative mirror.
                assert pool.chain.block_count > 2
                for app in apps:
                    client.rollback(app)
                    client.close_session(app)
        rec = pool.reconciliation
        assert rec is not None and rec.ok
        assert rec.expected_blocks == rec.reported_blocks


class TestOneBorrowConsumerAtATime:
    def test_foreign_tune_now_races_the_arbiter_over_live_borrows(self):
        """``tune_now()`` from a test thread while the arbiter thread is
        alive and workers are borrowing: passes and borrow grants both
        mutate the registry, so they must serialise -- a lost update
        shows up as a heap/mirror/worker mismatch at reconcile."""
        cfg = pool_config(
            initial_locklist_pages=2 * PAGES_PER_BLOCK,  # 1 block/worker
            # The arbiter thread only ever services borrows here; every
            # pass comes from this thread, once the first borrow landed.
            tuner_interval_s=30.0,
        )
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with WorkerPoolStack(cfg) as pool:
                with pool.client_stack(pool_size=4) as net:
                    client = net.service
                    stop = threading.Event()
                    errors = []

                    def churn(seed: int) -> None:
                        try:
                            app = client.open_session()
                            while not stop.is_set():
                                for row in range(LOCKS_PER_BLOCK):
                                    client.lock_row(
                                        app, seed, row, LockMode.S
                                    )
                                client.rollback(app)
                            client.close_session(app)
                        except Exception as exc:  # noqa: BLE001
                            errors.append(exc)

                    threads = [
                        threading.Thread(target=churn, args=(seed,))
                        for seed in range(6)
                    ]
                    for t in threads:
                        t.start()
                    # The first wave overruns the two seed blocks before
                    # any pass can have grown them.
                    assert wait_until(
                        lambda: pool.ledger.total_borrowed_blocks() >= 1
                    )
                    deadline = time.monotonic() + 1.0
                    passes = 0
                    while time.monotonic() < deadline:
                        pool.tuner.tune_now()
                        passes += 1
                    stop.set()
                    for t in threads:
                        t.join(timeout=30.0)
                    assert not any(t.is_alive() for t in threads)
                    assert errors == []
                    assert passes > 0
                    assert pool.tuner.crash is None
                    pool.check_invariants()
        finally:
            sys.setswitchinterval(old_interval)
        rec = pool.reconciliation
        assert rec is not None and rec.ok, rec
        assert rec.expected_blocks == rec.reported_blocks
        pool.check_invariants()
        assert (
            sum(pool.registry.snapshot().values()) == pool.registry.total_pages
        )


class TestCrossWorkerDeadlock:
    def test_cycle_spanning_two_workers_is_broken(self):
        with WorkerPoolStack(pool_config()) as pool:
            with pool.client_stack() as net:
                client = net.service
                a = client.open_session()  # home: worker 0
                b = client.open_session()  # home: worker 1
                client.lock_row(a, 0, 1, LockMode.X)  # worker 0
                client.lock_row(b, 1, 1, LockMode.X)  # worker 1
                # Each worker only ever sees half of the wait-for
                # cycle; only the parent's merged graph closes it.
                outcomes = {}

                def wait_for(name, app, table):
                    try:
                        client.lock_row(
                            app, table, 1, LockMode.X, timeout_s=None
                        )
                        outcomes[name] = "granted"
                    except DeadlockError:
                        outcomes[name] = "deadlock"
                        client.rollback(app)

                threads = [
                    threading.Thread(target=wait_for, args=("a", a, 1)),
                    threading.Thread(target=wait_for, args=("b", b, 0)),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in threads)
                assert sorted(outcomes.values()) == ["deadlock", "granted"]
                assert pool.detector.stats.cycles_found >= 1
                assert len(pool.detector.stats.victims) >= 1
                assert pool.incidents.kind_counts().get("deadlock", 0) >= 1
                for app in (a, b):
                    client.rollback(app)
                    client.close_session(app)
        assert pool.reconciliation is not None and pool.reconciliation.ok

    def test_detector_runs_without_cycles(self):
        with WorkerPoolStack(pool_config()) as pool:
            with pool.client_stack() as net:
                with net.service.session() as app:
                    net.service.lock_row(app, 0, 1, LockMode.X)
                    net.service.lock_row(app, 1, 1, LockMode.X)
                assert wait_until(lambda: pool.detector.stats.checks >= 2)
            assert pool.detector.stats.cycles_found == 0
            assert pool.detector.stats.victims == []


class TestWorkerCrash:
    def test_sigkill_degrades_like_a_tuner_crash(self):
        with WorkerPoolStack(pool_config()) as pool:
            with pool.client_stack() as net:
                client = net.service
                a = client.open_session()  # home: worker 0
                b = client.open_session()  # home: worker 1
                client.lock_row(a, 0, 1, LockMode.X)
                client.lock_row(b, 1, 1, LockMode.X)

                os.kill(pool.partitions[0].process.pid, signal.SIGKILL)
                assert wait_until(lambda: pool.frozen_reason is not None)
                assert "worker" in pool.frozen_reason
                assert pool.worker_crashes == 1

                health = pool.ops_health()
                assert health["ok"] is False
                assert health["frozen_reason"] is not None
                counts = pool.incidents.kind_counts()
                assert counts.get("worker-crash", 0) >= 1

                # Survivors keep serving their shards on a frozen,
                # static LOCKLIST.
                client.lock_row(b, 3, 7, LockMode.X, timeout_s=2.0)
                # The dead worker's shard is gone.
                with pytest.raises(
                    (ConnectionLostError, wire.ServiceError, OSError)
                ):
                    client.lock_row(a, 2, 2, LockMode.X, timeout_s=1.0)

                client.rollback(b)
                client.close_session(b)
        rec = pool.reconciliation
        assert rec is not None
        assert rec.ok is False
        states = {w["worker"]: w["state"] for w in rec.workers}
        assert states[0] == "crashed"
        assert states[1] == "closed"
