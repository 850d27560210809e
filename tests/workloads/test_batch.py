"""Tests for batch update jobs."""

import pytest

from repro.engine.database import Database, DatabaseConfig
from repro.workloads.batch import BatchUpdateJob
from tests.conftest import make_database


class TestValidation:
    def test_zero_rows_rejected(self):
        db = make_database()
        with pytest.raises(ValueError):
            BatchUpdateJob(db, 0, row_count=0)

    def test_negative_duration_rejected(self):
        db = make_database()
        with pytest.raises(ValueError):
            BatchUpdateJob(db, 0, 10, duration_s=-1)


class TestExecution:
    def test_job_completes_and_releases(self):
        db = make_database(seed=1)
        job = BatchUpdateJob(db, start_time_s=2, row_count=1_000, duration_s=3)
        job.start()
        db.run(until=40)
        assert job.result is not None
        assert job.result.completed
        assert job.result.rows_updated == 1_000
        assert db.chain.used_slots == 0

    def test_peak_then_relaxation(self):
        """Section 3.4's motivation: a batch peak relaxes afterwards."""
        db = make_database(seed=2, initial_locklist_pages=32)
        # 40,000 X locks ~ 625 pages used: forces growth past the 2 MB
        # minLockMemory floor (512 pages), so relaxation is observable.
        job = BatchUpdateJob(db, start_time_s=5, row_count=40_000, duration_s=5)
        job.start()
        db.run(until=400)
        pages = db.metrics["lock_pages"]
        peak = pages.max()
        assert peak > 512  # grew past the minimum for the batch
        assert pages.last < peak  # delta_reduce relaxed it afterwards

    def test_commit_counted(self):
        db = make_database(seed=3)
        job = BatchUpdateJob(db, 0, 500, duration_s=1)
        job.start()
        db.run(until=30)
        assert db.commits == 1

    def test_escalation_flag_records(self):
        from repro.baselines.static_locklist import StaticLocklistPolicy

        db = make_database(
            seed=4,
            policy=StaticLocklistPolicy(locklist_pages=32, maxlocks_fraction=0.9),
        )
        job = BatchUpdateJob(db, 0, row_count=5_000, duration_s=1)
        job.start()
        db.run(until=30)
        assert job.result.escalated


class TestSelectiveEscalation:
    """Section 6.1's future work: a batch application flagged
    escalation-preferred takes a table X lock instead of growing lock
    memory, so the pages stay with the bufferpool."""

    @staticmethod
    def run_job(preferred: bool) -> dict:
        db = Database(
            seed=23,
            config=DatabaseConfig(total_memory_pages=65_536,
                                  initial_locklist_pages=128),
        )
        job = BatchUpdateJob(db, start_time_s=10, row_count=120_000, duration_s=15)
        if preferred:
            # flag the job's application as soon as it connects
            register = db.register_application

            def register_and_flag(app_id):
                register(app_id)
                db.lock_manager.set_escalation_preference(app_id, True)

            db.register_application = register_and_flag
        job.start()
        db.run(until=200)
        return {
            "completed": job.result.completed,
            "escalated": job.result.escalated,
            "peak_lock_pages": db.metrics["lock_pages"].max(),
            "sync_growth_blocks": db.lock_manager.stats.sync_growth_blocks,
            "min_bufferpool_pages": db.metrics["bufferpool_pages"].min(),
        }

    def test_preferred_job_escalates_instead_of_growing(self):
        normal, preferred = self.run_job(False), self.run_job(True)
        assert normal["completed"] and preferred["completed"]
        # the normal run grows lock memory; the preferring run escalates
        assert not normal["escalated"]
        assert preferred["escalated"]
        # the memory saving the paper predicts...
        assert preferred["peak_lock_pages"] < normal["peak_lock_pages"]
        assert preferred["sync_growth_blocks"] == 0
        # ...stays with the cache
        assert preferred["min_bufferpool_pages"] >= normal["min_bufferpool_pages"]
