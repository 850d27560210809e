"""``build_stack``: one constructor, three topologies, one control plane."""

import shutil

import pytest

from repro.lockmgr.modes import LockMode
from repro.service.control import ControlPlane
from repro.service.service import LockService
from repro.service.sharded import ShardedLockService
from repro.service.stack import ServiceStack, build_stack
from repro.service.workers import WorkerPoolStack


@pytest.fixture
def stacks():
    built = {
        "unsharded": build_stack(threads=2, tuner_interval_s=None),
        "sharded": build_stack(threads=2, shards=3, tuner_interval_s=None),
        "pool": build_stack(threads=2, workers=2),
    }
    yield built
    shutil.rmtree(built["pool"].socket_dir, ignore_errors=True)


class TestTopologies:
    def test_unsharded_hands_out_the_bare_service(self, stacks):
        stack = stacks["unsharded"]
        assert type(stack) is ServiceStack
        assert type(stack.service) is LockService  # no facade hop
        assert len(stack.partitions) == 1
        assert stack.detector is None  # one table sees its own cycles
        assert stack.reconciliation is None

    def test_sharded_puts_the_facade_over_n_tables(self, stacks):
        stack = stacks["sharded"]
        assert type(stack) is ServiceStack
        assert type(stack.service) is ShardedLockService
        assert [p.service for p in stack.partitions] == stack.service.shards
        assert len(stack.partitions) == 3
        assert stack.detector is not None
        assert all(p.atomic for p in stack.partitions)

    def test_workers_fork_behind_pipe_proxies(self, stacks):
        stack = stacks["pool"]
        assert type(stack) is WorkerPoolStack
        assert len(stack.partitions) == 2
        assert not any(p.atomic for p in stack.partitions)
        assert stack.detector is not None

    def test_front_door_is_sized_from_the_thread_count(self):
        stack = build_stack(threads=9, tuner_interval_s=None)
        assert stack.config.max_in_flight == 9
        assert stack.config.admission_queue_depth == 36
        assert build_stack(threads=1).config.max_in_flight == 4


class TestOneControlPlane:
    def test_every_topology_runs_the_same_ops_bodies(self, stacks):
        for name in (
            "publish_ops_metrics",
            "ops_health",
            "ops_stmm",
            "ops_incidents",
            "ops_traces",
            "thread_count",
            "_push_maxlocks",
        ):
            for stack in stacks.values():
                assert getattr(type(stack), name) is getattr(
                    ControlPlane, name
                ), (type(stack).__name__, name)

    def test_in_process_client_stack_is_the_stack(self, stacks):
        for key in ("unsharded", "sharded"):
            stack = stacks[key]
            with stack, stack.client_stack() as client:
                assert client is stack
                with client.service.session() as app:
                    client.service.lock_row(app, 1, 1, LockMode.X)
                    client.service.rollback(app)
            stack.check_invariants()

    def test_stmm_and_health_payloads_share_their_keys(self, stacks):
        shared = {"ok", "service", "sessions", "frozen_reason", "tuner"}
        stmm_keys = []
        for stack in stacks.values():
            with stack:  # a worker's posture exists once it has forked
                stmm_keys.append(set(stack.ops_stmm()) - {"posture"})
                assert shared <= set(stack.ops_health())
                assert stack.ops_health()["ok"] is True
        assert stmm_keys[0] == stmm_keys[1] == stmm_keys[2]


class TestPackageSurface:
    def test_packages_import_with_exactly_their_exports(self):
        """The top-level packages import, and export only what a runner
        reaches: a deleted module cannot linger as a re-export."""
        import repro
        import repro.analysis
        import repro.memory
        import repro.workloads

        assert set(repro.__all__) == {
            "AdaptiveLockMemoryPolicy", "AdaptiveMaxlocks", "Database",
            "DatabaseConfig", "DatabaseMemoryRegistry", "Environment",
            "Histogram", "IsolationLevel", "LockDemandReplay", "LockManager",
            "LockMemoryController", "LockMode", "LockTrace", "MetricRegistry",
            "MetricsRecorder", "QueryOptimizer", "RunTelemetry", "Stmm",
            "StmmConfig", "TimeSeries", "TuningParameters", "TuningPolicy",
            "__version__", "lock_percent_per_application",
        }
        assert set(repro.analysis.__all__) == {
            "BlockerEntry", "ExperimentResult", "RunReport",
            "WaitProfileReport", "analyze_run", "format_findings",
            "format_table", "render_series", "render_two_series",
        }
        assert set(repro.memory.__all__) == {
            "BufferpoolModel", "DatabaseMemoryRegistry", "HeapCategory",
            "MemoryHeap", "Stmm", "StmmConfig",
        }
        assert set(repro.workloads.__all__) == {
            "BatchUpdateJob", "ClientSchedule", "LockDemandReplay",
            "OltpWorkload", "REGIMES", "ReportingQuery", "TRACES",
            "ThrashingDetector", "build_regime", "build_trace",
            "diurnal_trace", "flash_crowd_trace", "max_wait_depth",
            "wait_depth",
        }
