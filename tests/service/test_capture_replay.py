"""Demand-trace capture and the live-to-simulation round trip."""

import io
import threading
import time

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.modes import LockMode
from repro.service.capture import (
    DemandTraceRecorder,
    downsample,
    load_trace_jsonl,
)
from repro.service.clock import ManualClock
from repro.service.driver import LoadDriver
from repro.service.stack import ServiceConfig, ServiceStack
from repro.workloads.replay import LockDemandReplay
from tests.conftest import make_database


class TestRecorder:
    def test_manual_sampling(self):
        chain = LockBlockChain(initial_blocks=1)
        clock = ManualClock()
        recorder = DemandTraceRecorder(chain, clock=clock)
        clock.advance(1.0)
        assert recorder.sample_now()
        clock.advance(1.0)
        assert recorder.sample_now()
        assert recorder.to_trace() == [(1.0, 0), (2.0, 0)]

    def test_non_advancing_samples_dropped(self):
        chain = LockBlockChain(initial_blocks=1)
        clock = ManualClock()
        recorder = DemandTraceRecorder(chain, clock=clock)
        clock.advance(1.0)
        assert recorder.sample_now()
        assert not recorder.sample_now()  # same timestamp
        assert recorder.dropped == 1
        assert len(recorder) == 1

    def test_sample_cap(self):
        chain = LockBlockChain(initial_blocks=1)
        clock = ManualClock()
        recorder = DemandTraceRecorder(chain, clock=clock, max_samples=2)
        for _ in range(4):
            clock.advance(1.0)
            recorder.sample_now()
        assert len(recorder) == 2
        assert recorder.dropped == 2

    def test_background_thread_samples(self):
        chain = LockBlockChain(initial_blocks=1)
        recorder = DemandTraceRecorder(chain, period_s=0.01)
        with recorder:
            deadline = time.monotonic() + 10.0
            while len(recorder) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        trace = recorder.to_trace()
        assert len(trace) >= 3
        times = [t for t, _ in trace]
        assert times == sorted(times)
        assert len(set(times)) == len(times)  # strictly increasing

    def test_validation(self):
        chain = LockBlockChain(initial_blocks=1)
        with pytest.raises(ServiceError):
            DemandTraceRecorder(chain, period_s=0)
        with pytest.raises(ServiceError):
            DemandTraceRecorder(chain, max_samples=0)
        recorder = DemandTraceRecorder(chain)
        recorder.start()
        with pytest.raises(ServiceError):
            recorder.start()
        recorder.stop()


class TestJsonlRoundTrip:
    def test_write_and_load(self):
        chain = LockBlockChain(initial_blocks=1)
        clock = ManualClock()
        recorder = DemandTraceRecorder(chain, clock=clock)
        for _ in range(5):
            clock.advance(0.5)
            recorder.sample_now()
        buffer = io.StringIO()
        assert recorder.write_jsonl(buffer) == 5
        buffer.seek(0)
        assert load_trace_jsonl(buffer) == recorder.to_trace()

    def test_load_rejects_corrupt_traces(self):
        with pytest.raises(ConfigurationError, match="bad trace record"):
            load_trace_jsonl(io.StringIO("not json\n"))
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            load_trace_jsonl(
                io.StringIO(
                    '{"time": 1.0, "target_locks": 5}\n'
                    '{"time": 1.0, "target_locks": 6}\n'
                )
            )
        with pytest.raises(ConfigurationError, match="negative"):
            load_trace_jsonl(io.StringIO('{"time": 1.0, "target_locks": -2}\n'))
        with pytest.raises(ConfigurationError, match="empty"):
            load_trace_jsonl(io.StringIO("\n\n"))

    def test_file_round_trip(self, tmp_path):
        chain = LockBlockChain(initial_blocks=1)
        clock = ManualClock()
        recorder = DemandTraceRecorder(chain, clock=clock)
        clock.advance(1.0)
        recorder.sample_now()
        path = tmp_path / "trace.jsonl"
        assert recorder.save(str(path)) == 1
        assert load_trace_jsonl(str(path)) == [(1.0, 0)]


class TestDownsample:
    def test_short_traces_untouched(self):
        trace = [(0.0, 1), (1.0, 2)]
        assert downsample(trace, 10) == trace

    def test_keeps_endpoints_and_monotonicity(self):
        trace = [(float(i), i) for i in range(100)]
        thin = downsample(trace, 10)
        assert len(thin) == 10
        assert thin[0] == trace[0]
        assert thin[-1] == trace[-1]
        times = [t for t, _ in thin]
        assert times == sorted(set(times))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            downsample([(0.0, 1)], 1)


@pytest.mark.slow
class TestLiveToSimulationRoundTrip:
    def test_captured_live_demand_replays_in_simulation(self):
        """Record a live service's lock demand, then replay the captured
        trace through a fresh *simulated* database -- the offline
        controller-study loop the capture format exists for."""
        stack = ServiceStack(
            ServiceConfig(
                total_memory_pages=8_192,
                initial_locklist_pages=32,
                tuner_interval_s=0.05,
            )
        )
        # Samples are taken at explicit points on a manual clock: a
        # background sampler would have to catch a transaction in
        # flight, and the load can finish before its first tick.
        clock = ManualClock()
        recorder = DemandTraceRecorder(stack.chain, clock=clock)

        def sample() -> None:
            clock.advance(1.0)
            assert recorder.sample_now()

        held_rows = 200
        with stack:
            service = stack.service
            # One session holds rows of a table outside the driver's
            # mix (tables 0-9) across the load.
            with service.session() as app_id:
                for row in range(held_rows):
                    service.lock_row(app_id, 10, row, LockMode.X)
                sample()
                report = LoadDriver(
                    stack, threads=4, requests_per_thread=1_500, seed=11
                ).run()
                assert not report.worker_errors
                sample()
            sample()
        trace = recorder.to_trace()
        # held rows + their one intent lock, while no transaction ran
        assert trace[0] == (1.0, held_rows + 1)
        assert trace[1][1] > 0  # still held after the load
        assert trace[-1] == (3.0, 0)  # all released

        db = make_database(seed=5)
        replay = LockDemandReplay(db, trace, batch_size=128)
        replay.start()
        # the replay tracks each captured point to batch granularity
        for time_s, target in trace:
            db.run(until=time_s + 0.5)
            assert abs(replay.held_locks - target) <= 128
        db.check_invariants()

    def test_capture_inside_a_simulation_via_virtual_clock(self):
        """The recorder's manual mode also works on simulated time."""
        from repro.service.clock import VirtualClock

        db = make_database(seed=3)
        recorder = DemandTraceRecorder(
            db.chain, clock=VirtualClock(db.env)
        )
        replay = LockDemandReplay(
            db, [(1.0, 500), (5.0, 2_000), (9.0, 200)], batch_size=100
        )
        replay.start()

        def sampler():
            while True:
                yield db.env.timeout(0.5)
                recorder.sample_now()

        db.env.process(sampler())
        db.run(until=10.0)
        trace = recorder.to_trace()
        assert len(trace) >= 10
        assert max(n for _, n in trace) >= 1_900
