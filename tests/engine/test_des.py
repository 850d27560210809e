"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.engine.des import Environment, Event, Interrupt, Timeout
from repro.errors import SimulationError
from tests.conftest import run_process


class TestEvent:
    def test_event_starts_untriggered(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, env):
        event = env.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = env.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_callback_after_processed_runs_immediately(self, env):
        event = env.event().succeed("x")
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_advances_clock(self, env):
        env.timeout(5.0)
        env.run()
        assert env.now == 5.0

    def test_timeouts_fire_in_time_order(self, env):
        order = []
        for delay in (3.0, 1.0, 2.0):
            env.timeout(delay, value=delay).add_callback(
                lambda e: order.append(e.value)
            )
        env.run()
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_fifo(self, env):
        order = []
        for tag in "abc":
            env.timeout(1.0, value=tag).add_callback(lambda e: order.append(e.value))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_process_returns_value(self, env):
        def proc():
            yield env.timeout(1)
            return "done"

        assert run_process(env, proc()) == "done"

    def test_yield_receives_event_value(self, env):
        def proc():
            got = yield env.timeout(2, value="payload")
            return got

        assert run_process(env, proc()) == "payload"

    def test_process_waits_for_process(self, env):
        def inner():
            yield env.timeout(3)
            return 7

        def outer():
            value = yield env.process(inner())
            return value + 1

        assert run_process(env, outer()) == 8
        assert env.now == 3

    def test_yield_non_event_crashes_process(self, env):
        def proc():
            yield 42

        with pytest.raises(SimulationError):
            run_process(env, proc())

    def test_process_exception_propagates_to_waiter(self, env):
        def failing():
            yield env.timeout(1)
            raise ValueError("boom")

        def waiter():
            try:
                yield env.process(failing())
            except ValueError as exc:
                return f"caught {exc}"

        assert run_process(env, waiter()) == "caught boom"

    def test_untended_failed_event_raises_from_run(self, env):
        def failing():
            yield env.timeout(1)
            raise ValueError("unhandled")

        env.process(failing())
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_already_processed_target_continues_inline(self, env):
        done = env.event().succeed("ready")
        env.run()

        def proc():
            value = yield done
            return value

        assert run_process(env, proc()) == "ready"

    def test_rejects_non_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)


class TestInterrupt:
    def test_interrupt_wakes_sleeper(self, env):
        def sleeper():
            try:
                yield env.timeout(100)
                return "slept"
            except Interrupt as exc:
                return f"interrupted:{exc.cause}@{env.now}"

        proc = env.process(sleeper())

        def interrupter():
            yield env.timeout(5)
            proc.interrupt("wakeup")

        env.process(interrupter())
        env.run()
        # The sleeper woke at t=5; its abandoned timeout still drains the
        # queue afterwards (nobody is listening to it).
        assert proc.value == "interrupted:wakeup@5.0"

    def test_interrupt_dead_process_raises(self, env):
        def quick():
            yield env.timeout(1)

        proc = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_self_interrupt_rejected(self, env):
        def selfish():
            yield env.timeout(1)
            env.active_process.interrupt()

        with pytest.raises(SimulationError):
            run_process(env, selfish())


class TestEnvironmentRun:
    def test_run_until_stops_clock(self, env):
        env.timeout(100)
        env.run(until=10)
        assert env.now == 10

    def test_run_until_past_raises(self, env):
        env.timeout(5)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=1)

    def test_step_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_determinism(self):
        def build_and_run():
            env = Environment()
            trace = []

            def worker(name, delay):
                yield env.timeout(delay)
                trace.append((name, env.now))
                yield env.timeout(delay)
                trace.append((name, env.now))

            for i in range(5):
                env.process(worker(f"w{i}", 1 + i * 0.5))
            env.run()
            return trace

        assert build_and_run() == build_and_run()
