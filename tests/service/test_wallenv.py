"""Tests for the wall-clock environment (events and the clock surface)."""

import threading

import pytest

from repro.errors import SimulationError
from repro.service.clock import ManualClock
from repro.service.wallenv import WallClockEnvironment


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def env(clock):
    return WallClockEnvironment(clock, threading.Condition())


class TestWallEvent:
    def test_lifecycle(self, env):
        event = env.event()
        assert not event.triggered
        with pytest.raises(SimulationError):
            event.ok
        with pytest.raises(SimulationError):
            event.value
        event.succeed("payload")
        assert event.triggered and event.ok
        assert event.value == "payload"

    def test_fires_exactly_once(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("late"))

    def test_fail_carries_exception(self, env):
        event = env.event()
        exc = RuntimeError("boom")
        event.fail(exc)
        assert event.triggered and not event.ok
        assert event.value is exc

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_firing_notifies_the_condition(self, clock):
        cond = threading.Condition()
        env = WallClockEnvironment(clock, cond)
        event = env.event()
        woke = threading.Event()

        def waiter():
            with cond:
                while not event.triggered:
                    cond.wait(5.0)
                woke.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        with cond:
            event.succeed()
        thread.join(5.0)
        assert woke.is_set()


class TestEnvironmentSurface:
    def test_now_delegates_to_clock(self, env, clock):
        assert env.now == 0.0
        clock.advance(7.25)
        assert env.now == 7.25
