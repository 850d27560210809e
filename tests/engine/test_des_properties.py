"""Property tests for the DES kernel: ordering and clock discipline."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.des import Environment


class TestClockProperties:
    @settings(max_examples=50, deadline=None)
    @given(delays=st.lists(st.floats(0, 1_000), min_size=1, max_size=30))
    def test_callbacks_fire_in_nondecreasing_time_order(self, delays):
        env = Environment()
        observed = []
        for delay in delays:
            env.timeout(delay).add_callback(lambda _e: observed.append(env.now))
        env.run()
        assert observed == sorted(observed)
        assert env.now == max(delays)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 15),
    )
    def test_random_process_trees_complete(self, seed, n):
        """Randomly nested spawn/wait/timeout structures all finish and
        the clock never runs backwards."""
        rng = random.Random(seed)
        env = Environment()
        finished = []
        clock_trace = []

        def worker(depth):
            last = env.now
            for _ in range(rng.randrange(1, 4)):
                clock_trace.append(env.now)
                choice = rng.random()
                if choice < 0.6 or depth >= 3:
                    yield env.timeout(rng.random() * 5)
                elif choice < 0.85:
                    yield env.process(worker(depth + 1))
                else:
                    children = [
                        env.process(worker(depth + 1))
                        for _ in range(rng.randrange(1, 3))
                    ]
                    for child in children:  # one may be done already
                        yield child
                assert env.now >= last
                last = env.now
            finished.append(depth)

        roots = [env.process(worker(0)) for _ in range(n)]
        env.run()
        assert all(not p.is_alive for p in roots)
        assert clock_trace == sorted(clock_trace[:1]) + clock_trace[1:]  # sanity
        assert len(finished) >= n

    @settings(max_examples=30, deadline=None)
    @given(
        until=st.floats(min_value=0.5, max_value=100),
        delays=st.lists(st.floats(0.1, 200), min_size=1, max_size=20),
    )
    def test_run_until_never_overshoots(self, until, delays):
        env = Environment()
        fired = []
        for delay in delays:
            env.timeout(delay).add_callback(lambda _e: fired.append(env.now))
        env.run(until=until)
        assert env.now == until
        assert all(t <= until for t in fired)
        # the stop event is urgent, so (as in SimPy) events scheduled at
        # exactly `until` are NOT processed; strictly-earlier ones are
        expected = sorted(d for d in delays if d < until)
        assert sorted(fired) == expected
