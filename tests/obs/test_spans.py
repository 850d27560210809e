"""The in-process sampled request: a trace with zero net hops.

``repro.obs.spans`` is gone.  What it called a span is a
:class:`~repro.obs.tracing.RequestTrace` whose only hop is
``server.lock_wait``, landed by ``LockService`` itself when the stack's
``trace_sample_every`` is set.  These are the span-era cases that still
describe it -- selection, a failed request, the ring bound -- driven
through a real stack; the tracer's own arithmetic is pinned in
``test_tracing.py``.
"""

import pytest

from repro.errors import ConfigurationError
from repro.lockmgr.manager import LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.service.stack import ServiceConfig, build_stack


def traced(every, requests):
    """A stack sampling 1-in-``every`` after ``requests`` row locks."""
    stack = build_stack(threads=2, trace_sample_every=every, tuner_interval_s=None)
    with stack.service.session() as app:
        for row in range(requests):
            stack.service.lock_row(app, 1, row, LockMode.S)
    return stack


class TestSampling:
    def test_one_in_n_selection(self):
        (tracer,) = traced(4, requests=12).request_tracers
        assert tracer.seen == 12
        assert [t["row"] for t in tracer.to_dicts()] == [3, 7, 11]

    def test_every_one_samples_all(self):
        (tracer,) = traced(1, requests=3).request_tracers
        assert [t["row"] for t in tracer.to_dicts()] == [0, 1, 2]

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError, match="trace_sample_every"):
            ServiceConfig(trace_sample_every=-1)
        with pytest.raises(ConfigurationError, match="trace_sample_every"):
            build_stack(threads=2, workers=1, trace_sample_every=-1)


class TestTimeline:
    def test_failed_request_retires_immediately(self):
        stack = build_stack(threads=2, trace_sample_every=1)
        service = stack.service
        with service.session() as holder, service.session() as waiter:
            service.lock_row(holder, 0, 7, LockMode.X)
            with pytest.raises(LockTimeoutError):
                service.lock_row(waiter, 0, 7, LockMode.X, timeout_s=0.01)
            # Landed by the failing call itself, not by a later release.
            granted, timed_out = stack.request_tracers[0].to_dicts()
        assert granted["outcome"] == "ok" and granted["app"] == holder
        assert timed_out["outcome"] == "LockTimeoutError"
        assert timed_out["app"] == waiter and timed_out["total_s"] >= 0.01
        assert timed_out["hops"] == {"server.lock_wait": timed_out["total_s"]}
        assert timed_out["wire_tax"] == 0.0
        assert stack.request_tracers[0].truncated == 0

    def test_ring_buffer_bounded(self):
        stack = traced(1, requests=300)
        (tracer,) = stack.request_tracers
        held = tracer.to_dicts()
        assert len(held) == tracer.capacity == 256
        assert [t["row"] for t in held] == list(range(44, 300))
        assert stack.ops_traces()["total"] == 300  # exact after wrap
