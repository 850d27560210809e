"""The worker's control pipe under arbitrary messages.

A worker answers every parent message with ``_control_step``.  Whatever
arrives -- a non-tuple, an unknown or private op name, the wrong arity,
the wrong types, huge or negative numbers -- the answer is
``("ok", value)`` or ``("error", text)``, and the worker's lock table
stays whole and keeps granting.  The partition is wired as
``_worker_main`` wires it (MAXLOCKS read back from the partition every
``refresh_period_requests``), in this process, with a stand-in for the
borrow pipe that grants every block asked for.
"""

import pickle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.params import TuningParameters
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.modes import LockMode
from repro.net.server import ServiceBackend, ThreadedLockServer
from repro.service.clock import MonotonicClock
from repro.service.service import LockService
from repro.service.workers import _control_step, _WorkerPartition

REFRESH = TuningParameters().refresh_period_requests


def worker_partition(path: str) -> _WorkerPartition:
    """A worker's partition and service, its server built but not started."""
    service = LockService(
        LockBlockChain(initial_blocks=2), clock=MonotonicClock()
    )
    server = ThreadedLockServer(ServiceBackend(service, name="worker0"), path=path)
    part = _WorkerPartition(0, service, server, None)
    manager = service.manager
    manager.growth_provider = lambda blocks_wanted: blocks_wanted
    manager.maxlocks_provider = lambda: part.maxlocks_fraction
    manager.refresh_period = REFRESH
    manager.refresh_maxlocks()
    return part


NUMBERS = st.integers(-(2**70), 2**70) | st.floats()
VALUES = (
    st.none() | st.booleans() | NUMBERS | st.text(max_size=6)
    | st.binary(max_size=6)
)
ARGS = st.lists(
    VALUES | st.lists(VALUES, max_size=3) | st.tuples(VALUES), max_size=3
)
#: The partition's ops (``close`` ends the loop, so it is left out),
#: attributes that are not ops, and any other name.
OP_NAMES = st.sampled_from(
    sorted(_WorkerPartition.OPS - {"close", "add_blocks"})
    + ["reboot", "service", "server", "posture", "chain", "__class__", "_metrics"]
) | st.text(max_size=10)
MESSAGES = st.one_of(
    st.builds(lambda op, args: (op, *args), OP_NAMES, ARGS),
    # add_blocks really allocates what it is granted, so its counts stay
    # small here; the parent grants only blocks the registry holds.
    st.builds(
        lambda args: ("add_blocks", *args),
        st.lists(st.integers(-(2**70), 8) | VALUES.filter(
            lambda v: not isinstance(v, int)
        ), max_size=2),
    ),
    VALUES,
    st.lists(VALUES, max_size=3),
    st.just(()),
)


class TestControlStep:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(MESSAGES, max_size=8))
    # A MAXLOCKS push above 1 once failed every lock request of the
    # worker from its next refresh on; one below 0 and a NaN likewise.
    @example([("set_maxlocks", 7.0)])
    @example([("set_maxlocks", -0.5)])
    @example([("set_maxlocks", float("nan"))])
    @example([("set_maxlocks", "0.5")])
    def test_every_message_is_answered_and_the_worker_keeps_granting(
        self, tmp_path_factory, messages
    ):
        part = worker_partition(str(tmp_path_factory.mktemp("w") / "w.sock"))
        service = part.service
        for msg in messages:
            reply = _control_step(part, msg)
            assert reply[0] in ("ok", "error"), (msg, reply)
            if reply[0] == "error":
                assert isinstance(reply[1], str)
            pickle.dumps(reply)  # it crosses the pipe
        assert part.check() == part.chain.block_count
        assert 0.0 < service.manager.maxlocks_fraction <= 1.0
        # Past the next MAXLOCKS refresh, one-row sessions still grant.
        for row in range(REFRESH + 1):
            app = service.open_session()
            service.lock_row(app, 1, row, LockMode.X)
            service.close_session(app)
        assert service.stats.failures == 0

    def test_a_refused_maxlocks_push_keeps_the_old_fraction(self, tmp_path):
        part = worker_partition(str(tmp_path / "w.sock"))
        assert _control_step(part, ("set_maxlocks", 0.5)) == ("ok", True)
        tag, text = _control_step(part, ("set_maxlocks", 7.0))
        assert tag == "error" and "not in (0, 1]" in text
        assert part.maxlocks_fraction == 0.5
        assert part.service.manager.maxlocks_fraction == 0.5
