"""Property tests for LockObject's thin representation.

The object stores a sole holder inline, moves to a dict when a second
application joins, and keeps one packed int of per-mode holder counts.
None of that may show: after every step of a random request / release
/ pump sequence the object must agree with a plain ordered dict of
holders and the brute-force compatibility check over it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.des import Environment
from repro.errors import LockManagerError
from repro.lockmgr.locks import LockObject, Waiter
from repro.lockmgr.modes import COUNT_FIELD_MAX, LockMode, compatible, supremum
from repro.lockmgr.resources import table_resource

APPS = (1, 2, 3, 4, 5)
MODES = list(LockMode)

_apps = st.sampled_from(APPS)
OPS = st.one_of(
    st.tuples(st.just("request"), _apps, st.sampled_from(MODES)),
    st.tuples(st.just("request"), _apps, st.sampled_from(MODES)),
    st.tuples(st.just("release"), _apps),
    st.tuples(st.just("pump"), _apps),
)


def others_compatible(model, app, mode):
    """The oracle: every *other* holder's mode tolerates ``mode``."""
    return all(
        compatible(held, mode) for holder, held in model.items() if holder != app
    )


class Driver:
    """One lock object, requested of as the manager would, beside a
    model: holders as an insertion-ordered dict of app -> mode."""

    def __init__(self):
        self.env = Environment()
        self.obj = LockObject(table_resource(0))
        self.model = {}
        #: Representations and events seen, for the coverage test.
        self.seen = set()

    def step(self, op):
        kind, app = op[0], op[1]
        obj, model = self.obj, self.model
        queued = any(w.app_id == app for w in obj.waiters)
        if kind == "request" and not queued:
            mode = op[2]
            if app in model:
                if others_compatible(model, app, mode):
                    assert obj.upgrade_grant(app, mode) is obj.held_by(app)
                    model[app] = supremum(model[app], mode)
                else:
                    obj.enqueue(Waiter(app, mode, self.env.event(), converting=True))
                    self.seen.add("conversion queued")
            elif not obj.waiters and others_compatible(model, app, mode):
                assert obj.add_grant(app, mode) is obj.held_by(app)
                model[app] = mode
            else:
                obj.enqueue(Waiter(app, mode, self.env.event()))
                self.seen.add("request queued")
        elif kind == "release":
            obj.remove_waiter(app)
            if app in model:
                assert obj.remove_grant(app).mode is model.pop(app)
            self.pump()
        elif kind == "pump":
            self.pump()
        self.check()

    def pump(self):
        obj, model = self.obj, self.model
        for waiter in obj.pump():
            assert others_compatible(model, waiter.app_id, waiter.mode)
            if waiter.converting:
                model[waiter.app_id] = supremum(model[waiter.app_id], waiter.mode)
            else:
                model[waiter.app_id] = waiter.mode
        if obj.waiters:
            head = obj.waiters[0]
            assert not others_compatible(model, head.app_id, head.mode)

    def check(self):
        obj, model = self.obj, self.model
        obj.check_invariants()
        assert [held.app_id for held in obj.holders()] == list(model)
        for app in APPS + (99,):
            held = obj.held_by(app)
            assert (held.mode if held is not None else None) is model.get(app)
            assert obj.holder_mode(app) is model.get(app)
            for mode in MODES:
                assert obj.others_compatible(app, mode) == others_compatible(
                    model, app, mode
                ), (app, mode, model)
        assert obj.is_idle == (not model and not obj.waiters)
        if obj.sole is not None:
            self.seen.add("sole")
        elif not obj.shared:
            self.seen.add("nobody")
        else:
            self.seen.add("shared" if len(obj.shared) > 1 else "last survivor")


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, max_size=60))
def test_object_agrees_with_the_model_after_every_step(ops):
    driver = Driver()
    for op in ops:
        driver.step(op)


def test_the_sequences_reach_every_representation():
    """The generated regime is not vacuous: a long fixed walk through
    the same driver sees the sole holder, the shared dict, its last
    survivor, an emptied dict, and both kinds of queued request."""
    rng = random.Random(24)
    driver = Driver()
    for _ in range(2_000):
        kind = rng.choice(("request", "request", "release", "pump"))
        op = (kind, rng.choice(APPS))
        driver.step(op + (rng.choice(MODES),) if kind == "request" else op)
    assert driver.seen == {
        "sole", "shared", "last survivor", "nobody",
        "request queued", "conversion queued",
    }


def test_a_saturated_count_field_fails_the_invariant_check():
    """A field one short of full is the most the packed counts can
    tell from a carry into the next mode's field."""
    obj = LockObject(table_resource(0))
    for app in range(COUNT_FIELD_MAX - 1):
        obj.add_grant(app, LockMode.IS)
    obj.check_invariants()
    assert obj.others_compatible(-1, LockMode.IX)
    assert not obj.others_compatible(-1, LockMode.X)
    obj.add_grant(COUNT_FIELD_MAX, LockMode.IS)
    with pytest.raises(LockManagerError, match="saturated"):
        obj.check_invariants()
