"""Tests for resource identifiers, focused on the hash contract.

ResourceId hashes must be pure functions of the id's *value*: sets of
resource ids sit on behaviour-relevant paths (e.g. an application's
held-lock set drains in iteration order at release), so a hash that
varied between processes -- as string hashes do under PYTHONHASHSEED
randomization -- would make the simulation's event order differ from
process to process at the same seed.
"""

import os
import subprocess
import sys

import pytest

from repro.lockmgr.resources import (
    ResourceId,
    ResourceKind,
    page_resource,
    row_resource,
    table_resource,
)


class TestValidation:
    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            row_resource(-1, 0)
        with pytest.raises(ValueError):
            row_resource(0, -1)
        with pytest.raises(ValueError):
            page_resource(0, -1)

    def test_kind_shape_enforced(self):
        with pytest.raises(ValueError):
            ResourceId(ResourceKind.TABLE, 1, row_id=2)
        with pytest.raises(ValueError):
            ResourceId(ResourceKind.ROW, 1)

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((ResourceKind.TABLE, -1), {}),
            ((ResourceKind.TABLE, 1), {"page_id": 2}),
            ((ResourceKind.PAGE, 1), {}),
            ((ResourceKind.PAGE, 1), {"page_id": 2, "row_id": 3}),
            ((ResourceKind.PAGE, 1), {"page_id": -2}),
            ((ResourceKind.ROW, 1), {"page_id": 2}),
            ((ResourceKind.ROW, 1), {"row_id": -3}),
        ],
    )
    def test_malformed_combinations_rejected(self, args, kwargs):
        with pytest.raises(ValueError):
            ResourceId(*args, **kwargs)

    def test_negative_table_id_rejected_for_tables(self):
        with pytest.raises(ValueError):
            table_resource(-1)

    def test_fields_read_back(self):
        row = row_resource(4, 9)
        assert (row.kind, row.table_id, row.page_id, row.row_id) == (
            ResourceKind.ROW, 4, None, 9,
        )
        assert row.is_row and not row.is_table
        page = page_resource(4, 2)
        assert (page.kind, page.page_id, page.row_id) == (ResourceKind.PAGE, 2, None)
        table = table_resource(4)
        assert table.is_table and not table.is_row
        assert row.table() is table and table.table() is table
        assert (repr(table), repr(page), repr(row)) == ("T4", "T4.P2", "T4.R9")


class TestImmutability:
    def test_no_attribute_can_be_set_or_added(self):
        row = row_resource(1, 2)
        for name in ("table_id", "row_id", "kind", "is_row", "anything"):
            with pytest.raises(AttributeError):
                setattr(row, name, 5)
        with pytest.raises(TypeError):
            row[1] = 5
        assert not hasattr(row, "__dict__")

    def test_table_resource_is_cached(self):
        assert table_resource(11) is table_resource(11)

    def test_copy_and_pickle_round_trip(self):
        import copy
        import pickle

        for res in (table_resource(3), page_resource(3, 1), row_resource(3, 7)):
            for clone in (copy.deepcopy(res), pickle.loads(pickle.dumps(res))):
                assert clone == res and type(clone) is ResourceId


class TestHashContract:
    def test_equal_values_equal_hashes(self):
        assert row_resource(3, 7) == row_resource(3, 7)
        assert hash(row_resource(3, 7)) == hash(row_resource(3, 7))
        assert row_resource(3, 7) != row_resource(3, 8)
        assert table_resource(3) != row_resource(3, 7)

    def test_hash_is_the_hash_of_the_plain_int_tuple(self):
        # The value-pure key every earlier revision hashed: (kind code,
        # table, page or -1, row or -1).  Keeping it is what keeps every
        # set/dict of resource ids -- and so every DES event order --
        # where it was.
        assert hash(table_resource(5)) == hash((0, 5, -1, -1))
        assert hash(page_resource(5, 2)) == hash((1, 5, 2, -1))
        assert hash(row_resource(5, 9)) == hash((2, 5, -1, 9))

    def test_set_iteration_order_is_that_of_the_plain_keys(self):
        # A fixed insert/discard history must leave a set of resource
        # ids iterating exactly like the same history over their plain
        # key tuples (the order the held-lock sets drain in at release).
        ids = [table_resource(t) for t in (0, 3, 1)] + [
            row_resource(t, r) for t in (0, 3, 1) for r in (7, 50_000, 12, 0, 33)
        ]
        resources, keys = set(), set()
        for res in ids:
            resources.add(res)
            keys.add(tuple(res))
        for res in ids[2::3]:
            resources.discard(res)
            keys.discard(tuple(res))
        for res in ids[2::6]:
            resources.add(res)
            keys.add(tuple(res))
        assert [tuple(res) for res in resources] == list(keys)
        assert sorted(resources) == sorted(resources, key=tuple)

    def test_hash_stable_across_hash_seeds(self):
        # A subprocess with a different PYTHONHASHSEED must compute the
        # same hashes; if this fails, set-of-ResourceId iteration order
        # (and with it event ordering) depends on the process.
        ids = "hash(table_resource(5)), hash(row_resource(5, 9)), hash(page_resource(5, 2))"
        script = f"from repro.lockmgr.resources import *; print([{ids}])"

        def run(hash_seed):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            return subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            ).stdout

        assert run("0") == run("12345")

    def test_plain_tuple_hash_holds_under_another_hash_seed(self):
        script = (
            "from repro.lockmgr.resources import row_resource; "
            "print(hash(row_resource(5, 9)) == hash((2, 5, -1, 9)))"
        )
        env = dict(os.environ, PYTHONHASHSEED="4242")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        assert out.strip() == "True"
