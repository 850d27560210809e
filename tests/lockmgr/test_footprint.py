"""Regression gate on what one held lock costs the interpreter.

Lock memory is the resource the system tunes; the bookkeeping for one
64-byte lock structure must not grow back to ten times that unnoticed.
Measured by ``scripts/lock_footprint.py`` (which see): 665 bytes and
5.2 collector-tracked objects per lock before the thin lock objects,
about 370 and 3.0 since.  The thresholds leave room for CPython
3.10-3.12 object layouts, not for another dict or list per lock.
"""

import pathlib
import runpy

SCRIPT = pathlib.Path(__file__).parents[2] / "scripts" / "lock_footprint.py"
LOCKS = 20_000


def test_a_held_row_lock_stays_thin_and_leaves_nothing_behind():
    footprint = runpy.run_path(str(SCRIPT), run_name="footprint_under_test")
    cost = footprint["held_lock_cost"](LOCKS)
    assert cost.bytes_per_lock <= 420, cost.sites
    assert cost.tracked_per_lock <= 3.5, cost.sites
    # What outlives release_all is a constant (the spare row-count
    # bucket, interned resources), never a share of the locks taken.
    assert cost.residue_bytes <= 16_384
    assert cost.residue_tracked <= 16
