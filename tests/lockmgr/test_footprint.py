"""Regression gate on what one held lock costs the interpreter.

Lock memory is the resource the system tunes; the bookkeeping for one
64-byte lock structure must not grow back to ten times that unnoticed.
Measured by ``scripts/lock_footprint.py`` (which see), through
``begin_lock_row``, the one grant path (two paths were measured until
it replaced the live service's own): 665 bytes and 5.2 collector-tracked objects per lock
before the thin lock objects, 369 and 3.0 with them, about 329 and 2.0
since a lock object is its first holder's grant, about 277 bytes with
1.0 object still tracked after a collection since a row is keyed by a
plain tuple and indexed once, 253 bytes and 2.0 tracked at allocation
since an uncontended lock is a grant word, 181 bytes and 1.0 (the
word) since a row's entry is filed by its table id and row id, with no
key object, and 63 bytes and 0.0 since an app's fresh grants in one
mode from one block share one word and its row index is a list of
ids.  Those figures are for 96 000 locks (``make footprint``).  At
this test's 20 000 locks a held lock cost 227 bytes with 1.0 object
still tracked before an uncontended lock became a grant word, not a
lock object, 203 bytes with none after that, 131 bytes since rows are
keyed by their ids (131.0-131.3 on CPython 3.10, 3.11 and 3.12), and
38.2 bytes with 0.0008 tracked since words are shared (CPython 3.11).
The bytes threshold is that figure plus 5 %, and the tracked one
leaves no room for a word per lock (+72 bytes, +1 tracked), a key
object per lock, a lock object per lock, or another dict entry per
lock (+55 bytes).
"""

import pathlib
import runpy

SCRIPT = pathlib.Path(__file__).parents[2] / "scripts" / "lock_footprint.py"
LOCKS = 20_000


def test_a_held_row_lock_stays_thin_and_leaves_nothing_behind():
    footprint = runpy.run_path(str(SCRIPT), run_name="footprint_under_test")
    cost = footprint["held_lock_cost"](LOCKS)
    assert cost.bytes_per_lock <= 40.2, cost.sites
    assert cost.tracked_per_lock <= 0.05, cost.sites
    # What every full collection walks: neither the grant word nor
    # its key.
    assert cost.surviving_per_lock <= 0.2, cost.sites
    # What outlives release_all is a constant (interned resources,
    # the lock table's spare slots), never a share of the locks taken.
    assert cost.residue_bytes <= 16_384
    assert cost.residue_tracked <= 16
    # The collections that empty the free lists free no cycle either.
    assert cost.cycles == 0
