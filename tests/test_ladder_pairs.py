"""``scripts/ladder_pairs.py``'s verdict: 9 of 10 pairs and beyond the
base's quartile spread make a gain; a median worse than the bound is
named; more failed operations or a base spread wider than the bound
rule a gain out."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).parent.parent / "scripts" / "ladder_pairs.py"


def load():
    spec = importlib.util.spec_from_file_location("ladder_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = load()
BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]


def test_ten_wins_beyond_the_spread_are_a_gain():
    change = [b + 5.0 for b in BASE]
    v = pairs.verdict(BASE, change, "higher", 0.25)
    assert (v.wins, v.pairs, v.verdict) == (10, 10, "gain")
    assert v.base_median == 100.0 and v.change_median == 105.0
    assert v.gain == pytest.approx(0.05)


def test_lower_is_better_flips_the_direction():
    change = [b - 5.0 for b in BASE]
    assert pairs.verdict(BASE, change, "lower", 0.25).verdict == "gain"
    assert pairs.verdict(BASE, change, "higher", 0.25).gain == pytest.approx(-0.05)


def test_nine_of_ten_wins_are_enough_eight_are_not():
    change = [b + 5.0 for b in BASE]
    change[0] = BASE[0] - 1.0
    assert pairs.verdict(BASE, change, "higher", 0.25).wins == 9
    assert pairs.verdict(BASE, change, "higher", 0.25).verdict == "gain"
    change[1] = BASE[1]  # a tie is not a win
    v = pairs.verdict(BASE, change, "higher", 0.25)
    assert (v.wins, v.verdict) == (8, "no claim")


def test_a_median_gain_within_the_base_spread_is_no_claim():
    q1, q3 = pairs.quartiles(BASE)
    assert (q1, q3) == (99.375, 100.625)  # a spread of 1.25
    change = [b + 1.0 for b in BASE]  # wins every pair, but by less than q3 - q1
    v = pairs.verdict(BASE, change, "higher", 0.25)
    assert (v.wins, v.verdict) == (10, "no claim")


def test_fewer_than_ten_pairs_never_claim():
    change = [b + 50.0 for b in BASE[:9]]
    assert pairs.verdict(BASE[:9], change, "higher", 0.25).verdict == "no claim"


def test_a_median_worse_than_the_bound_is_named():
    change = [b * 0.7 for b in BASE]
    assert pairs.verdict(BASE, change, "higher", 0.25).verdict == "worse beyond bound"
    assert pairs.verdict(BASE, change, "higher", 0.35).verdict == "no claim"
    rss = [80.0] * 10
    assert pairs.verdict(rss, [89.0] * 10, "lower", 0.1).verdict == "worse beyond bound"
    assert pairs.verdict(rss, [87.0] * 10, "lower", 0.1).verdict == "no claim"


def test_more_failed_operations_refuse_a_gain():
    change = [b + 5.0 for b in BASE]
    none, one = [0] * 10, [0] * 9 + [1]
    assert pairs.verdict(BASE, change, "higher", 0.25, none, none).verdict == "gain"
    assert pairs.verdict(BASE, change, "higher", 0.25, one, one).verdict == "gain"
    v = pairs.verdict(BASE, change, "higher", 0.25, none, one)
    assert (v.wins, v.verdict) == (10, "more failures")
    # Fewer failures than the base are no obstacle.
    assert pairs.verdict(BASE, change, "higher", 0.25, one, none).verdict == "gain"


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    q1, q3 = pairs.quartiles(wide)
    assert q3 - q1 > 0.25 * 100.0
    # A change that wins every pair but overlaps the base's runs ...
    change = [b + 50.0 for b in wide]
    assert pairs.verdict(wide, change, "higher", 0.25).verdict == "unresolved"
    # ... and one no better, whose median is worse beyond the bound.
    assert pairs.verdict(wide, [b * 0.7 for b in wide], "higher", 0.25).verdict == (
        "unresolved"
    )
    # Every change run beats every base run: the spread cannot hide that.
    above = [b + 100.0 for b in wide]
    assert pairs.verdict(wide, above, "higher", 0.25).verdict == "gain"
    below = [b - 100.0 for b in wide]
    assert pairs.verdict(wide, below, "lower", 0.25).verdict == "gain"
    # The same runs under a looser bound are resolved.
    assert pairs.verdict(wide, change, "higher", 0.5).verdict == "gain"


def test_the_sides_must_pair_up():
    with pytest.raises(ValueError):
        pairs.verdict(BASE, BASE[:5], "higher", 0.25)
    with pytest.raises(ValueError):
        pairs.verdict([], [], "higher", 0.25)
