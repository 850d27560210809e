"""``scripts/ladder_pairs.py``'s verdict: 9 of 10 pairs and beyond the
base's quartile spread make a gain; a median worse than the bound is
named; more failed operations or a base spread wider than the bound
rule a gain out.  Its ``--out`` ledger gains one entry a session and
keeps every earlier byte but the closing ``]`` line."""

import importlib.util
import json
import os
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


SPEC = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())


def fake_session(monkeypatch, change_delta):
    """Stand in for git and the benchmark: each run reports every
    end-to-end metric as ``100 + seed % 10``, plus ``change_delta`` on
    the change's side, at host speed 0.9 with no failed operation."""
    monkeypatch.setattr(pairs, "resolve", lambda rev: f"{rev:0<40}")
    monkeypatch.setattr(pairs, "export", lambda rev, dest: os.makedirs(dest))

    def run_once(tree, workload, seed, seconds):
        value = 100.0 + seed % 10 + (change_delta if tree.endswith("b") else 0.0)
        metrics = {m["name"]: {"value": value} for m in SPEC["end_to_end"]}
        return {
            "correct": True, "attempted": 40, "failed": 0,
            "host_speed": {"median": 0.9}, "metrics": metrics,
        }

    monkeypatch.setattr(pairs, "run_once", run_once)


def test_out_appends_one_entry_a_session(tmp_path, monkeypatch, capsys):
    ledger = str(tmp_path / "BENCH_PAIRS.json")
    fake_session(monkeypatch, change_delta=20.0)
    argv = ["aaa", "bbb", "--workload", "surge_inproc", "--out", ledger]
    assert pairs.main(argv) == 0
    assert "appended as entry 0 of" in capsys.readouterr().out
    (entry,) = pairs.read_ledger(ledger)
    assert (entry["base"], entry["change"]) == ("aaa", "bbb")
    assert entry["base_rev"] == "aaa".ljust(40, "0")
    assert entry["workload"] == "surge_inproc" and entry["complete"]
    assert entry["run_seconds"] == SPEC["run_seconds"]
    assert entry["seeds"] == list(range(3201, 3211))
    assert entry["first"] == ["base", "change"] * 5
    assert entry["values"]["base"]["lock_rps"] == [100.0 + s % 10 for s in entry["seeds"]]
    assert entry["failed"] == {"base": [0] * 10, "change": [0] * 10}
    assert entry["host_speed"] == {"base": [0.9] * 10, "change": [0.9] * 10}
    assert set(entry["verdicts"]) == {m["name"] for m in SPEC["end_to_end"]}
    rps = entry["verdicts"]["lock_rps"]
    assert (rps["verdict"], rps["wins"], rps["pairs"]) == ("gain", 10, 10)
    assert entry["verdicts"]["peak_rss_mib"]["verdict"] == "worse beyond bound"
    first = open(ledger).read()

    # A second session is appended; the first entry's line stays as it was.
    fake_session(monkeypatch, change_delta=0.0)
    argv = ["ccc", "ddd", "--workload", "churn_inproc", "--pairs", "4", "--out", ledger]
    assert pairs.main(argv) == 0
    entries = pairs.read_ledger(ledger)
    assert [e["workload"] for e in entries] == ["surge_inproc", "churn_inproc"]
    assert entries[0] == entry
    assert entries[1]["verdicts"]["lock_rps"]["verdict"] == "no claim"
    assert open(ledger).read().startswith(first[: -len("]\n")] + ",")


def test_an_append_changes_no_earlier_byte(tmp_path):
    ledger = str(tmp_path / "BENCH_PAIRS.json")
    # The layout the ledger had before entries opened with the comma.
    with open(ledger, "w") as handle:
        handle.write('[\n{"n": 0},\n{"n": 1}\n]\n')
    before = open(ledger).read()
    assert pairs.append_to_ledger(ledger, {"n": 2}) == 2
    after_one = open(ledger).read()
    assert pairs.append_to_ledger(ledger, {"n": 3}) == 3
    after_two = open(ledger).read()
    # Only the closing "]" line is rewritten, each time.
    assert after_one.startswith(before[: -len("]\n")])
    assert after_two.startswith(after_one[: -len("]\n")])
    assert after_two.endswith('{"n": 1}\n,{"n": 2}\n,{"n": 3}\n]\n')
    assert pairs.read_ledger(ledger) == [{"n": n} for n in range(4)]
    # A fresh ledger's first entry has no comma.
    fresh = str(tmp_path / "fresh.json")
    assert pairs.append_to_ledger(fresh, {"n": 0}) == 0
    assert open(fresh).read() == '[\n{"n": 0}\n]\n'


def test_without_out_nothing_is_written(tmp_path, monkeypatch):
    fake_session(monkeypatch, change_delta=1.0)
    monkeypatch.chdir(tmp_path)
    assert pairs.main(["aaa", "bbb", "--workload", "churn_inproc", "--pairs", "2"]) == 0
    assert os.listdir(tmp_path) == []
