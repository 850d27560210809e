"""Checks of the benchmark itself (``pytest benchmarks/ladder -q``).

Outside tier-1: ``pyproject.toml`` collects ``tests/`` only.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import stats  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def test_script_is_a_function_of_the_seed():
    first, again = workloads.make_script(17, 200), workloads.make_script(17, 200)
    other = workloads.make_script(18, 200)
    assert first.sha256 == again.sha256 and first.txns == again.txns
    assert first.sha256 != other.sha256
    assert first.requests == sum(len(txn) for txn in first.txns)


def test_surge_slot_count_does_not_depend_on_the_seed():
    for seed in (17, 18):
        rows = workloads.make_surge_rows(seed, sessions=3, locks=500)
        assert all(len(set(session)) == 500 for session in rows)
        assert all({table for table, _ in session} == set(range(10)) for session in rows)
    assert workloads.make_surge_rows(17, 3, 500) != workloads.make_surge_rows(18, 3, 500)


def test_percentiles():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.50) == 51
    assert stats.percentile(values, 0.99) == 100
    assert stats.percentile(values, 0.0) == 1
    assert stats.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    # the highest percentile that keeps >= 10 samples beyond it
    assert stats.tail_quantile(999) is None
    assert stats.tail_quantile(1_000) == 0.99
    assert stats.tail_quantile(10_000) == pytest.approx(0.999)
    assert stats.tail_quantile(99_999) == pytest.approx(0.999)
    assert stats.summarize([3.0, 1.0, 2.0]) == {
        "value": 2.0, "median": 2.0, "min": 1.0, "max": 3.0, "windows": 3,
    }
    assert stats.spread([90.0, 100.0, 120.0]) == pytest.approx(0.3)


def test_best_decile_window():
    windows = [float(v) for v in range(40, 0, -1)]  # 40 windows, any order
    assert stats.best(windows, "lower") == 5.0  # four windows cost less
    assert stats.best(windows, "higher") == 36.0  # four windows ran faster
    assert stats.best([7.0], "lower") == stats.best([7.0], "higher") == 7.0
    # a stall that spares a quarter of the windows does not move it
    stalled = [v * 3 for v in windows[:30]] + windows[30:]
    assert stats.best(stalled, "lower") == 5.0
    assert stats.summarize(stalled, "lower")["value"] == 5.0
    assert stats.summarize(stalled)["value"] == stats.summarize(stalled)["median"]


def test_span_self_time_is_duration_minus_children():
    log = stats.SpanLog(("txn", "open", "lock"))
    root = log.open(0, 10.0)
    log.add(1, 10.0, 11.0, root)  # open: 1 s
    log.add(2, 11.5, 13.5, root)  # lock: 2 s
    log.add(2, 14.0, 15.0, root)  # lock: 1 s
    log.close(root, 16.0)  # txn: 6 s, of which children cover 4
    totals = log.self_times()
    assert totals["txn"] == (1, pytest.approx(2.0))
    assert totals["open"] == (1, pytest.approx(1.0))
    assert totals["lock"] == (2, pytest.approx(3.0))
    assert stats.mean_us(totals, "lock") == pytest.approx(1.5e6)
    assert stats.mean_us(totals, "absent") == 0.0
    assert log.intervals("lock") == [(11.5, 13.5), (14.0, 15.0)]


def test_handoff_pairs_a_wait_with_the_release_that_ended_it():
    releases = [1.0, 5.0, 9.0]
    waits = [
        (0.5, 1.25),  # pending over the release at 1.0: 0.25 s hand-off
        (2.0, 2.1),  # the lock was free: no release in between
        (4.0, 9.5),  # two releases while pending: the last one counts
    ]
    assert stats.handoffs(waits, releases) == pytest.approx([0.25, 0.5])


def test_compare_verdicts():
    def summary(lo, mid, hi):
        return {"value": mid, "median": mid, "min": lo, "max": hi, "windows": 5}

    base = summary(95, 100, 105)
    assert stats.verdict(base, summary(99, 104, 109), "higher", 0.10) == stats.WITHIN
    assert stats.verdict(base, summary(120, 125, 130), "higher", 0.10) == stats.BETTER
    assert stats.verdict(base, summary(70, 75, 80), "higher", 0.10) == stats.WORSE
    assert stats.verdict(base, summary(120, 125, 130), "lower", 0.10) == stats.WORSE
    # values 20 % apart but the window ranges overlap: noise could explain it
    assert stats.verdict(base, summary(90, 120, 140), "higher", 0.10) == stats.UNRESOLVED


def test_benchmark_json_is_within_the_contract():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and unit.match(metric["unit"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and unit.match(metric["unit"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 12) < 3420


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_emits_every_declared_metric(workload, trace):
    done = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "17",
                           "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr + done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, metric["name"]
    assert not os.path.exists(os.path.join(HERE, ".run")), "socket directory left behind"


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    """The driver also runs the command in a directory that holds only
    BENCHMARK.json and the benchmark's own files."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ladder",
        ignore=shutil.ignore_patterns("__pycache__", ".run"),
    )
    done = subprocess.run(
        SPEC["command"] + ["--workload", "churn_inproc", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
