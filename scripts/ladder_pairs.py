#!/usr/bin/env python3
"""Alternating before/after pairs of one benchmark workload, with a verdict.

    python scripts/ladder_pairs.py BASE CHANGE --workload W [--pairs 10]
        [--seed 3201] [--out BENCH_PAIRS.json]

Exports the two git revs (``git archive``: clean trees of the tracked
files) into two directories whose paths have the same length -- the
length of the export path alone has moved a timing by 14 % -- and runs
the benchmark's own ``benchmarks/ladder/run.py --workload W --trace 0``
from each, unchanged, for the benchmark's ``run_seconds``.  Pair ``i``
runs both sides with seed ``--seed + i``, the base first in even pairs
and the change first in odd ones, so a drift of the host over the
session falls on both sides.
``BASE`` and ``CHANGE`` may name the same rev: that is the control pair
that shows what the host alone does.

Prints every pair's end-to-end metrics, then for each metric (its
direction and bound from ``BENCHMARK.json``) the medians and quartiles
of both sides, the pairs the change won, and the first verdict that
holds:

* ``more failures`` -- the change's runs failed more operations in
  total than the base's (no gain counts then);
* ``unresolved`` -- the base's runs spread too widely to tell: the
  distance between its quartiles is more than the metric's bound times
  its median, and not every change run beats every base run;
* ``gain`` -- the change won at least 9 of every 10 pairs (and there
  were at least 10) and its median is better than the base's by more
  than the distance between the base's quartiles;
* ``worse beyond bound`` -- its median is worse than the base's by more
  than the metric's relative bound;
* ``no claim`` -- none of these.

With ``--out FILE`` the session is also appended to the ledger
``FILE`` (the committed one is ``BENCH_PAIRS.json``): a JSON list with
one object per session, one line each, holding the two revs (as given
and resolved), the workload, the seeds, which side ran first, each
pair's value per metric, the failed operations, each run's host speed
and each metric's verdict.  Entries are only ever appended, and an
append changes no byte before the closing ``]``; a claim cites its
entry by its index in the list.

Exit 0 when every run produced its result, 1 when one did not.  The
exports are made under ``$TMPDIR`` and removed afterwards.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from statistics import median, quantiles
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: A gain must win this share of the pairs (9 of 10) ...
MIN_WIN_SHARE = 0.9
#: ... over at least this many pairs.
MIN_PAIRS = 10


class Verdict(NamedTuple):
    better: str
    pairs: int
    wins: int
    base_median: float
    base_quartiles: Tuple[float, float]
    change_median: float
    change_quartiles: Tuple[float, float]
    #: The change's median relative to the base's, signed so that a
    #: positive value is better.
    gain: float
    verdict: str


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, q3


def verdict(
    base: List[float],
    change: List[float],
    better: str,
    bound: float,
    base_failed: Sequence[int] = (),
    change_failed: Sequence[int] = (),
) -> Verdict:
    """Judge paired runs of one metric: ``base[i]`` and ``change[i]``
    ran in the same pair; ``better`` is ``"higher"`` or ``"lower"``;
    ``bound`` is the relative worsening the metric is allowed;
    ``base_failed`` / ``change_failed`` are each run's failed
    operations (none when left empty)."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    b_median, c_median = median(base), median(change)
    b_q1, b_q3 = quartiles(base)
    improvement = sign * (c_median - b_median)
    gain = improvement / abs(b_median) if b_median else 0.0
    pairs = len(base)
    beats_every_base_run = min(sign * c for c in change) > max(sign * b for b in base)
    if sum(change_failed) > sum(base_failed):
        outcome = "more failures"
    elif b_q3 - b_q1 > bound * abs(b_median) and not beats_every_base_run:
        outcome = "unresolved"
    elif (
        pairs >= MIN_PAIRS
        and wins >= MIN_WIN_SHARE * pairs
        and improvement > b_q3 - b_q1
    ):
        outcome = "gain"
    elif -gain > bound:
        outcome = "worse beyond bound"
    else:
        outcome = "no claim"
    return Verdict(
        better, pairs, wins, b_median, (b_q1, b_q3), c_median, quartiles(change),
        gain, outcome,
    )


def export(rev: str, dest: str) -> None:
    """Write the tree of ``rev`` to ``dest`` (tracked files only)."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def resolve(rev: str) -> str:
    """The commit id ``rev`` names."""
    return subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.strip()


def run_once(tree: str, workload: str, seed: int, seconds: float) -> Optional[dict]:
    """One ``run.py`` run from ``tree``: its closing JSON line plus the
    run's ``host_speed`` (from its ``--out`` detail), or None when it
    exited non-zero (a failed output check included)."""
    detail_path = os.path.join(tree, "pairs-detail.json")
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(tree, "benchmarks", "ladder", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
            "--out", detail_path,
        ],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        print(f"  run from {tree} exited {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    with open(detail_path) as handle:
        result["host_speed"] = json.load(handle)["host_speed"]
    os.remove(detail_path)
    return result


def read_ledger(path: str) -> List[dict]:
    """The entries of the ledger at ``path`` (none when it is absent)."""
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return json.load(handle)


def append_to_ledger(path: str, entry: dict) -> int:
    """Append ``entry`` to the ledger at ``path``; returns its index.

    One entry a line.  An entry after the first opens its line with the
    separating comma, so an append rewrites only the closing ``]`` line
    and every earlier byte stays as it was.
    """
    text = "[\n]\n"  # an absent ledger reads as an empty one
    if os.path.exists(path):
        with open(path) as handle:
            text = handle.read()
    index = len(json.loads(text))
    if not text.endswith("\n]\n"):
        raise ValueError(f"{path} does not end in a closing ']' line")
    text = text[: -len("]\n")] + ("," if index else "")
    text += json.dumps(entry, sort_keys=True) + "\n]\n"
    with open(path + ".tmp", "w") as handle:
        handle.write(text)
    os.replace(path + ".tmp", path)
    return index


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=3201)
    parser.add_argument("--out", help="append the session to this ledger (JSON)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    workdir = tempfile.mkdtemp(prefix="ladder-pairs-")
    # Same parent, same-length names: the two paths differ in one letter.
    trees = {"base": os.path.join(workdir, "a"), "change": os.path.join(workdir, "b")}
    values: Dict[str, Dict[str, List[float]]] = {side: {} for side in trees}
    failed: Dict[str, List[int]] = {side: [] for side in trees}
    speeds: Dict[str, List[float]] = {side: [] for side in trees}
    seeds: List[int] = []
    firsts: List[str] = []
    ok = True
    try:
        revs = {"base": resolve(args.base), "change": resolve(args.change)}
        export(revs["base"], trees["base"])
        export(revs["change"], trees["change"])
        print(
            f"# {args.workload}: {args.base} (base) vs {args.change} (change), "
            f"{args.pairs} pairs of {seconds:g} s"
        )
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            results = {
                side: run_once(trees[side], args.workload, seed, seconds)
                for side in order
            }
            print(f"pair {i + 1:2d}  seed {seed}  {order[0]} first")
            if any(result is None for result in results.values()):
                ok = False
                continue
            seeds.append(seed)
            firsts.append(order[0])
            for side in trees:
                result = results[side]
                cells = []
                for metric in metrics:
                    value = result["metrics"][metric["name"]]["value"]
                    values[side].setdefault(metric["name"], []).append(value)
                    cells.append(f"{metric['name']}={value:.4g}")
                failed[side].append(result["failed"])
                speeds[side].append(result["host_speed"]["median"])
                cells.append(f"failed {result['failed']}/{result['attempted']}")
                print(f"  {side:6s}  " + "  ".join(cells), flush=True)
                ok = ok and result["correct"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    verdicts: Dict[str, dict] = {}
    print(
        f"{'metric':20s} {'better':6s}  {'base median [q1, q3]':32s}  "
        f"{'change median [q1, q3]':32s}  {'wins':6s}  {'change':>7s}  verdict"
    )
    for metric in metrics:
        name = metric["name"]
        base, change = values["base"].get(name), values["change"].get(name)
        if not base or not change:
            continue
        v = verdict(
            base, change, metric["better"], metric["bound"],
            failed["base"], failed["change"],
        )
        sides = [
            f"{middle:.6g} [{q1:.6g}, {q3:.6g}]"
            for middle, (q1, q3) in (
                (v.base_median, v.base_quartiles),
                (v.change_median, v.change_quartiles),
            )
        ]
        print(
            f"{name:20s} {v.better:6s}  {sides[0]:32s}  {sides[1]:32s}  "
            f"{f'{v.wins}/{v.pairs}':6s}  {v.gain:+7.1%}  {v.verdict}"
        )
        verdicts[name] = v._asdict()
    if args.out:
        index = append_to_ledger(args.out, {
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": sys.version.split()[0],
            "base": args.base,
            "base_rev": revs["base"],
            "change": args.change,
            "change_rev": revs["change"],
            "workload": args.workload,
            "run_seconds": seconds,
            "seeds": seeds,
            "first": firsts,
            "values": values,
            "failed": failed,
            "host_speed": speeds,
            "verdicts": verdicts,
            "complete": ok,
        })
        print(f"appended as entry {index} of {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
