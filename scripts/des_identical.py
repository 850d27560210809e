#!/usr/bin/env python3
"""Check that this checkout's simulation matches a git rev's, byte for byte.

    python scripts/des_identical.py REV [--parallel N] [--keep]

Exports ``REV`` from git into a temporary directory (``git archive``: a
clean tree of exactly the tracked files, nothing left in ``.git``), then
runs ``python -m repro.analysis.runner all`` on that export and on this
checkout -- the 14 paper experiments, each writing one report file --
and compares the two report directories (``diff -r``) and the two
stdout streams (``cmp``), and prints each side's wall time (run one
after the other, so a slower simulation shows).  It then runs
``runner fig11 --telemetry`` on both trees and compares the two JSONL
exports line by line, all but the one line that measures wall-clock
time (the ``lock.sync_growth.latency_s`` histogram).  Exit 0 when all
are identical, 1 when not.

A change to the lock table or the controller must leave the DES
untouched unless it means to change a figure; this is that check.  The
temporary directory is made under ``$TMPDIR`` and removed afterwards
unless ``--keep`` is given.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The one telemetry record timed by the wall clock, not the simulation.
WALL_CLOCK_HISTOGRAM = "lock.sync_growth.latency_s"


def export(rev: str, dest: str) -> None:
    """Write the tree of ``rev`` to ``dest`` (tracked files only)."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def runner(tree: str, out: str, stdout_name: str, *args: str) -> float:
    """``python -m repro.analysis.runner ARGS`` from ``tree``'s sources,
    run in ``out`` with stdout to ``out/STDOUT_NAME``.  Returns the wall
    time in seconds."""
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    started = time.perf_counter()
    with open(os.path.join(out, stdout_name), "wb") as stdout:
        subprocess.run(
            [sys.executable, "-m", "repro.analysis.runner", *args],
            check=True,
            cwd=out,
            env=env,
            stdout=stdout,
        )
    return time.perf_counter() - started


def run_all(tree: str, out: str, parallel: int) -> float:
    """``runner all``: reports in ``out/reports``, stdout in
    ``out/stdout.txt``."""
    return runner(
        tree, out, "stdout.txt",
        "all", "--parallel", str(parallel),
        "--out-dir", os.path.join(out, "reports"),
    )


def run_telemetry(tree: str, out: str) -> float:
    """``runner fig11 --telemetry``: the JSONL in ``out/fig11.jsonl``."""
    return runner(
        tree, out, "fig11-stdout.txt", "fig11", "--telemetry", "fig11.jsonl"
    )


def telemetry_mismatch(base: str, head: str) -> str:
    """Where two fig11 exports differ, ignoring the wall-clock histogram
    line; "" when they match."""
    def simulated(out: str):
        with open(os.path.join(out, "fig11.jsonl")) as handle:
            return [
                (number, line)
                for number, line in enumerate(handle, 1)
                if not line.startswith(
                    f'{{"kind":"histogram","name":"{WALL_CLOCK_HISTOGRAM}",'
                )
            ]

    base_lines, head_lines = simulated(base), simulated(head)
    for (number, old), (_, new) in zip(base_lines, head_lines):
        if old != new:
            return f"line {number} differs"
    if len(base_lines) != len(head_lines):
        return f"{len(base_lines)} vs {len(head_lines)} compared lines"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git rev to compare against, e.g. HEAD~1")
    parser.add_argument("--parallel", type=int, default=2, metavar="N")
    parser.add_argument(
        "--keep", action="store_true", help="keep the temporary directory"
    )
    args = parser.parse_args(argv)
    workdir = tempfile.mkdtemp(prefix="des-identical-")
    try:
        base_tree = os.path.join(workdir, "tree")
        export(args.rev, base_tree)
        base, head = os.path.join(workdir, "base"), os.path.join(workdir, "head")
        print(f"des-identical: runner all at {args.rev} ...", flush=True)
        base_s = run_all(base_tree, base, args.parallel)
        print("des-identical: runner all in this checkout ...", flush=True)
        head_s = run_all(ROOT, head, args.parallel)
        print(
            f"des-identical: runner all wall time {base_s:.1f} s at {args.rev}, "
            f"{head_s:.1f} s here"
        )
        print("des-identical: fig11 --telemetry on both ...", flush=True)
        run_telemetry(base_tree, base)
        run_telemetry(ROOT, head)
        telemetry = telemetry_mismatch(base, head)
        if telemetry:
            print(f"des-identical: fig11 telemetry: {telemetry}")
        reports = subprocess.run(
            ["diff", "-r", os.path.join(base, "reports"), os.path.join(head, "reports")]
        ).returncode
        stdout = subprocess.run(
            ["cmp", os.path.join(base, "stdout.txt"), os.path.join(head, "stdout.txt")]
        ).returncode
        count = len(os.listdir(os.path.join(head, "reports")))
        if reports or stdout or telemetry:
            print(f"des-identical: FAILED against {args.rev} ({count} reports)")
            return 1
        print(
            f"des-identical: OK -- {count} reports, stdout and fig11 "
            f"telemetry byte-identical to {args.rev}"
        )
        return 0
    finally:
        if args.keep:
            print(f"des-identical: kept {workdir}")
        else:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
