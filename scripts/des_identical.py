#!/usr/bin/env python3
"""Check that this checkout's simulation matches a git rev's, byte for byte.

    python scripts/des_identical.py REV [--parallel N] [--keep]

Exports ``REV`` from git into a temporary directory (``git archive``: a
clean tree of exactly the tracked files, nothing left in ``.git``), then
runs ``python -m repro.analysis.runner all`` on that export and on this
checkout -- the 14 paper experiments, each writing one report file --
and compares the two report directories (``diff -r``) and the two
stdout streams (``cmp``), and prints each side's wall time (run one
after the other, so a slower simulation shows).  Exit 0 when both are
identical, 1 when not.

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


def export(rev: str, dest: str) -> None:
    """Write the tree of ``rev`` to ``dest`` (tracked files only)."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def run_all(tree: str, out: str, parallel: int) -> float:
    """``runner all`` from ``tree``'s sources: reports in ``out/reports``,
    stdout in ``out/stdout.txt``.  Returns the wall time in seconds."""
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    started = time.perf_counter()
    with open(os.path.join(out, "stdout.txt"), "wb") as stdout:
        subprocess.run(
            [
                sys.executable, "-m", "repro.analysis.runner", "all",
                "--parallel", str(parallel),
                "--out-dir", os.path.join(out, "reports"),
            ],
            check=True,
            cwd=out,
            env=env,
            stdout=stdout,
        )
    return time.perf_counter() - started


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
        reports = subprocess.run(
            ["diff", "-r", os.path.join(base, "reports"), os.path.join(head, "reports")]
        ).returncode
        stdout = subprocess.run(
            ["cmp", os.path.join(base, "stdout.txt"), os.path.join(head, "stdout.txt")]
        ).returncode
        count = len(os.listdir(os.path.join(head, "reports")))
        if reports or stdout:
            print(f"des-identical: FAILED against {args.rev} ({count} reports)")
            return 1
        print(
            f"des-identical: OK -- {count} reports and stdout byte-identical "
            f"to {args.rev}"
        )
        return 0
    finally:
        if args.keep:
            print(f"des-identical: kept {workdir}")
        else:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
