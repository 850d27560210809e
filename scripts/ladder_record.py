#!/usr/bin/env python3
"""Write the committed perf record, ``BENCH_LADDER.json``, for a git rev.

    python scripts/ladder_record.py [REV] [--out PATH]

Refuses to run while this checkout has uncommitted changes to tracked
files: the record is committed next to the code it measured, so it must
name a rev that is exactly that code.  Exports ``REV`` (default
``HEAD``) from git into a temporary directory (``git archive``: a clean
tree of the tracked files, nothing left in ``.git``), runs the
benchmark suite there -- ``benchmarks/ladder/run.py --out``, every
workload at ``--trace 0`` and ``--trace 1``, each in a process of its
own -- and writes its output with two keys added on top: ``rev`` (the
full commit id) and ``python`` (the interpreter that ran it).
``run.py --compare OLD NEW`` reads only ``workloads``, so two records
compare directly.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE
    ).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument(
        "--out", default=os.path.join(ROOT, "BENCH_LADDER.json"), metavar="PATH"
    )
    args = parser.parse_args(argv)
    dirty = git("status", "--porcelain", "--untracked-files=no").decode()
    if dirty:
        print(
            "ladder-record: refusing: the tree has uncommitted changes\n" + dirty,
            file=sys.stderr,
        )
        return 2
    rev = git("rev-parse", "--verify", f"{args.rev}^{{commit}}").decode().strip()
    workdir = tempfile.mkdtemp(prefix="ladder-record-")
    try:
        tree = os.path.join(workdir, "tree")
        archive = io.BytesIO(git("archive", "--format=tar", rev))
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(tree)
        suite = os.path.join(workdir, "suite.json")
        status = subprocess.run(
            [
                sys.executable,
                os.path.join(tree, "benchmarks", "ladder", "run.py"),
                "--out", suite,
            ],
            cwd=tree,
        ).returncode
        if status:
            print(f"ladder-record: the suite exited {status}", file=sys.stderr)
            return status
        with open(suite) as handle:
            record = {"rev": rev, "python": sys.version.split()[0], **json.load(handle)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"ladder-record: {rev[:12]} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
