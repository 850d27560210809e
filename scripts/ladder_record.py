#!/usr/bin/env python3
"""Write the committed perf record, ``BENCH_LADDER.json``, for a git rev.

    python scripts/ladder_record.py [REV] [--out PATH]

Refuses to run while this checkout has uncommitted changes to tracked
files: the record is committed next to the code it measured, so it must
name a rev that is exactly that code.  Exports ``REV`` (default
``HEAD``) from git into a temporary directory (``git archive``: a clean
tree of the tracked files, nothing left in ``.git``), runs each
workload of the benchmark there -- ``benchmarks/ladder/run.py
--workload W --trace 0|1 --out``, each in a process of its own, as the
suite does -- and writes their output merged as the suite merges it,
with two keys added on top: ``rev`` (the full commit id) and ``python``
(the interpreter that ran it).  ``run.py --compare OLD NEW`` reads only
``workloads``, so two records compare directly.

Refuses, too, to write a record taken on a slow host.  A workload whose
host speed (``host_speed`` median of its ``--trace 0`` run, the ratio of
the host's speed during the run to the reference the ladder scales to)
is below ``MIN_HOST_SPEED`` is run again, alone, up to ``MAX_ATTEMPTS``
times in all; the workloads that passed are kept.  When one still runs
slow, it names the workload and exits 3 without touching ``--out``.
The scaling corrects a slow host only in part, so such a record would
misstate the code; run it again later.

Once the record is written, prints it against the oldest of the last
three committed records (``git log -- BENCH_LADDER.json``, read with
``git show``), through ``benchmarks/ladder/run.py --compare`` with the
bounds of ``BENCHMARK.json``: drift over three records shows there,
where one record against the last hides it.  Fewer committed records:
against the oldest there is; none: nothing to compare.
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
#: Below this host speed on any workload, no record is written.
MIN_HOST_SPEED = 0.8
#: Runs of one workload, the first included, before a slow host refuses
#: the record.
MAX_ATTEMPTS = 4
#: Committed records a new one is compared across: it is printed
#: against the oldest of this many.
DRIFT_RECORDS = 3


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE
    ).stdout


def slow_workloads(record: dict) -> list:
    """``(workload, host speed median)`` for every workload of a suite
    output that ran below ``MIN_HOST_SPEED``."""
    return [
        (name, detail["host_speed"]["median"])
        for name, detail in record["workloads"].items()
        if detail["host_speed"]["median"] < MIN_HOST_SPEED
    ]


def run_workload(tree: str, workload: str, trace: int, out: str) -> dict:
    """The benchmark's one-workload command in ``tree``; its ``--out``.
    Raises ``CalledProcessError`` when the run exits non-zero."""
    subprocess.run(
        [
            sys.executable,
            os.path.join(tree, "benchmarks", "ladder", "run.py"),
            "--workload", workload, "--trace", str(trace), "--out", out,
        ],
        cwd=tree,
        check=True,
    )
    with open(out) as handle:
        return json.load(handle)


def compare_with_history(new: str) -> None:
    """Print the record at ``new`` against the oldest of the last
    ``DRIFT_RECORDS`` committed ones; a worse metric is printed, not
    refused."""
    revs = git(
        "log", f"-n{DRIFT_RECORDS}", "--format=%H", "--", "BENCH_LADDER.json"
    ).decode().split()
    if not revs:
        print("ladder-record: no committed record to compare with")
        return
    oldest = revs[-1]
    print(
        f"ladder-record: against {oldest[:12]}, the oldest of the last "
        f"{len(revs)} committed record(s):"
    )
    with tempfile.NamedTemporaryFile("wb", suffix=".json") as base:
        base.write(git("show", f"{oldest}:BENCH_LADDER.json"))
        base.flush()
        subprocess.run(
            [
                sys.executable,
                os.path.join(ROOT, "benchmarks", "ladder", "run.py"),
                "--compare", base.name, new,
            ],
            cwd=ROOT,
        )


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
        with open(os.path.join(tree, "BENCHMARK.json")) as handle:
            names = [workload["name"] for workload in json.load(handle)["workloads"]]
        part = os.path.join(workdir, "workload.json")
        record = {"rev": rev, "python": sys.version.split()[0], "workloads": {}}
        for name in names:
            for attempt in range(1, MAX_ATTEMPTS + 1):
                entry = run_workload(tree, name, 0, part)
                speed = entry["host_speed"]["median"]
                if speed >= MIN_HOST_SPEED or attempt == MAX_ATTEMPTS:
                    break
                print(
                    f"ladder-record: {name} ran at host speed {speed:.2f} "
                    f"(< {MIN_HOST_SPEED}); running it again "
                    f"({attempt + 1} of {MAX_ATTEMPTS})",
                    file=sys.stderr,
                )
            entry.update(run_workload(tree, name, 1, part))
            record["workloads"][name] = entry
    except subprocess.CalledProcessError as exc:
        run = " ".join(exc.cmd[2:])
        print(f"ladder-record: {run} exited {exc.returncode}", file=sys.stderr)
        return exc.returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    slow = slow_workloads(record)
    if slow:
        for name, speed in slow:
            print(
                f"ladder-record: refusing: {name} ran at host speed {speed:.2f} "
                f"(< {MIN_HOST_SPEED}) in {MAX_ATTEMPTS} attempts; try again later",
                file=sys.stderr,
            )
        return 3
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"ladder-record: {rev[:12]} -> {args.out}")
    compare_with_history(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
