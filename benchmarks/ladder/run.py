#!/usr/bin/env python3
"""The repo's benchmark: a pinned, closed-loop layer ladder
(lockmgr -> service -> net) plus the paper's lock-memory surge.

One workload, as the driver of ``BENCHMARK.json`` runs it::

    python3 benchmarks/ladder/run.py --workload churn_wire --seed 17 \\
        --seconds 20 --trace 0

prints every end-to-end metric by name with its unit, checks the
program's outputs, and ends with one JSON line (``--trace 1``: the
per-layer metrics and the ladder table instead).  Without
``--workload`` it runs every workload both ways, each in a process of
its own, and ``--out`` keeps the numbers for ``--compare BASE NEW``.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import stats  # noqa: E402 - needs no program code

SMOKE_SECONDS = 0.3
#: Share of ``--seconds`` each of a traced run's two passes measures.
TRACED_SHARE = 0.3


class Interrupted(BaseException):
    """SIGTERM or the wall deadline: unwind through every ``finally``."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def pin_to_one_cpu() -> int:
    """Run on one CPU, and say which, so the numbers measure the program.

    Unpinned on this two-vCPU box the client and the forked worker land
    on different vCPUs and every request pays two cross-CPU wake-ups
    (README: 6-7k req/s against 26-28k pinned).  Forked workers inherit
    the mask.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def arm(deadline_s: float = 0.0) -> None:
    """Turn SIGTERM, and a wall deadline if given, into ``Interrupted``."""

    def on_signal(signum, frame):
        raise Interrupted(
            "wall deadline passed" if signum == signal.SIGALRM else "SIGTERM"
        )

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGALRM, on_signal)
    signal.setitimer(signal.ITIMER_REAL, deadline_s)


# -- one workload, in this process -------------------------------------------------


def measure(args, spec: dict) -> dict:
    """Run one workload once; returns the detail dict ``--out`` keeps."""
    import workloads  # imports the program: fails where src/ is missing

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    run_dir = os.path.relpath(os.path.join(HERE, ".run"))
    inputs = workloads.Inputs(
        seed=args.seed,
        script=workloads.make_script(
            args.seed, 400 if args.smoke else workloads.SCRIPT_TXNS
        ),
        run_dir=run_dir,
        warmup_txns=100 if args.smoke else workloads.WARMUP_TXNS,
        surge_locks=1_500 if args.smoke else workloads.SURGE_LOCKS,
    )
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "cpu": args.cpu,
        "script_sha256": inputs.script.sha256,
    }
    try:
        if not args.trace:
            result = workloads.run_pass(
                args.workload,
                inputs,
                seconds=seconds,
                setups=1 if args.smoke else 3,
            )
            detail["end_to_end"] = result.end_to_end()
            detail["host_speed"] = result.host_speed
            detail["lock_tail"] = [w.tail for w in result.windows]
            problems = result.problems
        else:
            share = TRACED_SHARE * seconds
            plain = workloads.run_pass(args.workload, inputs, seconds=share)
            result = workloads.run_pass(
                args.workload,
                inputs,
                seconds=share,
                spans=True,
                instrument=True,
            )
            rungs = workloads.ladder(inputs, with_net=args.workload == "churn_wire")
            detail["per_layer"] = per_layer(spec, inputs, plain, result, rungs)
            problems = plain.problems + result.problems
    finally:
        if os.path.isdir(run_dir) and not os.listdir(run_dir):
            os.rmdir(run_dir)
    detail.update(
        attempted=result.attempted, failed=result.failed, problems=problems
    )
    return detail


def per_layer(spec, inputs, plain, traced, rungs) -> dict:
    """Every per-layer metric of BENCHMARK.json; 0 where the workload
    does not cross the layer (README says which those are)."""
    values = {metric["name"]: 0.0 for metric in spec["per_layer"]}
    values.update(rungs)
    values.update(traced.counters)  # surge's scripted tuner passes win
    values["service.retry_share"] = traced.retry_share
    if "net.lock_row_us" in rungs:
        for name, key in (("client", "own"), ("worker", "kid")):
            values[f"net.{name}_cpu_us_per_req"] = plain.summary(
                f"{key}_cpu_us_per_req"
            )["value"]
        hops = sum(v for k, v in values.items() if k.startswith("net.hop."))
        values["net.attributed_share"] = hops / values["net.lock_row_us"]
    values["bench.trace_overhead_share"] = (
        1.0 - traced.summary("lock_rps")["value"] / plain.summary("lock_rps")["value"]
    )
    values["bench.window_spread"] = stats.spread(plain.series("lock_rps"))
    values["bench.host_speed"] = traced.host_speed["median"]
    values["bench.script_sha48"] = float(int(inputs.script.sha256[:12], 16))
    unknown = sorted(set(values) - {m["name"] for m in spec["per_layer"]})
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    return values


def report(detail: dict, spec: dict) -> dict:
    """Print the metrics by name and unit; returns the contract's result."""
    name = detail["workload"]
    print(
        f"# {name}  seed={detail['seed']}  seconds={detail['seconds']}  "
        f"pinned to cpu {detail['cpu']}  script sha256={detail['script_sha256'][:16]}"
    )
    metrics = {}
    if "end_to_end" in detail:
        for metric in spec["end_to_end"]:
            row = detail["end_to_end"][metric["name"]]
            metrics[metric["name"]] = {"value": row["value"], "unit": metric["unit"]}
            print(
                f"{name:14s} {metric['name']:20s} {row['value']:14.4f} "
                f"{metric['unit']:6s} [median {row['median']:.4f}  min {row['min']:.4f}  "
                f"max {row['max']:.4f}  over {row['windows']}]"
            )
        speed = detail["host_speed"]
        print(
            f"{name:14s} host speed x{speed['median']:.3f} [min {speed['min']:.3f}  "
            f"max {speed['max']:.3f}]: timings above are at reference speed "
            f"(x1.000 = not scaled)"
        )
        tails = [tail for tail in detail["lock_tail"] if tail]
        if tails:
            q = tails[0][0]
            print(
                f"{name:14s} lock_row p{q * 100:g} = "
                f"{median(t[1] for t in tails):.2f} us "
                f"(highest percentile with >= 10 samples beyond it per window)"
            )
    else:
        for metric in spec["per_layer"]:
            value = detail["per_layer"][metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"{name:14s} {metric['name']:36s} {value:16.4f} {metric['unit']}")
        print_ladder(detail["per_layer"])
    for problem in detail["problems"]:
        print(f"CHECK FAILED {problem}")
    return {
        "correct": not detail["problems"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }


def print_ladder(values: dict) -> None:
    """The four rungs as one table, each delta beside its explanation."""
    hops = sum(v for k, v in values.items() if k.startswith("net.hop."))
    rows = [
        ("lockmgr.lock_row_us", None, "bare LockManager + LockBlockChain"),
        (
            "service.lock_row_us",
            "service.overhead_us",
            f"mutex + session checks; admission pair "
            f"{values['service.admission_us']:.2f} us is not on this path",
        ),
        (
            "service.sharded.lock_row_us",
            "service.sharded.overhead_us",
            "routing + per-session lock of the sharded facade",
        ),
        (
            "net.lock_row_us",
            "net.wire_overhead_us",
            f"over service rung: hop p50s sum {hops:.2f} us (attributed_share "
            f"{values['net.attributed_share']:.2f}), ping floor "
            f"{values['net.ping_rtt_p50_us']:.2f} us",
        ),
    ]
    print("# ladder: mean us per lock_row call, one script through every rung")
    for rung, delta, why in rows:
        if not values[rung]:
            print(f"#   {rung:30s} {'-':>9s}            not crossed by this workload")
            continue
        step = f"{values[delta]:+9.3f}" if delta else " " * 9
        print(f"#   {rung:30s} {values[rung]:9.3f} {step}  {why}")


def run_one(args, spec: dict) -> int:
    args.cpu = pin_to_one_cpu()
    arm(min(170.0, 45.0 + 2.5 * args.seconds))
    try:
        detail = measure(args, spec)
    except ImportError as exc:
        print(f"ladder: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    except BaseException as exc:  # noqa: BLE001 - name the place, then fail
        where = getattr(exc, "ladder_phase", "start")
        print(
            f"ladder: FAILED workload={args.workload} phase={where}: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    result = report(detail, spec)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(detail, handle, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, each in a process of its own ------------------------------------


def run_suite(args, spec: dict) -> int:
    """The contract's command once per workload and trace mode.

    A process each, so one workload's high-water RSS, CPU or leftover
    threads cannot reach the next one's numbers.
    """
    arm()
    merged = {"workloads": {}}
    status = 0
    part = f"{args.out}.part" if args.out else None
    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            entry = merged["workloads"][workload] = {}
            for trace in (0, 1):
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ] + (["--smoke"] if args.smoke else []) + (
                    ["--out", part] if part else []
                )
                child = subprocess.Popen(command)
                try:
                    code = child.wait(timeout=180)
                except BaseException:
                    child.terminate()  # SIGTERM: it unwinds its own stacks
                    child.wait(timeout=30)
                    raise
                if code:
                    print(f"ladder: {workload} --trace {trace} exited {code}")
                    status = 1
                elif part:
                    with open(part) as handle:
                        entry.update(json.load(handle))
    finally:
        if part and os.path.exists(part):
            os.remove(part)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(merged, handle, indent=1)
    return status


# -- --compare -----------------------------------------------------------------------


def compare(base_path: str, new_path: str, spec: dict) -> int:
    """One row per workload, one verdict per end-to-end metric."""
    with open(base_path) as handle:
        base = json.load(handle)["workloads"]
    with open(new_path) as handle:
        new = json.load(handle)["workloads"]
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            print(f"{workload:14s} missing from one side")
            continue
        cells = []
        for metric in spec["end_to_end"]:
            key = metric["name"]
            b, n = base[workload]["end_to_end"][key], new[workload]["end_to_end"][key]
            word = stats.verdict(b, n, metric["better"], metric["bound"])
            worse += word == stats.WORSE
            change = (n["value"] - b["value"]) / b["value"] if b["value"] else 0.0
            cells.append(f"{key} {word} ({change:+.1%})")
        print(f"{workload:14s} " + "; ".join(cells))
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, both ways)")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long run")
    parser.add_argument("--out", help="write the detailed numbers here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        return run_suite(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
