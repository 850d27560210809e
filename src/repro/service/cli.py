"""``repro-service``: demo server, threaded stress runner, trace capture.

Subcommands:

``demo``
    Run the live service under a small closed loop for a few seconds
    and print what the tuner did -- the wall-clock analogue of the
    simulation examples.
``stress``
    The CI smoke: N threads x M lock requests each against a small
    initial LOCKLIST (so synchronous growth and escalation both fire),
    then assert byte-exact memory accounting at shutdown.  Exits
    non-zero on any invariant violation or worker error.  ``--net``
    drives the same load over the wire protocol (a server plus client
    stack in this process); ``--net --workers N`` forks the
    multi-process worker pool and additionally asserts the arbiter's
    byte-exact cross-worker reconciliation.
``serve``
    Stand up a lock server and run until interrupted (or
    ``--duration``): a single in-process service over TCP or a Unix
    socket, or -- with ``--workers N`` -- the worker-pool runtime with
    one process per shard group and per-worker UDS endpoints.
``capture``
    Run load while recording the ``(time, target_locks)`` demand trace
    to a JSONL file that ``repro.workloads.replay`` can consume.
``top``
    Poll a running service's ops endpoints (``--ops-port``) and render
    a refreshing console dashboard: per-shard throughput and latency,
    wait time and incidents, LOCKLIST posture, and the STMM audit tail
    (``--json`` emits one machine-readable object per frame).  The
    target may be a full URL or a bare ``host:port``.
``analyze``
    Offline analysis over a recorded ``--telemetry`` JSONL: wait-time
    breakdown by class, the top blockers, and tuner convergence.  Given
    a ``host:port`` (or URL) instead of a file, fetches the live ops
    plane (``/healthz`` ``/stmm`` ``/incidents``) and summarizes it.
``matrix``
    The scenario matrix engine (``run`` / ``report`` / ``list``):
    expand a named grid of contention regimes, topologies, demand
    replays and chaos injections into per-scenario result folders and
    a verdict table (``pass`` / ``expected-degraded`` / ``fail``);
    exit 0 iff every scenario passed or degraded as documented.  See
    ``docs/SCENARIOS.md``.

Every load subcommand accepts ``--ops-port`` (serve ``/metrics`` /
``/healthz`` / ``/stmm`` / ``/traces`` while running), ``--telemetry
out.jsonl`` (export the run's registry, tuning decisions and audit
trail as a JSONL stream readable by ``repro.obs``) and ``--trace-sample
N``: sample every Nth row-lock request into a hop-decomposed trace,
served on ``/traces`` and exported as schema-v5 ``reqtrace`` telemetry
records.  Over the worker pool (``--net --workers N``) a trace carries
all seven hops (client encode -> net wait -> server dispatch/lock
wait/park/reply -> client decode); in process its one hop is
``server.lock_wait``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import sys
import tempfile
import time
from typing import Iterator, List, Optional

from repro.analysis.waitprofile import analyze_run
from repro.errors import ConfigurationError
from repro.obs.events import load_runs
from repro.service.capture import DemandTraceRecorder
from repro.service.control import ControlPlane
from repro.service.driver import DriverReport, LoadDriver
from repro.service.stack import build_stack
from repro.service.telemetry import service_telemetry
from repro.service.top import run_top


def _add_load_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads", type=int, default=8, help="worker threads (default 8)"
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=2_000,
        help="lock requests per thread (default 2000; 0 = unbounded, "
        "requires --duration)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="wall-clock cap in seconds (required with --requests 0)",
    )
    parser.add_argument(
        "--locklist-pages",
        type=int,
        default=128,
        help="initial LOCKLIST pages (default 128 = 4 blocks)",
    )
    parser.add_argument(
        "--memory-pages",
        type=int,
        default=16_384,
        help="databaseMemory in 4 KB pages (default 16384 = 64 MB)",
    )
    parser.add_argument(
        "--tuner-interval",
        type=float,
        default=0.1,
        help="tuner daemon interval in seconds (default 0.1)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="lock-manager shards: 0 = unsharded stack (default); "
        ">= 1 uses the sharded stack (1 shard reproduces the "
        "unsharded accounting)",
    )
    parser.add_argument("--seed", type=int, default=0)
    # The wire toggles only ``stress`` and ``serve`` expose (_add_net_args).
    parser.set_defaults(net=False, workers=0)
    parser.add_argument(
        "--ops-port",
        type=int,
        default=None,
        help="serve /metrics, /healthz and /stmm on this port while "
        "running (0 = ephemeral; the bound URL is printed)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=0,
        metavar="N",
        help="sample every Nth row-lock request into a hop-decomposed "
        "trace on /traces and in --telemetry (0 = off, the default)",
    )
    parser.add_argument(
        "--wait-profile",
        action="store_true",
        help="enable the wait-event profiler (wait-class histograms, "
        "blocker attribution, latch statistics; off by default)",
    )
    parser.add_argument(
        "--broker",
        action="store_true",
        help="enable the whole-memory broker: register sortheap/"
        "hashjoin/pkgcache heaps, trade 128 KB blocks by marginal "
        "benefit, drive admission postures from memory pressure",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="OUT.JSONL",
        help="export the run's metrics, tuning decisions and STMM audit "
        "trail as JSONL",
    )


def _add_net_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--net",
        action="store_true",
        help="drive the load over the wire protocol (server + client "
        "stack in this process) instead of in-process calls",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fork N worker processes behind the net stack (requires "
        "--net; 0 = single in-process service behind one socket)",
    )
    parser.add_argument(
        "--pool-size",
        type=int,
        default=1,
        help="client connections per endpoint (default 1)",
    )


def _ops_url(target: str) -> str:
    """Normalize an ops-plane target: URL passes through, host:port
    (or a bare port) gains the scheme/host."""
    if "://" in target:
        return target.rstrip("/")
    if re.fullmatch(r"\d+", target):
        return f"http://127.0.0.1:{target}"
    return f"http://{target.rstrip('/')}"


def _is_remote_target(path: str) -> bool:
    """A ``host:port`` or URL rather than a telemetry file on disk."""
    if path.startswith(("http://", "https://")):
        return True
    return (
        re.fullmatch(r"[\w.\-]+:\d+", path) is not None
        and not os.path.exists(path)
    )


def _requests_per_thread(args: argparse.Namespace) -> Optional[int]:
    """``--requests 0`` means unbounded (duration-gated) load.

    The driver refuses the unbounded/uncapped combination itself, but
    catching it here turns a traceback into a usage error.
    """
    if args.requests > 0:
        return args.requests
    if args.duration is None:
        raise SystemExit(
            f"{sys.argv[0] if sys.argv else 'repro-service'}: "
            "--requests 0 (unbounded) requires --duration"
        )
    return None


def _build_stack(args: argparse.Namespace) -> ControlPlane:
    """The stack the topology flags name (``--shards`` / ``--workers``)."""
    try:
        return build_stack(
            threads=args.threads,
            shards=args.shards,
            workers=args.workers,
            total_memory_pages=args.memory_pages,
            initial_locklist_pages=args.locklist_pages,
            tuner_interval_s=args.tuner_interval,
            ops_port=args.ops_port,
            trace_sample_every=args.trace_sample,
            wait_profile=args.wait_profile,
            broker=args.broker,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"repro-service {args.command}: {exc}") from exc


def _announce_ops(stack: ControlPlane) -> None:
    ops = stack.ops
    if ops is not None and ops.running:
        print(
            f"ops plane: {ops.url} "
            f"(/metrics /healthz /stmm /incidents /traces)",
            flush=True,
        )


def _export_telemetry(stack: ControlPlane, args: argparse.Namespace) -> None:
    if args.telemetry:
        label = f"service-{args.command}"
        count = service_telemetry(stack, label=label).write_jsonl(args.telemetry)
        print(f"telemetry: {count} records -> {args.telemetry}")


@contextlib.contextmanager
def _client_stack(stack: ControlPlane, args: argparse.Namespace) -> Iterator:
    """What the load driver drives, per ``--net`` / ``--workers``.

    In process: the stack itself.  ``--net --workers N``: a routed
    client over the workers' sockets.  ``--net`` alone: a socket server
    in front of the in-process service plus the same client with that
    one route, both torn down on exit.
    """
    if args.workers > 0:
        with stack.client_stack(pool_size=args.pool_size) as client:
            yield client
    elif args.net:
        from repro.net.client import RoutedClientStack
        from repro.net.server import serve_service

        sock_dir = tempfile.mkdtemp(prefix="repro-net-")
        server = serve_service(
            stack.service, path=os.path.join(sock_dir, "service.sock")
        )
        try:
            with RoutedClientStack(
                [server.address],
                pool_size=args.pool_size,
                max_in_flight=stack.config.max_in_flight,
                max_queue_depth=stack.config.admission_queue_depth,
            ) as client:
                yield client
        finally:
            server.stop()
            shutil.rmtree(sock_dir, ignore_errors=True)
    else:
        with stack.client_stack() as client:
            yield client


def _run_load(
    stack: ControlPlane, args: argparse.Namespace
) -> DriverReport:
    """Start ``stack``, drive the configured load through it, stop it."""
    with stack:
        _announce_ops(stack)
        with _client_stack(stack, args) as client:
            driver = LoadDriver(
                client,
                threads=args.threads,
                requests_per_thread=_requests_per_thread(args),
                duration_s=args.duration,
                seed=args.seed,
            )
            return driver.run()


def _print_report(stack: ControlPlane, report: DriverReport) -> None:
    ledger = stack.ledger
    print(f"threads:            {report.threads}")
    print(f"wall time:          {report.wall_s:.2f} s")
    print(f"lock requests:      {report.lock_requests}")
    print(f"requests/s:         {report.requests_per_s:,.0f}")
    print(f"commits:            {report.commits}")
    print(
        f"rollbacks:          {report.rollbacks_deadlock} deadlock, "
        f"{report.rollbacks_timeout} timeout, {report.rollbacks_full} full"
    )
    print(f"admission sheds:    {report.admission_sheds}")
    print(
        f"lock memory:        {stack.chain.allocated_pages} pages in "
        f"{stack.chain.block_count} blocks over {len(ledger)} lock "
        f"table(s) (peak demand {ledger.total('peak_used_slots')} structures)"
    )
    victims = 0 if stack.detector is None else len(stack.detector.stats.victims)
    print(
        f"tuning:             {stack.tuner.intervals_run} intervals, "
        f"{ledger.total_borrowed_blocks()} blocks grown synchronously, "
        f"{ledger.total('escalations')} escalations, "
        f"{victims} cross-partition deadlock victims"
    )
    if stack.broker is not None:
        _print_broker(stack.broker.status(audit_tail=0))
    if stack.request_tracers:
        payload = stack.ops_traces()
        tax = (payload.get("summary") or {}).get("wire_tax") or {}
        print(
            f"traces:             {payload['total']} sampled "
            f"(1/{payload['sample_every']}), "
            f"{payload['truncated']} truncated, "
            f"wire tax {tax.get('fraction', 0.0):.0%}"
        )
    _print_partition_breakdown(stack)
    _print_reconciliation(stack)


def _print_broker(status: dict) -> None:
    """The broker block of a run report or a live ``/stmm`` summary."""
    print(
        f"broker:             {status['trades']} trades "
        f"({status['pages_traded']} pages), posture "
        f"{status['posture']}, pressure {status['pressure']:.2f}, "
        f"free {status['free_pages']} pages"
    )
    for heap in status["heaps"]:
        print(
            f"  {heap['heap']:<10} {heap['size_pages']:>6}p "
            f"demand {heap['demand_pages']:>6}p "
            f"benefit {heap['benefit_per_page']:.2e}/page"
        )


def _print_partition_breakdown(stack: ControlPlane) -> None:
    """Per-partition stats (imbalance at a glance), when there are several."""
    if len(stack.ledger) < 2:
        return
    label = stack.partition_label
    print(f"per-{label} breakdown:")
    print(
        f"  {label:>6} {'requests':>10} {'borrows':>8} {'escal':>6} "
        f"{'deadlk':>7} {'blocks':>7} {'held slots':>11}"
    )
    for occ in stack.ledger.occupancy():
        print(
            f"  {occ['partition']:>6} {occ['requests']:>10} "
            f"{occ['borrowed_blocks']:>8} {occ['escalations']:>6} "
            f"{occ['deadlocks']:>7} {occ['block_count']:>7} "
            f"{occ['used_slots']:>11}"
        )


def _print_reconciliation(stack: ControlPlane) -> None:
    """The worker pool's shutdown reconcile, worker by worker."""
    rec = stack.reconciliation
    if rec is None:
        return
    print("per-worker reconciliation:")
    print(
        f"  {'worker':>6} {'state':>9} {'expected':>9} {'reported':>9} "
        f"{'borrowed':>9}"
    )
    for entry in rec.workers:
        reported = entry["reported_blocks"]
        print(
            f"  {entry['worker']:>6} {entry['state']:>9} "
            f"{entry['expected_blocks']:>9} "
            f"{reported if reported is not None else '-':>9} "
            f"{entry['borrowed_blocks']:>9}"
        )
    print(
        f"  total: {rec.reported_blocks}/{rec.expected_blocks} blocks "
        f"({rec.reported_pages}/{rec.expected_pages} pages) "
        f"{'OK' if rec.ok else 'MISMATCH'}"
    )


def _shed_failures(
    args: argparse.Namespace, report: DriverReport
) -> List[str]:
    """Admission sheds beyond the declared budget are failures.

    A stress run that degraded to the ``shed`` posture used to report
    success; the shed count now feeds the exit status.  ``--allow-sheds``
    (default 0) declares an expected shed budget for runs that probe
    overload on purpose.
    """
    allowed = getattr(args, "allow_sheds", 0) or 0
    if report.admission_sheds > allowed:
        return [
            f"{report.admission_sheds} admission sheds "
            f"(allowed {allowed}; raise --allow-sheds if overload "
            f"is intended)"
        ]
    return []


def _check_shutdown_accounting(stack: ControlPlane) -> List[str]:
    """Exact accounting assertions after all sessions have closed."""
    failures: List[str] = []
    if stack.chain.used_slots != 0:
        failures.append(
            f"{stack.chain.used_slots} lock structures leaked after shutdown"
        )
    heap = stack.registry.heap("locklist").size_pages
    if heap != stack.chain.allocated_pages:
        failures.append(
            f"locklist heap {heap}p != chain {stack.chain.allocated_pages}p"
        )
    try:
        # For the worker pool this includes the shutdown reconciliation.
        stack.check_invariants()
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        failures.append(f"invariant check failed: {exc}")
    if stack.frozen_reason is not None:
        failures.append(f"tuning froze: {stack.frozen_reason}")
    if stack.tuner.crash is not None:
        failures.append(f"tuner crashed: {stack.tuner.crash!r}")
    if stack.detector is not None and stack.detector.crash is not None:
        failures.append(f"deadlock sweep crashed: {stack.detector.crash!r}")
    return failures


def _run_failures(
    args: argparse.Namespace, stack: ControlPlane, report: DriverReport
) -> List[str]:
    """Everything that makes a finished stress run a failed one."""
    failures = list(report.worker_errors)
    expected = args.threads * args.requests
    if args.duration is None and report.lock_requests < expected:
        failures.append(
            f"only {report.lock_requests}/{expected} lock requests completed"
        )
    failures.extend(_shed_failures(args, report))
    failures.extend(_check_shutdown_accounting(stack))
    return failures


@contextlib.contextmanager
def _front_end(stack: ControlPlane, args: argparse.Namespace) -> Iterator[None]:
    """Whatever listens for clients while ``serve`` runs: a pool's
    workers already do; an in-process service gets one socket server."""
    if args.workers > 0:
        for endpoint, _port in stack.endpoints:
            print(f"worker endpoint: {endpoint}", flush=True)
        yield
        return
    from repro.net.server import serve_service

    server = serve_service(
        stack.service,
        host=args.host,
        port=args.port,
        path=args.socket,
        metrics=stack.metrics,
    )
    try:
        host, port = server.address
        print(f"serving on {host if args.socket else f'{host}:{port}'}", flush=True)
        yield
    finally:
        server.stop()


def cmd_serve(args: argparse.Namespace) -> int:
    stack = _build_stack(args)
    with stack:
        _announce_ops(stack)
        with _front_end(stack, args):
            print("serving (Ctrl-C to stop)", flush=True)
            deadline = (
                time.monotonic() + args.duration
                if args.duration is not None
                else None
            )
            try:
                while deadline is None or time.monotonic() < deadline:
                    time.sleep(0.2)
            except KeyboardInterrupt:
                pass
    _print_reconciliation(stack)
    _export_telemetry(stack, args)
    failures = _check_shutdown_accounting(stack)
    if failures:
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("clean shutdown: exact accounting verified")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    stack = _build_stack(args)
    print(
        f"live lock service: {args.memory_pages * 4 // 1024} MB database "
        f"memory, LOCKLIST starting at {args.locklist_pages} pages"
    )
    report = _run_load(stack, args)
    _print_report(stack, report)
    for record in stack.tuner.audit.tail(5):
        print(
            f"  tuner t={record.time:7.2f}s "
            f"{record.current_pages:5d} -> {record.target_pages:5d} pages "
            f"(free {record.free_fraction:.0%}, {record.reason})"
        )
    _export_telemetry(stack, args)
    return 0


def cmd_stress(args: argparse.Namespace) -> int:
    if args.workers > 0 and not args.net:
        print("stress: --workers requires --net", file=sys.stderr)
        return 2
    if args.net and args.shards > 0 and not args.workers:
        print("stress: --net --shards is not supported; use --workers",
              file=sys.stderr)
        return 2
    stack = _build_stack(args)
    report = _run_load(stack, args)
    _print_report(stack, report)
    _export_telemetry(stack, args)
    failures = _run_failures(args, stack, report)
    if failures:
        print("\nSTRESS FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nstress OK: exact accounting verified at shutdown")
    return 0


def cmd_capture(args: argparse.Namespace) -> int:
    stack = _build_stack(args)
    recorder = DemandTraceRecorder(
        stack.chain, clock=stack.clock, period_s=args.period
    )
    with recorder:
        report = _run_load(stack, args)
    count = recorder.save(args.out)
    _print_report(stack, report)
    _export_telemetry(stack, args)
    print(f"captured {count} demand samples -> {args.out}")
    if recorder.dropped:
        print(f"  ({recorder.dropped} same-timestamp samples dropped)")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    base_url = (
        _ops_url(args.url) if args.url else f"http://127.0.0.1:{args.port}"
    )
    return run_top(
        base_url,
        interval_s=args.interval,
        frames=args.frames,
        clear=not args.no_clear,
        as_json=args.json,
    )


def _fetch_ops_json(url: str) -> dict:
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        # /healthz answers 503 with a JSON body when degraded.
        return json.loads(exc.read().decode("utf-8"))


def _analyze_remote(args: argparse.Namespace) -> int:
    """Summarize a *live* ops plane instead of a telemetry file."""
    base = _ops_url(args.path)
    try:
        health = _fetch_ops_json(f"{base}/healthz")
        stmm = _fetch_ops_json(f"{base}/stmm")
        incidents = _fetch_ops_json(f"{base}/incidents")
    except (OSError, ValueError) as exc:
        print(f"analyze: {base} unreachable: {exc}", file=sys.stderr)
        return 1
    ok = bool(health.get("ok"))
    if args.json:
        print(
            json.dumps(
                {
                    "target": base,
                    "health": health,
                    "stmm": stmm,
                    "incidents": incidents,
                },
                indent=2,
            )
        )
        return 0 if ok else 1
    print(f"live ops plane: {base}")
    print(
        f"health:    {'healthy' if ok else 'DEGRADED'} "
        f"({health.get('service', 'unknown')})"
    )
    if health.get("frozen_reason"):
        print(f"  frozen:  {health['frozen_reason']}")
    if "workers_alive" in health:
        print(
            f"  workers: {health['workers_alive']}/{health.get('workers')} "
            f"alive, {health.get('worker_crashes', 0)} crashes"
        )
    posture = stmm.get("posture", {})
    if posture:
        print("posture:")
        for key in sorted(posture):
            print(f"  {key}: {posture[key]}")
    if stmm.get("broker"):
        _print_broker(stmm["broker"])
    print(
        f"tuning:    {stmm.get('intervals', 0)} intervals "
        f"({stmm.get('audit_total', 0)} audit records)"
    )
    for record in stmm.get("audit", [])[-args.top:]:
        if {"time", "current_pages", "target_pages", "reason"} <= set(record):
            print(
                f"  t={record['time']:7.2f}s "
                f"{record['current_pages']:5d} -> "
                f"{record['target_pages']:5d} pages ({record['reason']})"
            )
        else:
            print(f"  {record}")
    counts = {
        kind: count
        for kind, count in incidents.get("counts", {}).items()
        if count
    }
    print(f"incidents: {incidents.get('total', 0)} total {counts or ''}")
    for record in incidents.get("incidents", [])[-args.top:]:
        print(
            f"  [{record.get('kind')}] t={record.get('time', 0.0):.2f}s "
            f"shard {record.get('shard')}: {record.get('detail')}"
        )
    return 0 if ok else 1


def cmd_matrix(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        build_grid,
        grid_names,
        load_matrix,
        render_verdict_table,
        run_matrix,
    )

    if args.action == "list":
        for name in grid_names():
            grid = build_grid(name)
            chaos = sum(1 for spec in grid.expand() if spec.chaos)
            print(
                f"{name}: {len(grid)} scenarios "
                f"({chaos} chaos)"
            )
        return 0
    if args.action == "report":
        try:
            matrix = load_matrix(args.path)
        except (OSError, ValueError) as exc:
            print(f"matrix report: {exc}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(matrix, indent=2, sort_keys=True))
        else:
            print(render_verdict_table(matrix))
        return 0 if matrix.get("ok") else 1
    # run: expand the named grid, run every scenario, print the verdicts.
    baseline = load_matrix(args.baseline) if args.baseline else None
    echo = None if args.json else (lambda line: print(line, flush=True))
    report = run_matrix(
        build_grid(args.grid), out_dir=args.out_dir, baseline=baseline,
        echo=echo,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print()
        print(report.render_table())
    return 0 if report.ok else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    if _is_remote_target(args.path):
        return _analyze_remote(args)
    try:
        runs = load_runs(args.path)
    except (OSError, ValueError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 1
    if not runs:
        print(f"analyze: {args.path}: no telemetry runs found", file=sys.stderr)
        return 1
    reports = [analyze_run(run, top_n=args.top) for run in runs]
    if args.json:
        print(json.dumps([report.to_dict() for report in reports], indent=2))
        return 0
    for index, report in enumerate(reports):
        if index:
            print()
        print(report.render_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Live lock service with self-tuning lock memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="short demo run with tuner narration")
    _add_load_args(demo)
    demo.set_defaults(func=cmd_demo, requests=500, threads=4)

    stress = sub.add_parser(
        "stress", help="threaded stress run with exact-accounting checks"
    )
    _add_load_args(stress)
    _add_net_args(stress)
    stress.add_argument(
        "--allow-sheds",
        type=int,
        default=0,
        metavar="N",
        help="expected admission-shed budget; more than N sheds fails "
        "the run (default 0: any shed is a failure)",
    )
    stress.set_defaults(func=cmd_stress)

    serve = sub.add_parser(
        "serve",
        help="stand up a lock server (single service or --workers pool)",
    )
    _add_load_args(serve)
    _add_net_args(serve)
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind host (single service)"
    )
    serve.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve a Unix-domain socket instead of TCP (single service)",
    )
    serve.set_defaults(func=cmd_serve)

    capture = sub.add_parser(
        "capture", help="record a (time, target_locks) demand trace"
    )
    _add_load_args(capture)
    capture.add_argument(
        "--out", default="demand_trace.jsonl", help="output JSONL path"
    )
    capture.add_argument(
        "--period", type=float, default=0.02, help="sample period in seconds"
    )
    capture.set_defaults(func=cmd_capture)

    top = sub.add_parser(
        "top", help="live dashboard over a running service's ops plane"
    )
    top.add_argument(
        "--url",
        default=None,
        help="ops target: URL or host:port (overrides --port)",
    )
    top.add_argument(
        "--port", type=int, default=9101, help="ops port on localhost"
    )
    top.add_argument(
        "--interval", type=float, default=1.0, help="refresh seconds"
    )
    top.add_argument(
        "--frames",
        type=int,
        default=None,
        help="stop after N frames (default: run until interrupted)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object per frame instead of the dashboard",
    )
    top.set_defaults(func=cmd_top)

    analyze = sub.add_parser(
        "analyze",
        help="offline wait-profile report over a recorded telemetry JSONL",
    )
    analyze.add_argument(
        "path",
        help="telemetry JSONL (from --telemetry), or the host:port / URL "
        "of a live ops plane",
    )
    analyze.add_argument(
        "--top", type=int, default=5, help="blocker table size (default 5)"
    )
    analyze.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    analyze.set_defaults(func=cmd_analyze)

    matrix = sub.add_parser(
        "matrix",
        help="scenario matrix engine: expand a named grid, run every "
        "scenario, emit per-scenario verdicts",
    )
    matrix_sub = matrix.add_subparsers(dest="action", required=True)
    matrix_run = matrix_sub.add_parser(
        "run", help="run a named grid and print the verdict table"
    )
    matrix_run.add_argument(
        "--grid",
        default="mini",
        help="named grid to run (see 'matrix list'; default mini)",
    )
    matrix_run.add_argument(
        "--out-dir",
        default="matrix_results",
        help="per-scenario result folders land under OUT_DIR/<grid>/ "
        "(default matrix_results)",
    )
    matrix_run.add_argument(
        "--baseline",
        default=None,
        metavar="MATRIX.JSON",
        help="prior matrix.json; scenarios falling below its throughput "
        "envelope fail",
    )
    matrix_run.add_argument(
        "--json",
        action="store_true",
        help="emit the matrix report as JSON instead of the table",
    )
    matrix_run.set_defaults(func=cmd_matrix)
    matrix_report = matrix_sub.add_parser(
        "report", help="re-render a saved matrix.json as the verdict table"
    )
    matrix_report.add_argument("path", help="matrix.json written by 'run'")
    matrix_report.add_argument(
        "--json", action="store_true", help="emit the raw JSON instead"
    )
    matrix_report.set_defaults(func=cmd_matrix)
    matrix_list = matrix_sub.add_parser(
        "list", help="list the named grids and their scenario counts"
    )
    matrix_list.set_defaults(func=cmd_matrix)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
