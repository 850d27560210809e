"""Multi-process scale-out: worker-process shards under one STMM arbiter.

The sharded stack (:mod:`repro.service.sharded`) splits the lock table
across shards *inside one process*; this module forks each shard group
into its own **worker process**.  Each worker owns a complete
:class:`LockService` (chain, manager, wait queues) and serves the wire
protocol on its own Unix-domain socket, so lock traffic never crosses
the parent.  The parent keeps what the paper centralizes -- the shared
:class:`~repro.service.control.ControlPlane`: the database memory
registry, the :class:`LockMemoryController`, adaptive MAXLOCKS, STMM and
the tuning daemon -- one arbiter distributing one pool of lock memory
over many worker processes.  A worker is a
:class:`~repro.service.partition.LocalPartition` served over a pipe;
the parent holds a :class:`PipePartition` proxy for each.  This module
adds only what forking adds: the pipes, the parent's mirror of each
worker's chain, crash handling and the shutdown reconcile.

Control plane (parent <-> worker, one pair of pipes per worker):

* ``ctl`` -- parent-initiated request/reply: occupancy sampling, block
  grants and reclaims (STMM resize distribution), MAXLOCKS pushes,
  wait-graph extraction, deadlock victimization, freeze, close.
* ``borrow`` -- worker-initiated synchronous growth (paper section
  3.3): a lock request that finds no free structure blocks, mid-request,
  on a borrow round trip; the parent moves pages from overflow into the
  locklist heap and reserves the granted blocks for that worker.

Locking architecture (the part that is easy to get wrong): a worker
request thread blocks on the borrow pipe *while holding its service
mutex*, and every parent->worker control op may need that same mutex.
If the parent issued control RPCs while borrows queued unserviced, the
system would deadlock (tuner waits for worker reply, worker waits for
borrow grant, borrow waits for tuner).  The arbiter therefore runs as a
single parent thread that owns all registry state and **keeps draining
borrow pipes while it waits** -- for control replies, for lock
acquisition, for the next tuning interval.  A synchronous
``tuner.tune_now()`` from another thread takes the same role for the
length of its pass: borrows are only ever *served* under the pool's
condition, which a pass holds, so there is one consumer at a time.

Failure semantics mirror the single-process stack exactly: a worker
crash degrades like a tuner crash today -- surviving workers freeze to
a static LOCKLIST (growth providers detached, MAXLOCKS pinned), an
incident record is captured, and ``/healthz`` flips to 503 -- while
surviving workers keep serving.  A clean shutdown reconciles block
accounting byte-exactly: every worker reports its final chain posture,
the parent compares it against its authoritative per-worker mirror, and
transiently borrowed blocks are returned to overflow.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    MemoryAccountingError,
    ServiceError,
)
from repro.lockmgr.blocks import LockBlockChain
from repro.net.server import ServiceBackend, ThreadedLockServer
from repro.obs.incidents import IncidentRecord
from repro.obs.registry import (
    Histogram,
    MetricRegistry,
    labeled_name,
    parse_labeled_name,
)
from repro.obs.tracing import RequestTracer, ServerTracer
from repro.service.clock import MonotonicClock
from repro.service.control import (
    ControlPlane,
    ServiceConfig,
    check_partitioned,
)
from repro.service.ledger import initial_split
from repro.service.partition import (
    PARTITION_OPS,
    LocalPartition,
    WorkerDiedError,
)
from repro.service.service import LockService
from repro.units import (
    LOCKS_PER_BLOCK,
    PAGES_PER_BLOCK,
    round_pages_to_blocks,
)


@dataclass
class WorkerPoolConfig(ServiceConfig):
    """Sizing of a worker-pool stack (extends :class:`ServiceConfig`)."""

    #: Number of worker processes (one complete lock service each).
    workers: int = 2
    #: Cross-worker deadlock sweep cadence (DLCHKTIME analogue).
    deadlock_interval_s: float = 0.25
    #: Directory for the per-worker Unix-domain sockets (default: a
    #: fresh ``tempfile.mkdtemp`` owned and removed by the pool).
    socket_dir: Optional[str] = None
    #: Reader/executor threads of each worker's socket server.
    executor_threads: int = 8

    def __post_init__(self) -> None:
        check_partitioned(self, self.workers, "workers")
        super().__post_init__()
        # What the pool cannot honour it refuses, rather than dropping.
        if self.broker:
            raise ConfigurationError(
                "broker is not supported by the worker pool: its admission "
                "gates live in the clients, so the broker's pressure "
                "postures would have nothing to actuate"
            )
        if self.wait_profile:
            raise ConfigurationError(
                "wait_profile is not supported by the worker pool: the "
                "wait rings would live in the worker processes"
            )


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------


class _WorkerPartition(LocalPartition):
    """A worker's own partition, as its control loop serves it.

    The Partition ops plus the two observability pulls (the parent
    cannot read this process's registry or span ring any other way),
    with the socket server's life tied to the partition's.
    """

    OPS = frozenset(PARTITION_OPS) | {"metrics", "traces"}

    def __init__(
        self,
        idx: int,
        service: LockService,
        server: ThreadedLockServer,
        metrics: Optional[MetricRegistry],
    ) -> None:
        super().__init__(idx, service)
        self.server = server
        self._metrics = metrics

    def occupancy(self) -> Dict[str, Any]:
        posture = super().occupancy()
        posture["responses"] = self.server.responses_written
        return posture

    def metrics(self) -> Optional[dict]:
        return None if self._metrics is None else self._metrics.snapshot()

    def traces(self) -> Optional[dict]:
        tracer = self.server.backend.tracer
        if tracer is None:
            return None
        return {"spans": tracer.to_dicts(), "summary": tracer.summary()}

    def close(self) -> Dict[str, Any]:
        self.server.stop()
        return super().close()


def _control_step(part: _WorkerPartition, msg: Any) -> Tuple[str, Any]:
    """Answer one control-pipe message: ``("ok", result)`` for an op
    tuple the partition serves, ``("error", text)`` for anything else,
    never a dead worker."""
    try:
        if msg.__class__ is not tuple or not msg:
            raise ServiceError(f"control message {msg!r} is not an op tuple")
        op, *args = msg
        if op not in part.OPS:
            raise ServiceError(f"unknown control op {op!r}")
        return "ok", getattr(part, op)(*args)
    except Exception as exc:  # noqa: BLE001 - report, don't die
        return "error", f"{type(exc).__name__}: {exc}"


def _worker_main(
    cfg: WorkerPoolConfig,
    idx: int,
    initial_blocks: int,
    sock_path: str,
    initial_fraction: float,
    ctl: Connection,
    borrow: Connection,
) -> None:
    """Entry point of one worker process (forked: ``cfg`` is inherited).

    Builds a complete lock service plus its socket server, reports
    readiness, then serves the parent's control ops until ``close`` (or
    until the parent dies, which surfaces as EOF on the control pipe).
    """
    # A per-worker registry: the parent pulls snapshots over the control
    # plane and merges them into one ``/metrics`` scrape under a
    # ``worker="N"`` label.
    wmetrics = MetricRegistry() if cfg.telemetry else None
    service = LockService(
        LockBlockChain(initial_blocks=initial_blocks),
        clock=MonotonicClock(),
        default_timeout_s=cfg.default_timeout_s,
        lock_timeout_s=cfg.lock_timeout_s,
        metrics=wmetrics,
    )
    # Disjoint arithmetic progressions make app ids globally unique
    # without a parent round trip per session: worker i hands out
    # i+1, i+1+N, i+1+2N, ...  A session opened on one worker is then
    # adoptable on any other (OP_ADOPT_SESSION) without collision.
    service._app_ids = itertools.count(  # noqa: SLF001 - worker wiring
        idx + 1, cfg.workers
    )
    server = ThreadedLockServer(
        ServiceBackend(
            service,
            name=f"worker{idx}",
            # The worker half of the end-to-end request trace.
            tracer=ServerTracer() if cfg.trace_sample_every > 0 else None,
        ),
        path=sock_path,
        executor_threads=cfg.executor_threads,
        metrics=wmetrics,
    )
    part = _WorkerPartition(idx, service, server, wmetrics)
    # MAXLOCKS mirrors the arbiter's adaptive fraction: pushed on every
    # resize (``set_maxlocks``) and piggybacked on every borrow reply.
    part.maxlocks_fraction = initial_fraction

    def _borrow_growth(blocks_wanted: int) -> int:
        # Called by the lock manager *under the service mutex*: the
        # requesting transaction stalls on the grant exactly like the
        # paper's synchronous growth.  The arbiter keeps draining this
        # pipe while it waits on anything, so the round trip is bounded.
        try:
            borrow.send(int(blocks_wanted))
            granted, fraction = borrow.recv()
        except (EOFError, OSError):
            return 0  # parent gone: the escalation path answers pressure
        part.maxlocks_fraction = fraction
        return int(granted)

    manager = service.manager
    manager.growth_provider = _borrow_growth
    manager.maxlocks_provider = lambda: part.maxlocks_fraction
    manager.refresh_period = cfg.params.refresh_period_requests
    manager.refresh_maxlocks()

    server.start()
    ctl.send(("ready", idx, part.occupancy()))

    while not service.closed:
        try:
            msg = ctl.recv()
        except (EOFError, OSError):
            break  # parent died: exit, the OS reclaims everything
        with contextlib.suppress(OSError):
            ctl.send(_control_step(part, msg))
    with contextlib.suppress(OSError):
        ctl.close()
    with contextlib.suppress(OSError):
        borrow.close()


# ---------------------------------------------------------------------------
# The parent's side of one worker
# ---------------------------------------------------------------------------


class _MirrorChain:
    """What the parent knows of one worker's block chain.

    Block counts are *authoritative* (every chain mutation flows through
    the parent: the initial split, resize distributions, borrow grants),
    occupancy is *sampled* (refreshed from the worker's posture before
    each tuning pass).  The ledger's aggregate chain sums these exactly
    as it sums local chains.
    """

    def __init__(self, owner: "PipePartition", blocks: int) -> None:
        self._owner = owner
        self.block_count = blocks

    @property
    def capacity_slots(self) -> int:
        return self.block_count * LOCKS_PER_BLOCK

    @property
    def allocated_pages(self) -> int:
        return self.block_count * PAGES_PER_BLOCK

    @property
    def used_slots(self) -> int:
        return self._owner.posture()["used_slots"]

    def entirely_free_blocks(self) -> int:
        return min(
            self._owner.posture()["entirely_free_blocks"], self.block_count
        )


class PipePartition:
    """Parent-side proxy: the Partition ops over one worker's pipes.

    Every op is one control round trip (:meth:`call`).  Ops only the
    borrow-consuming thread issues -- block moves, MAXLOCKS pushes,
    freeze, check, close -- drain the borrow pipes while they wait, so
    a worker blocked mid-request on a borrow grant can release its
    mutex and answer.
    """

    #: Each op is answered at its own instant; reads of different
    #: workers are never one snapshot.
    atomic = False
    #: Forwarded ops that only the borrow-consuming thread issues.
    _DRAINING = frozenset({"set_maxlocks", "freeze", "check"})

    def __init__(self, idx: int, sock_path: str, blocks: int, drain) -> None:
        self.idx = idx
        self.sock_path = sock_path
        self.chain = _MirrorChain(self, blocks)
        #: Services queued borrows (the pool's ``_service_borrows``).
        self._drain = drain
        #: Attached by the fork.
        self.process: Any = None
        self.ctl: Optional[Connection] = None
        self.borrow: Optional[Connection] = None
        self.ctl_lock = threading.Lock()
        self.dead = False
        #: Crash handled by the watcher (freeze + incident).  ``dead`` may
        #: flip first on any thread whose control call hits the broken
        #: pipe; the watcher still owns the (single) degrade response.
        self.crash_reported = False
        self.closed = False
        #: Last sampled posture: the worker's own at its ready handshake,
        #: refreshed before each pass, its final word after close.
        self._posture: Dict[str, Any] = {}

    def posture(self) -> Dict[str, Any]:
        return self._posture

    def call(self, op: str, *args: Any, drain: bool = False) -> Any:
        """One control round trip to the worker.

        ``drain=True`` is for the borrow-consuming thread (the arbiter
        while running; whoever holds the pool's condition for a pass;
        the stop path after the arbiter joined): while waiting for the
        lock or the reply it keeps servicing borrow pipes.
        """
        if self.dead:
            raise WorkerDiedError(f"worker {self.idx} is dead")
        if drain:
            while not self.ctl_lock.acquire(timeout=0.01):
                self._drain(0.0)
        else:
            self.ctl_lock.acquire()
        try:
            try:
                self.ctl.send((op, *args))
                if drain:
                    while not self.ctl.poll(0.01):
                        self._drain(0.0)
                tag, result = self.ctl.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                self.dead = True
                raise WorkerDiedError(
                    f"worker {self.idx} died during {op!r}"
                ) from exc
        finally:
            self.ctl_lock.release()
        if tag == "error":
            raise ServiceError(f"worker {self.idx} {op!r} failed: {result}")
        return result

    # -- the ops -----------------------------------------------------------

    def occupancy(self, *, drain: bool = False) -> Dict[str, Any]:
        """Sample the worker's posture (the arbiter passes ``drain``);
        :meth:`posture` keeps answering with it until the next sample."""
        self._posture = self.call("occupancy", drain=drain)
        return self._posture

    def add_blocks(self, count: int) -> int:
        self.call("add_blocks", count, drain=True)
        self.chain.block_count += count
        return self.chain.block_count

    def release_blocks(self, count: int) -> int:
        if self.closed:
            # The worker exited cleanly with used_slots == 0; its
            # blocks exist only in the mirror now.
            freed = min(count, self.chain.block_count)
        else:
            freed = self.call("release_blocks", count, drain=True)
        self.chain.block_count -= freed
        return freed

    def __getattr__(self, op: str):
        """The other ops are plain round trips, the worker's own
        allow-list mirrored: ``part.graph(waiting)`` sends
        ``("graph", waiting)``."""
        if op not in PARTITION_OPS:
            raise AttributeError(op)
        return functools.partial(self.call, op, drain=op in self._DRAINING)

    def close(self) -> Dict[str, Any]:
        self._posture = self.call("close", drain=True)
        self.closed = True
        return self._posture


@dataclass
class WorkerReconciliation:
    """Byte-exact shutdown accounting, worker by worker."""

    ok: bool
    workers: List[Dict[str, Any]]
    expected_blocks: int
    reported_blocks: int

    @property
    def expected_pages(self) -> int:
        return self.expected_blocks * PAGES_PER_BLOCK

    @property
    def reported_pages(self) -> int:
        return self.reported_blocks * PAGES_PER_BLOCK


# ---------------------------------------------------------------------------
# The pool stack
# ---------------------------------------------------------------------------


class WorkerPoolStack(ControlPlane):
    """A fully wired multi-process lock service (see module docstring)."""

    service_name = "lock-service-workers"
    partition_label = "worker"

    def __init__(self, config: Optional[WorkerPoolConfig] = None) -> None:
        cfg = config or WorkerPoolConfig()
        super().__init__(cfg, None)
        self._own_socket_dir = cfg.socket_dir is None
        self.socket_dir = cfg.socket_dir or tempfile.mkdtemp(
            prefix="repro-workers-"
        )
        blocks = (
            round_pages_to_blocks(cfg.initial_locklist_pages)
            // PAGES_PER_BLOCK
        )
        self._wire(
            [
                PipePartition(
                    idx,
                    os.path.join(self.socket_dir, f"worker-{idx}.sock"),
                    share,
                    self._service_borrows,
                )
                for idx, share in enumerate(initial_split(blocks, cfg.workers))
            ],
            # The borrow-consumer token: borrows are served, and passes
            # run, only under this condition -- one registry mutator at
            # a time, whichever thread it is.
            cond=threading.Condition(),
            sessions=lambda: self.ledger.total("sessions"),
            escalations=lambda: self.ledger.total("escalations"),
            sweep_interval_s=cfg.deadlock_interval_s,
        )
        self.frozen_reason: Optional[str] = None
        self._freeze_request: Optional[str] = None
        self.worker_crashes = 0
        self._watch_stop = threading.Event()
        self._watch_thread: Optional[threading.Thread] = None
        self._stopping = False
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerPoolStack":
        if self._started:
            raise ConfigurationError("worker pool already started")
        self._fork_workers()
        self._start_daemons()
        self._watch_thread = threading.Thread(
            target=self._watch_loop, name="worker-watcher", daemon=True
        )
        self._watch_thread.start()
        return self

    def _fork_workers(self) -> None:
        # Workers are forked BEFORE any parent thread starts: forking a
        # multi-threaded process can capture locks mid-flight in the
        # child.  The child runs _worker_main and never touches the
        # parent's objects, so the copied registry/controller are inert.
        ctx = get_context("fork")
        cfg = self.config
        initial_fraction = self.maxlocks.fraction()
        for part in self.partitions:
            ctl_parent, ctl_child = ctx.Pipe()
            borrow_parent, borrow_child = ctx.Pipe()
            part.process = ctx.Process(
                target=_worker_main,
                args=(
                    cfg,
                    part.idx,
                    part.chain.block_count,
                    part.sock_path,
                    initial_fraction,
                    ctl_child,
                    borrow_child,
                ),
                name=f"lock-worker-{part.idx}",
                daemon=True,
            )
            part.process.start()
            ctl_child.close()
            borrow_child.close()
            part.ctl, part.borrow = ctl_parent, borrow_parent
        for part in self.partitions:
            tag, idx, part._posture = part.ctl.recv()  # ready handshake
            if tag != "ready" or idx != part.idx:
                raise ServiceError(
                    f"worker {part.idx} failed its ready handshake: {tag!r}"
                )

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        """Per-worker data-plane addresses (``("unix:<path>", 0)``)."""
        return [(f"unix:{part.sock_path}", 0) for part in self.partitions]

    def client_stack(
        self,
        *,
        pool_size: int = 1,
        max_in_flight: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
    ):
        """A :class:`LoadDriver`-shaped client stack routed over the pool."""
        from repro.net.client import RoutedClientStack

        tracer = None
        if self.config.trace_sample_every > 0:
            tracer = RequestTracer(self.config.trace_sample_every)
            self.request_tracers.append(tracer)
        return RoutedClientStack(
            self.endpoints,
            pool_size=pool_size,
            max_in_flight=max_in_flight or self.config.max_in_flight,
            max_queue_depth=max_queue_depth
            or self.config.admission_queue_depth,
            metrics=self.metrics,
            tracer=tracer,
        )

    # -- the arbiter's side of the control plane ---------------------------

    def wait_for_pass(self, stop: threading.Event, seconds: float) -> bool:
        """Between passes the arbiter keeps granting borrows.

        Synchronous-growth requests are answered the moment they arrive
        -- a pass does the same *while it is mid-distribution* (see the
        module docstring's deadlock note).
        """
        deadline = time.monotonic() + seconds
        while not stop.is_set():
            self._service_borrows(
                min(0.05, max(0.0, deadline - time.monotonic()))
            )
            self._apply_pending_freeze()
            if time.monotonic() >= deadline:
                break
        return stop.is_set()

    def before_pass(self) -> None:
        """Sample worker posture, so the controller tunes against fresh
        occupancy."""
        for part in self.ledger.live():
            with contextlib.suppress(ServiceError):
                part.occupancy(drain=True)

    def _broadcast(self, op: str, *args: Any) -> None:
        for part in self.ledger.live():
            with contextlib.suppress(ServiceError):
                part.call(op, *args, drain=True)

    def _service_borrows(self, timeout_s: float) -> None:
        """Grant (or deny) queued synchronous-growth requests.

        A grant moves pages from overflow into the locklist heap
        (``sync_grow``), reserves the blocks for the requesting worker
        in the mirror, and replies with the grant plus the fresh
        MAXLOCKS fraction; the worker's manager chains the blocks on its
        side of the pipe.  Waiting for a request needs no lock; serving
        one takes the pool's condition, and re-polls under it, so a
        thread running a pass and the arbiter never both consume the
        same request.
        """
        conns = {part.borrow: part for part in self.ledger.live()}
        if not conns:
            if timeout_s > 0:
                time.sleep(min(timeout_s, 0.05))
            return
        try:
            ready = conn_wait(list(conns), timeout_s if timeout_s > 0 else 0)
        except OSError:
            return
        if not ready:
            return
        with self._cond:
            for conn in ready:
                part = conns[conn]
                try:
                    if not conn.poll(0):
                        continue  # the condition's last holder served it
                    wanted = conn.recv()
                except (EOFError, OSError):
                    continue  # the watcher owns death handling
                granted = 0
                if (
                    int(wanted) > 0
                    and not self._stopping
                    and self.frozen_reason is None
                    and not part.dead
                ):
                    granted = self.controller.sync_grow(int(wanted))
                    if granted:
                        part.chain.block_count += granted
                        self.ledger.record_sync_borrow(part.idx, granted)
                with contextlib.suppress(OSError):
                    conn.send((granted, self.maxlocks.fraction()))

    # -- degraded modes ----------------------------------------------------

    def freeze_tuning(self, reason: str) -> None:
        """Freeze the whole pool to static LOCKLIST (tuner contract).

        Safe from the arbiter thread (broadcasts immediately, draining
        borrows into denials); other threads set the reason and leave
        the broadcast to the arbiter loop via ``_apply_pending_freeze``.
        """
        if self.frozen_reason is not None:
            return
        self.frozen_reason = reason
        if threading.current_thread() is self.tuner._thread:  # noqa: SLF001
            self._broadcast("freeze", reason)
        else:
            self._freeze_request = reason

    def _apply_pending_freeze(self) -> None:
        """Arbiter loop: deliver a freeze requested by another thread."""
        reason = self._freeze_request
        if reason is None:
            return
        self._freeze_request = None
        self._broadcast("freeze", reason)

    def _watch_loop(self) -> None:
        while not self._watch_stop.wait(0.1):
            for part in self.partitions:
                if part.crash_reported or part.closed or self._stopping:
                    continue
                # A control call racing the watcher may have flagged
                # ``dead`` already -- the degrade response (freeze,
                # incident, crash counter) still runs exactly once,
                # here.
                if part.dead or not part.process.is_alive():
                    part.crash_reported = True
                    self._on_worker_death(part)

    def _on_worker_death(self, part: PipePartition) -> None:
        """A worker crashed: degrade exactly like a tuner crash.

        Survivors freeze to static LOCKLIST, an incident is recorded,
        ``/healthz`` flips to 503.  The dead worker's blocks stay in
        the mirror (stranded, exactly as a crashed process strands its
        memory) and are reported as such by the shutdown reconcile.
        """
        part.dead = True
        self.worker_crashes += 1
        reason = (
            f"worker {part.idx} died (exit code {part.process.exitcode})"
        )
        self.incidents.append(
            IncidentRecord(
                kind="worker-crash",
                time=self.clock.now(),
                app_id=-1,
                shard=part.idx,
                detail=reason,
                posture={
                    "mirror_blocks": part.chain.block_count,
                    "last_occupancy": dict(part.posture()),
                },
                data={"exit_code": part.process.exitcode},
            )
        )
        self.freeze_tuning(reason)

    def record_sweep_victim(
        self, owner: PipePartition, victim: int, resource: str, cycle: List[int]
    ) -> None:
        self.incidents.append(
            IncidentRecord(
                kind="deadlock",
                time=self.clock.now(),
                app_id=victim,
                shard=owner.idx,
                detail=(
                    f"cross-partition sweep: victim by smallest global "
                    f"footprint among cycle {sorted(cycle)} "
                    f"(resource {resource or 'unknown'})"
                ),
                cycle=cycle,
                posture=dict(owner.posture()),
                data={"workers": self.config.workers},
            )
        )

    # -- shutdown ----------------------------------------------------------

    def stop(self) -> None:
        """Stop tuning, close every worker, reconcile byte-exactly."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._stop_daemons()
        self._stopping = True
        self._watch_stop.set()
        if self._watch_thread is not None:
            self._watch_thread.join(timeout=5.0)
        # The arbiter has joined: this thread is now the sole borrow
        # consumer.  Workers blocked on a borrow get denials while
        # their close is negotiated.
        reports: List[Dict[str, Any]] = []
        for part in self.partitions:
            expected = part.chain.block_count
            entry: Dict[str, Any] = {
                "worker": part.idx,
                "expected_blocks": expected,
                "borrowed_blocks": self.ledger.borrowed_blocks(part.idx),
                "state": "crashed",
                "reported_blocks": None,
            }
            reports.append(entry)
            if part.dead:
                continue
            try:
                final = part.close()
            except ServiceError as exc:
                part.dead = True
                entry["error"] = str(exc)
                continue
            matched = (
                final["block_count"] == expected and final["used_slots"] == 0
            )
            entry.update(
                state="closed" if matched else "mismatch",
                reported_blocks=final["block_count"],
                reported_used_slots=final["used_slots"],
                sessions=final["sessions"],
            )
        ok = all(entry["state"] == "closed" for entry in reports)
        self.reconciliation = WorkerReconciliation(
            ok=ok,
            workers=reports,
            expected_blocks=sum(
                entry["expected_blocks"] for entry in reports
            ),
            reported_blocks=sum(
                entry["reported_blocks"] or 0 for entry in reports
            ),
        )
        for part in self.partitions:
            part.process.join(timeout=5.0)
            if part.process.is_alive():  # pragma: no cover - watchdog
                part.process.terminate()
                part.process.join(timeout=5.0)
        # Return transiently borrowed blocks to overflow, exactly like
        # LockService.close's borrow_return (the mirror stands in for
        # the closed workers' chains).
        if ok:
            self.controller.reclaim_transient_blocks()
        for part in self.partitions:
            with contextlib.suppress(OSError):
                part.ctl.close()
            with contextlib.suppress(OSError):
                part.borrow.close()
            with contextlib.suppress(OSError):
                os.unlink(part.sock_path)
        if self._own_socket_dir:
            shutil.rmtree(self.socket_dir, ignore_errors=True)

    def check_invariants(self) -> None:
        """The shared invariants, plus -- once stopped -- the reconcile:
        every worker's final block count matched the mirror."""
        super().check_invariants()
        rec = self.reconciliation
        if rec is not None and not rec.ok:
            raise MemoryAccountingError(
                f"worker reconciliation failed: {rec.workers}"
            )

    # -- the ops plane -----------------------------------------------------

    def _refresh_for_scrape(self) -> None:
        """Pull every live worker's posture and registry snapshot, then
        publish the liveness gauges only the pool has."""
        reg = self.metrics
        if not self._stopping:
            for part in self.ledger.live():
                with contextlib.suppress(ServiceError):
                    part.occupancy()
                with contextlib.suppress(ServiceError):
                    snapshot = part.call("metrics")
                    if snapshot is not None:
                        self._install_worker_metrics(part.idx, snapshot)
        for part in self.partitions:
            reg.gauge("worker.alive", labels=self._labels(part.idx)).set(
                0.0 if part.dead else 1.0
            )
        reg.gauge("service.workers").set(float(self.config.workers))
        reg.gauge("service.workers_alive").set(
            float(len(self.ledger.live()))
        )

    def _health(self) -> Dict[str, Any]:
        alive = [not part.dead for part in self.partitions]
        return {
            "serving": all(alive) and not self._stopped,
            "workers": self.config.workers,
            "workers_alive": sum(alive),
            "worker_crashes": self.worker_crashes,
        }

    def _install_worker_metrics(self, idx: int, snapshot: dict) -> None:
        """Merge one worker's registry snapshot under ``worker="N"``.

        Each worker process keeps its own registry (counters increment
        in its address space, invisible to the parent); a scrape pulls
        every live worker's snapshot over the control plane and lands
        the series here with the worker label added, so one ``/metrics``
        endpoint carries the whole pool.
        """
        reg = self.metrics

        def _relabel(full: str) -> str:
            base, pairs = parse_labeled_name(full)
            labels = dict(pairs)
            labels["worker"] = str(idx)
            return labeled_name(base, labels)

        for name, value in snapshot.get("counters", {}).items():
            reg.counter(_relabel(name)).value = float(value)
        for name, value in snapshot.get("gauges", {}).items():
            reg.gauge(_relabel(name)).set(float(value))
        for name, hist in snapshot.get("histograms", {}).items():
            renamed = dict(hist)
            renamed["name"] = _relabel(name)
            reg.install(Histogram.from_snapshot(renamed))

    def _server_spans(self) -> Dict[str, Any]:
        """Each live worker's span ring, so a truncated client trace can
        still be attributed from the surviving side."""
        server_spans: Dict[str, Any] = {}
        if self._started and not self._stopping:
            for part in self.ledger.live():
                with contextlib.suppress(ServiceError):
                    spans = part.call("traces")
                    if spans is not None:
                        server_spans[str(part.idx)] = spans
        return server_spans


__all__ = [
    "PipePartition",
    "WorkerDiedError",
    "WorkerPoolConfig",
    "WorkerPoolStack",
    "WorkerReconciliation",
]
