"""Workloads and ladder rungs of the benchmark.

Everything here drives the program **from outside**: it builds the
stacks through their public constructors, times calls into public
functions and reads counters the program already exposes.  The load is
closed loop -- a client is a DB session that issues its next lock
request only after the previous one returned -- and every input is a
function of the seed; the program only ever sees ``(table_id, row_id,
mode)`` tuples.

A *bench* is one built stack plus its clients.  It is driven as
``start() -> warm_up() -> window()... -> observe() -> close()``;
:func:`run_pass` does that, timing set-up and CPU around it, and
:func:`ladder` replays the churn script once through each rung.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
from array import array
from contextlib import contextmanager
from statistics import median
from time import clock_gettime, perf_counter, process_time, sleep
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.des import Environment
from repro.engine.transactions import TransactionMix
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import (
    DeadlockError,
    LockListFullError,
    LockManager,
    LockTimeoutError,
)
from repro.lockmgr.modes import LockMode
from repro.net import protocol as wire
from repro.obs.tracing import HOP_NAMES, hop_percentiles
from repro.service.admission import AdmissionController
from repro.service.sharded import ShardedServiceConfig, ShardedServiceStack
from repro.service.stack import ServiceConfig, ServiceStack
from repro.service.workers import WorkerPoolConfig, WorkerPoolStack

from stats import SpanLog, handoffs, mean_us, percentile, summarize, tail_quantile

WORKLOADS = ("churn_inproc", "churn_wire", "convoy_inproc", "surge_inproc")

#: The LoadDriver default mix (src/repro/service/driver.py), restated
#: here because the harness must not import the driver.
MIX = TransactionMix(
    locks_per_txn_mean=12.0,
    think_time_mean_s=0.0,
    work_time_per_lock_s=0.0,
    rows_per_table=50_000,
    hot_access_probability=0.25,
)
SCRIPT_TXNS = 4_000
WARMUP_TXNS = 2_000
TIMEOUT_S = 5.0
MAX_ATTEMPTS = 8
#: Pause before retrying a rolled-back attempt.  Without it a client
#: that still holds the GIL retries before the granted waiter's thread
#: has run, hits the same stale wait-for entry (README, finding 1) and
#: burns all its attempts in a few hundred microseconds.
RETRY_BACKOFF_S = 0.0005
ROLLBACK_ERRORS = (DeadlockError, LockTimeoutError, LockListFullError)
TUNER_INTERVAL_S = 0.05
#: Large enough that no audit record is evicted during a run, so the
#: reason counts are totals (the default ring of 256 holds ~13 s).
AUDIT_CAPACITY = 8_192

CONVOY_PRIVATE_ROWS = 8
CONVOY_HOLD_S = 0.0005
CONVOY_THINK_S = 0.0005
CONVOY_PROBE_EVERY_S = 0.1
CONVOY_HOT = (0, 0, LockMode.X)

SURGE_SESSIONS = 8
SURGE_LOCKS = 12_000
SURGE_TUNE_EVERY = 16_384

#: Transactions (surge: lock requests) between two host-speed probes.
BURST_TXNS = 50
SURGE_BURST_LOCKS = 512
SPIN_ITERATIONS = 2_500
#: What one :func:`spin` takes on the box this benchmark was sized on
#: when nothing disturbs it.  Only a scale: it makes a figure taken at
#: host speed 1.0 read the same as the raw one.
SPIN_REFERENCE_S = 300e-6

SPAN_NAMES = ("txn", "open_session", "lock_row", "close_session")
TXN, OPEN, LOCK, CLOSE = range(4)

Access = Tuple[int, int, LockMode]


class CheckFailed(Exception):
    """The program's outputs were wrong; the message names the check."""


@contextmanager
def phase(name: str):
    """Tag whatever escapes the block with the phase it escaped from."""
    try:
        yield
    except BaseException as exc:
        if not hasattr(exc, "ladder_phase"):
            exc.ladder_phase = name
        raise


# -- inputs ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Script:
    """The churn lock script: transactions of (table, row, mode)."""

    seed: int
    txns: List[List[Access]]
    requests: int
    sha256: str


def make_script(seed: int, transactions: int = SCRIPT_TXNS) -> Script:
    rng = random.Random(seed)
    txns = [
        [(a.table_id, a.row_id, a.mode) for a in MIX.draw_transaction(rng)]
        for _ in range(transactions)
    ]
    digest = hashlib.sha256()
    for txn in txns:
        digest.update(
            ";".join(f"{t},{r},{m.value}" for t, r, m in txn).encode() + b"\n"
        )
    return Script(seed, txns, sum(map(len, txns)), digest.hexdigest())


def make_convoy_txns(seed: int, client: int, count: int = 1_000) -> List[List[Access]]:
    """Hot row first, then private rows in the client's own table."""
    rng = random.Random(f"{seed}:convoy:{client}")
    return [
        [CONVOY_HOT]
        + [
            (1 + client, row, LockMode.X)
            for row in rng.sample(range(MIX.rows_per_table), CONVOY_PRIVATE_ROWS)
        ]
        for _ in range(count)
    ]


def make_surge_rows(
    seed: int, sessions: int, locks: int
) -> List[List[Tuple[int, int]]]:
    """Per session, ``locks`` distinct (table, row) pairs.

    The seed only permutes row ids: every session touches every table,
    so the slot count (rows + one intent lock per session and table)
    is the same for every seed.
    """
    rng = random.Random(f"{seed}:surge")
    space = MIX.num_tables * MIX.rows_per_table
    return [
        [divmod(x, MIX.rows_per_table) for x in rng.sample(range(space), locks)]
        for _ in range(sessions)
    ]


# -- host speed -------------------------------------------------------------------
#
# The host this runs on changes speed by tens of percent, within a
# second and for minutes on end, in CPU time as much as in wall time (a
# neighbour on the sibling hardware thread, not steal).  Interleaving a
# fixed piece of interpreter work with the measured work every few
# milliseconds tracks it: over 120 s of ``churn_inproc`` the time per
# request moved 18 % between seconds (IQR) and 21 % between 20 s
# medians, its ratio to the spin time 3 % and 3 %.  Workloads whose
# time is all CPU therefore report every timing *at reference host
# speed*: each burst of work is scaled by reference spin / the mean of
# the spins right before and right after it.  README, "Host speed".


def spin() -> float:
    """Seconds a fixed loop of dictionary and integer work takes now."""
    began = perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(SPIN_ITERATIONS):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return perf_counter() - began


def host_speed(spins: Sequence[float]) -> float:
    """1.0 at the reference speed, 0.8 on a host running 20 % slower."""
    return SPIN_REFERENCE_S / median(spins)


def at_reference_speed(seconds: float) -> float:
    """``seconds`` just measured, scaled by the host speed right now."""
    return seconds * host_speed([spin() for _ in range(5)])


# -- clients ---------------------------------------------------------------------


class Burst(NamedTuple):
    """One stretch of measured work between two host-speed probes."""

    work_s: float
    cpu_s: float  # this process
    kid_cpu_s: float  # the program's other processes (the pool's worker)
    speed: float  # host speed over the burst: spin before and spin after
    locks: int  # len(lock_s) / len(txn_s) when the burst ended: its
    txns: int  # samples are the ones since the burst before it ended


class Client:
    """One closed-loop session owner; times every call it makes.

    ``kid_cpu`` reads the CPU seconds used so far by the program's
    other processes, where it has any.
    """

    def __init__(
        self, service, spans: bool, kid_cpu: Optional[Callable[[], float]] = None
    ) -> None:
        self.service = service
        self.log: Optional[SpanLog] = SpanLog(SPAN_NAMES) if spans else None
        self.kid_cpu = kid_cpu
        self.last_spin = spin()
        self.reset()

    def reset(self) -> None:
        """Start a new window (span logs are kept across windows)."""
        self.lock_s = array("d")
        self.txn_s = array("d")
        #: Transaction times already at reference speed (surge: a
        #: transaction spans many bursts, so the bench scales it).
        self.txn_ref_s: List[float] = []
        self.attempts = self.commits = self.raised = self.failed = 0
        self.slept_s = 0.0  # in scripted hold sleeps, as actually slept
        self.bursts: List[Burst] = []

    @contextmanager
    def burst(self):
        """Account the enclosed work, then probe the host speed once."""
        kid_cpu = self.kid_cpu
        kids0 = kid_cpu() if kid_cpu else 0.0
        cpu0, began = process_time(), perf_counter()
        yield
        work_s = perf_counter() - began
        cpu_s = process_time() - cpu0
        kid_cpu_s = kid_cpu() - kids0 if kid_cpu else 0.0
        before, self.last_spin = self.last_spin, spin()
        self.bursts.append(
            Burst(
                work_s,
                cpu_s,
                kid_cpu_s,
                2.0 * SPIN_REFERENCE_S / (before + self.last_spin),
                len(self.lock_s),
                len(self.txn_s),
            )
        )

    def reference_seconds(self, field: str) -> float:
        """``work_s``, ``cpu_s`` or ``kid_cpu_s`` summed over the window,
        each burst's share scaled by the host speed it ran at."""
        return sum(getattr(burst, field) * burst.speed for burst in self.bursts)

    def reference_samples(self) -> Tuple[List[float], List[float]]:
        """(lock_row, transaction) latencies of the window's bursts,
        every sample scaled by the host speed of the burst it is from."""
        lock_s, txn_s = [], list(self.txn_ref_s)
        locks = txns = 0
        for burst in self.bursts:
            speed = burst.speed
            lock_s.extend(s * speed for s in self.lock_s[locks : burst.locks])
            txn_s.extend(s * speed for s in self.txn_s[txns : burst.txns])
            locks, txns = burst.locks, burst.txns
        return lock_s, txn_s

    def transact(self, accesses: Sequence[Access], hold_s: float = 0.0) -> None:
        """One operation: a transaction, retried like an application would.

        It fails when no attempt out of ``MAX_ATTEMPTS`` commits;
        anything but a rollback error escapes and fails the run.
        """
        service, lock_s, log = self.service, self.lock_s, self.log
        for _ in range(MAX_ATTEMPTS):
            self.attempts += 1
            opened = perf_counter()
            app = service.open_session()
            t1 = perf_counter()
            root = -1
            if log is not None:
                root = log.open(TXN, opened)
                log.add(OPEN, opened, t1, root)
            try:
                for table, row, mode in accesses:
                    t0 = perf_counter()
                    service.lock_row(app, table, row, mode, timeout_s=TIMEOUT_S)
                    t1 = perf_counter()
                    lock_s.append(t1 - t0)
                    if log is not None:
                        log.add(LOCK, t0, t1, root)
                committed = True
            except ROLLBACK_ERRORS:
                self.raised += 1
                committed = False
            t0 = perf_counter()
            if committed and hold_s:
                sleep(hold_s)
                slept = perf_counter() - t0
                self.slept_s += slept
                t0 += slept  # close_session starts after the sleep
            else:
                slept = 0.0
            service.close_session(app)
            t1 = perf_counter()
            if log is not None:
                log.add(CLOSE, t0, t1, root)
                log.close(root, t1)
            if committed:
                self.commits += 1
                self.txn_s.append(t1 - opened - slept)
                return
            sleep(RETRY_BACKOFF_S)
        self.failed += 1

    def replay(self, txns, position: int, *, until: float = 0.0, count: int = 0) -> int:
        """Replay ``txns`` cyclically from ``position``; returns the new one."""
        size, last = len(txns), position + count
        while (position < last) if count else (perf_counter() < until):
            stop = position + BURST_TXNS
            if count:
                stop = min(stop, last)
            with self.burst():
                for index in range(position, stop):
                    self.transact(txns[index % size])
            position = stop
        return position


@dataclasses.dataclass
class Window:
    """What the clients did in one timed window, reduced to numbers.

    The latency samples are sorted, read and dropped here, so a run
    holds one window of samples at a time and not all of them.
    """

    #: Host speed the window's durations were scaled by (work-weighted
    #: over its bursts), and its rates (1.0: not scaled).
    speed: float
    rate_speed: float
    granted: int
    attempts: int
    commits: int
    raised: int
    failed: int
    metrics: Dict[str, float]
    #: (quantile, microseconds): the highest percentile of ``lock_row``
    #: latency with at least ten samples beyond it (None: too few).
    tail: Optional[Tuple[float, float]]
    #: Workload-specific exact counts (surge: peak pages, settle passes).
    counts: Dict[str, int]

    @classmethod
    def of(
        cls,
        clients: Sequence[Client],
        *,
        rate_s: float,
        cpu_s: float,
        kid_cpu_s: float,
        lock_s: List[float],
        txn_s: List[float],
        speed: float,
        rate_speed: float,
        **counts: int,
    ) -> "Window":
        """``rate_s`` is the time the rates are over; it, the CPU
        seconds and the latency samples arrive at reference speed."""
        lock_s.sort()
        txn_s.sort()
        granted = sum(len(client.lock_s) for client in clients)
        commits = sum(c.commits for c in clients)
        metrics = {}
        if rate_s and lock_s and txn_s:
            metrics = {
                "lock_rps": granted / rate_s,
                "commit_tps": commits / rate_s,
                "lock_p50_us": percentile(lock_s, 0.50) * 1e6,
                "lock_p99_us": percentile(lock_s, 0.99) * 1e6,
                "txn_p50_us": percentile(txn_s, 0.50) * 1e6,
                "own_cpu_us_per_req": cpu_s / granted * 1e6,
                "kid_cpu_us_per_req": kid_cpu_s / granted * 1e6,
            }
        q = tail_quantile(len(lock_s))
        return cls(
            speed=speed,
            rate_speed=rate_speed,
            granted=granted,
            attempts=sum(c.attempts for c in clients),
            commits=commits,
            raised=sum(c.raised for c in clients),
            failed=sum(c.failed for c in clients),
            metrics=metrics,
            tail=None if q is None else (q, percentile(lock_s, q) * 1e6),
            counts=counts,
        )


# -- benches ---------------------------------------------------------------------


def manager_counters(stats: dict) -> Dict[str, float]:
    """``lockmgr.*`` per-layer counters from a LockManagerStats dict."""
    requests = stats["requests"]
    return {
        "lockmgr.requests": requests,
        "lockmgr.immediate_grants": stats["immediate_grants"],
        "lockmgr.immediate_grant_ratio": (
            stats["immediate_grants"] / requests if requests else 0.0
        ),
        "lockmgr.waits": stats["waits"],
        "lockmgr.wait_time_s": stats["wait_time_total"],
        "lockmgr.deadlocks": stats["deadlocks"],
        "lockmgr.lock_timeouts": stats["lock_timeouts"],
        "lockmgr.sync_growth_blocks": stats["sync_growth_blocks"],
        "lockmgr.peak_used_slots": stats["peak_used_slots"],
        "lockmgr.escalations": len(stats["escalations"]["outcomes"]),
    }


def audit_counters(audit) -> Dict[str, float]:
    reasons = audit.reasons()
    return {
        "core.audit.grow_async": reasons.count("grow-async"),
        "core.audit.shrink_5pct": reasons.count("shrink-5pct"),
        "core.audit.double_recovery": reasons.count("double-escalation-recovery"),
        "core.audit.noop": reasons.count("noop"),
    }


class ChurnInproc:
    """One client replays the script through a live ``ServiceStack``.

    Also the base of every other bench: they share the life cycle, the
    counters read from the stack and the checks made on it.

    ``spans`` turns on the harness's own spans around each call;
    ``instrument`` turns on the program's instrumentation
    (``wait_profile``, ``trace_sample_every``).  Timed passes have both
    off, traced passes both on, ladder rungs spans only.
    """

    name = "churn_inproc"
    live_tuner = True
    #: Seconds of one timed window.
    window_s = 0.5
    #: What a run reports of a windowed metric: False the median window,
    #: True the window a tenth of them beat (README, "Windows").
    best_decile = False
    #: True: the program runs in more than this process.
    program_forks = False
    #: True: a window is one whole cycle, however long it takes.
    whole_cycles = False

    def __init__(self, inputs: "Inputs", *, spans: bool, instrument: bool) -> None:
        self.inputs = inputs
        self.spans = spans
        self.instrument = instrument
        self.problems: List[str] = []
        self.peak_pages = 0
        self.granted = 0  # lock_row calls that returned, warm-up included
        self.position = 0
        self.stack = None
        self.clients: List[Client] = []

    # -- life cycle --

    def config(self) -> dict:
        return dict(
            tuner_interval_s=TUNER_INTERVAL_S,
            audit_capacity=AUDIT_CAPACITY,
            wait_profile=self.instrument,
        )

    def build(self):
        return ServiceStack(ServiceConfig(**self.config()))

    def start(self) -> None:
        self.stack = self.build()
        if self.live_tuner:
            self.stack.start()
        self.service = self.stack.service
        self.clients = [Client(self.service, self.spans)]

    def warm_up(self) -> Window:
        return self.replay(count=self.inputs.warmup_txns)

    def window(self, seconds: float) -> Window:
        return self.replay(seconds=seconds)

    def replay(self, *, seconds: float = 0.0, count: int = 0) -> Window:
        self.position = self.clients[0].replay(
            self.inputs.script.txns,
            self.position,
            until=perf_counter() + seconds,
            count=count,
        )
        return self.end_window()

    def end_window(self, **counts: int) -> Window:
        """Reduce the bursts the clients worked since the last call to a
        Window, every burst at the host speed probed around it."""
        clients = self.clients
        work_s = sum(burst.work_s for client in clients for burst in client.bursts)
        rate_s = sum(client.reference_seconds("work_s") for client in clients)
        lock_s: List[float] = []
        txn_s: List[float] = []
        for client in clients:
            locks, txns = client.reference_samples()
            lock_s += locks
            txn_s += txns
        speed = rate_s / work_s if work_s else 1.0
        return self.close_window(
            Window.of(
                clients,
                rate_s=rate_s,
                cpu_s=sum(client.reference_seconds("cpu_s") for client in clients),
                kid_cpu_s=sum(
                    client.reference_seconds("kid_cpu_s") for client in clients
                ),
                lock_s=lock_s,
                txn_s=txn_s,
                speed=speed,
                rate_speed=speed,
                **counts,
            )
        )

    def close_window(self, window: Window) -> Window:
        self.granted += window.granted
        for client in self.clients:
            client.reset()
        self.sample_pages()
        return window

    def sample_pages(self) -> None:
        self.peak_pages = max(self.peak_pages, self.stack.chain.allocated_pages)

    def close(self) -> None:
        if self.stack is not None:
            self.stack.stop()

    # -- counters and checks --

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(f"{self.name}: {message}")

    def check_invariants(self) -> None:
        try:
            self.stack.check_invariants()
        except Exception as exc:  # noqa: BLE001 - any breach is a failed check
            self.check(False, f"check_invariants: {type(exc).__name__}: {exc}")

    def observe(self) -> Dict[str, float]:
        """Read the program's counters and check its state, before close."""
        stack = self.stack
        self.fold_audit_peak()
        stats, granted = self.program_stats()
        counters = manager_counters(stats)
        counters.update(audit_counters(stack.tuner.audit))
        counters["core.final_locklist_pages"] = stack.chain.allocated_pages
        self.check(
            granted == self.granted,
            f"service granted {granted} requests, clients saw {self.granted} return",
        )
        self.check(counters["lockmgr.escalations"] == 0, "lock escalation happened")
        if self.instrument:
            counters.update(self.instrument_counters())
        return counters

    def fold_audit_peak(self) -> None:
        """A pass between two samples may have grown and shrunk LOCKLIST."""
        for record in self.stack.tuner.audit.records():
            self.peak_pages = max(
                self.peak_pages, record.current_pages, record.target_pages
            )

    def program_stats(self) -> Tuple[dict, int]:
        """(LockManagerStats as a dict, requests the service says it granted);
        the stack must be idle: nothing in use, every invariant holding."""
        stack = self.stack
        self.check(stack.chain.used_slots == 0, "lock structures left in use")
        self.check_invariants()
        return dataclasses.asdict(stack.manager_stats), self.service.stats.granted

    def instrument_counters(self) -> Dict[str, float]:
        """What the program's own instrumentation counted (traced pass)."""
        latch = self.stack.wait_profilers[0].latch
        return {
            "service.latch_gets": latch.gets,
            "service.latch_misses": latch.misses,
            "service.latch_sleeps": latch.sleeps,
            "service.latch_sleep_s": latch.sleep_time_s,
        }


class ChurnSharded(ChurnInproc):
    """Ladder rung only: the same script through the sharded facade."""

    name = "service.sharded"

    def build(self):
        return ShardedServiceStack(ShardedServiceConfig(shards=2, **self.config()))

    def program_stats(self) -> Tuple[dict, int]:
        stats, _ = super().program_stats()
        return stats, self.service.aggregate_stats().granted


def worker_cpu_clock() -> Callable[[], float]:
    """Reads the CPU seconds this process's live children have used.

    A child's ``getrusage`` is only readable once it has been reaped;
    its CPU-time clock (``clock_getcpuclockid(3)``: ``~pid << 3 | 2``) at
    any time, which lets a window price the worker's share of a request.
    """
    import multiprocessing  # only to ask for the workers' pids: forks nothing

    clocks = [(~child.pid << 3) | 2 for child in multiprocessing.active_children()]
    return lambda: sum(map(clock_gettime, clocks))


class ChurnWire(ChurnInproc):
    """The identical script over the UDS to a one-worker pool."""

    name = "churn_wire"
    best_decile = True
    program_forks = True

    def build(self):
        self.socket_dir = self.inputs.socket_dir()
        return WorkerPoolStack(
            WorkerPoolConfig(
                workers=1,
                tuner_interval_s=TUNER_INTERVAL_S,
                audit_capacity=AUDIT_CAPACITY,
                socket_dir=self.socket_dir,
                trace_sample_every=8 if self.instrument else 0,
            )
        )

    def start(self) -> None:
        self.net = None
        self.stack = self.build()
        self.stack.start()
        self.net = self.stack.client_stack(pool_size=1)
        self.service = self.net.service
        self.service.ping()
        self.clients = [Client(self.service, self.spans, worker_cpu_clock())]

    def close(self) -> None:
        if self.stack is None:
            return
        try:
            if self.net is not None:
                self.net.close()
            self.stack.stop()
        finally:
            shutil.rmtree(self.socket_dir, ignore_errors=True)
        # Only a stopped pool has reconciled its workers' blocks.
        rec = self.stack.reconciliation
        if rec is not None:
            self.check(rec.ok, f"reconciliation failed: {rec.workers}")
            self.check(
                rec.expected_blocks == rec.reported_blocks,
                f"arbiter expected {rec.expected_blocks} blocks, "
                f"workers reported {rec.reported_blocks}",
            )
            self.check_invariants()

    def program_stats(self) -> Tuple[dict, int]:
        payload = self.service.stats()[0]
        return payload["manager"], payload["service"]["granted"]

    def instrument_counters(self) -> Dict[str, float]:
        """p50 of each hop over the program's own sampled traces."""
        traces = [
            trace
            for tracer in self.stack.request_tracers
            for trace in tracer.to_dicts()
        ]
        hops = hop_percentiles(traces)
        return {
            f"net.hop.{hop}_p50_us": hops[hop]["p50"] * 1e6
            for hop in HOP_NAMES
            if hop in hops
        }


#: Burns this CPU's idle time, at idle priority, for as long as the
#: benchmark lives (and 170 s at most).  While both convoy clients sleep
#: the vCPU would halt, and a halted vCPU wakes when the *host* gets
#: round to it: ``sleep(0.0005)`` then takes 580-1000 us and longer in a
#: busy hour, 567-573 us with this running.  The clients' sleeps pace
#: the convoy, so without it the host's wake-up latency is the result.
IDLE_BURNER = """
import os, time
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except OSError:
    os.nice(19)
parent, until = os.getppid(), time.monotonic() + 170
while os.getppid() == parent and time.monotonic() < until:
    for _ in range(100000):
        pass
"""


class ConvoyInproc(ChurnInproc):
    """Two clients serialised on one hot row, with scripted sleeps."""

    name = "convoy_inproc"
    #: Its host-speed probes are 100 ms apart: ten to a window.
    window_s = 1.0
    burner = None

    def start(self) -> None:
        super().start()
        self.burner = subprocess.Popen(  # inherits the one-CPU mask
            [sys.executable, "-S", "-c", IDLE_BURNER], stdin=subprocess.DEVNULL
        )
        self.clients = [Client(self.service, self.spans) for _ in range(2)]
        self.txns = [
            make_convoy_txns(self.inputs.seed, i) for i in range(len(self.clients))
        ]
        self.positions = [0] * len(self.clients)

    def replay(self, *, seconds: float = 0.0, count: int = 0) -> Window:
        errors: List[BaseException] = []
        per_client = count // len(self.clients)

        def loop(index: int) -> None:
            client, txns = self.clients[index], self.txns[index]
            position = self.positions[index]
            last = position + per_client
            until = perf_counter() + seconds
            try:
                while (position < last) if count else (perf_counter() < until):
                    client.transact(txns[position % len(txns)], CONVOY_HOLD_S)
                    position += 1
                    sleep(CONVOY_THINK_S)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
            self.positions[index] = position
            ended[index] = perf_counter()

        threads = [
            threading.Thread(target=loop, args=(i,), daemon=True)
            for i in range(len(self.clients))
        ]
        ended = [0.0] * len(threads)
        cpu0, began = process_time(), perf_counter()
        for thread in threads:
            thread.start()
        # The clients sleep between calls, so the host speed is probed
        # from here, beside them: two spins every 100 ms, the first only
        # to warm the caches the sleep cooled.  0.6 % of the time.
        probing_s, spins = 0.0, []
        while any(thread.is_alive() for thread in threads):
            probing_s += spin()
            spins.append(spin())
            sleep(CONVOY_PROBE_EVERY_S)
        if errors:
            raise errors[0]
        cpu_s = process_time() - cpu0 - probing_s - sum(spins)
        # Durations here are CPU (a private-row lock, the hand-off) and
        # follow the host's speed.  The hot row is held back to back, so
        # the window is the hold sleeps, which stay as slept, plus the
        # CPU between them, which is taken to reference speed.
        speed = host_speed(spins)
        clients = self.clients
        wall_s = max(ended) - began
        slept_s = sum(client.slept_s for client in clients)
        rate_s = slept_s + (wall_s - slept_s) * speed
        return self.close_window(
            Window.of(
                clients,
                rate_s=rate_s,
                cpu_s=cpu_s * speed,
                kid_cpu_s=0.0,
                lock_s=[s * speed for client in clients for s in client.lock_s],
                txn_s=[s * speed for client in clients for s in client.txn_s],
                speed=speed,
                rate_speed=rate_s / wall_s,
            )
        )

    def close(self) -> None:
        try:
            super().close()
        finally:
            if self.burner is not None:
                self.burner.kill()
                self.burner.wait()

    def instrument_counters(self) -> Dict[str, float]:
        """Adds the hand-off: holder's ``close_session`` call start ->
        waiter's hot ``lock_row`` return, paired from the clients' spans."""
        counters = super().instrument_counters()
        hot, releases = [], []
        for client in self.clients:
            log = client.log
            waits, first = [], False
            for i, name_id in enumerate(log.name_ids):
                if name_id == OPEN:
                    first = True
                elif name_id == LOCK and first:  # the hot row is locked first
                    waits.append((log.starts[i], log.ends[i]))
                    first = False
            hot.append(waits)
            releases.append([start for start, _ in log.intervals("close_session")])
        samples = sorted(
            handoffs(hot[0], releases[1]) + handoffs(hot[1], releases[0])
        )
        if samples:
            counters["service.handoff_p50_us"] = percentile(samples, 0.50) * 1e6
            counters["service.handoff_p99_us"] = percentile(samples, 0.99) * 1e6
        return counters


class SurgeInproc(ChurnInproc):
    """The paper's Fig. 10/11 shape with scripted tuning passes.

    The stack is built but not started: no daemon thread, the bench
    calls ``tune_now()`` itself once per ``SURGE_TUNE_EVERY`` granted
    requests, so every count is a function of the lock count alone.
    One window is one cycle: all sessions acquire round-robin, close,
    then tuning passes run until LOCKLIST stops shrinking.
    """

    name = "surge_inproc"
    live_tuner = False
    whole_cycles = True

    def start(self) -> None:
        super().start()
        inputs = self.inputs
        self.rows = make_surge_rows(inputs.seed, SURGE_SESSIONS, inputs.surge_locks)
        self.tune_s: List[float] = []
        self.cycles: List[Dict[str, int]] = []

    def warm_up(self) -> Window:
        # As many requests as the other workloads' warm-up makes: enough
        # to leave LOCKLIST at its floor, where every full cycle also ends.
        locks = self.inputs.warmup_txns * int(MIX.locks_per_txn_mean) // SURGE_SESSIONS
        return self.cycle([rows[:locks] for rows in self.rows])

    def window(self, seconds: float) -> Window:
        window = self.cycle(self.rows)
        self.peak_pages = max(self.peak_pages, window.counts["peak_pages"])
        self.cycles.append(window.counts)
        return window

    def sample_pages(self) -> None:
        """The peak is read where it occurs: at the end of acquisition."""

    def tune(self) -> None:
        began = perf_counter()
        self.stack.tuner.tune_now()
        self.tune_s.append(perf_counter() - began)

    def cycle(self, rows: List[List[Tuple[int, int]]]) -> Window:
        client, service, chain = self.clients[0], self.service, self.stack.chain
        lock_s, log = client.lock_s, client.log
        # Round-robin: every session's k-th lock before anyone's (k+1)-th.
        order = [
            (s, table, row)
            for locks in zip(*rows)
            for s, (table, row) in enumerate(locks)
        ]
        began = perf_counter()
        with client.burst():
            apps = [service.open_session() for _ in rows]
        roots = [-1] * len(apps)
        if log is not None:
            roots = [log.open(TXN, began) for _ in apps]
        client.attempts += len(apps)
        until_tune = SURGE_TUNE_EVERY
        for lo in range(0, len(order), SURGE_BURST_LOCKS):
            with client.burst():
                for s, table, row in order[lo : lo + SURGE_BURST_LOCKS]:
                    t0 = perf_counter()
                    service.lock_row(
                        apps[s], table, row, LockMode.S, timeout_s=TIMEOUT_S
                    )
                    t1 = perf_counter()
                    lock_s.append(t1 - t0)
                    if log is not None:
                        log.add(LOCK, t0, t1, roots[s])
                    until_tune -= 1
                    if not until_tune:
                        until_tune = SURGE_TUNE_EVERY
                        self.tune()
        counts = dict(peak_pages=chain.allocated_pages, peak_slots=chain.used_slots)
        settle_passes = 0
        closed_s = []  # since the last burst began
        with client.burst():
            burst_began = perf_counter()
            for s, app in enumerate(apps):
                t0 = perf_counter()
                service.close_session(app)
                t1 = perf_counter()
                client.commits += 1
                closed_s.append(t1 - burst_began)
                if log is not None:
                    log.add(CLOSE, t0, t1, roots[s])
                    log.close(roots[s], t1)
            shrinking = True
            while shrinking:
                before = chain.allocated_pages
                self.tune()
                settle_passes += 1
                shrinking = chain.allocated_pages < before
        # A session lived through every burst of the cycle: the earlier
        # ones whole, each at its own host speed, the last up to its close.
        last = client.bursts[-1]
        earlier_s = client.reference_seconds("work_s") - last.work_s * last.speed
        client.txn_ref_s.extend(earlier_s + s * last.speed for s in closed_s)
        return self.end_window(
            settle_passes=settle_passes,
            final_pages=chain.allocated_pages,
            **counts,
        )

    def fold_audit_peak(self) -> None:
        """The audit trail also covers the warm-up cycle and records
        targets; the reported peak is what was physically allocated."""

    def observe(self) -> Dict[str, float]:
        counters = super().observe()
        peak, controller, cycles = self.peak_pages, self.stack.controller, self.cycles
        limit = controller.max_lock_memory_pages()
        floor = controller.min_lock_memory_pages()
        self.check(peak <= limit, f"peak {peak} pages above maxLockMemory {limit}")
        self.check(
            cycles[-1]["final_pages"] == floor,
            f"LOCKLIST settled at {cycles[-1]['final_pages']}, floor is {floor}",
        )
        self.check(all(c == cycles[0] for c in cycles), f"cycles differ: {cycles}")
        expected = len(self.rows) * (len(self.rows[0]) + MIX.num_tables)
        self.check(
            cycles[0]["peak_slots"] == expected,
            f"{cycles[0]['peak_slots']} slots at peak, expected {expected}",
        )
        counters["core.settle_passes"] = cycles[0]["settle_passes"]
        counters["service.tuner_pass_us"] = sum(self.tune_s) / len(self.tune_s) * 1e6
        return counters


BENCHES = {
    bench.name: bench for bench in (ChurnInproc, ChurnWire, ConvoyInproc, SurgeInproc)
}


# -- a pass: set-ups, warm-up, windows, counters, checks ------------------------------


@dataclasses.dataclass
class Inputs:
    """Everything a bench needs that is a function of the arguments."""

    seed: int
    script: Script
    #: Where pools put their Unix sockets: inside the benchmark's own
    #: directory (nothing is written outside the checkout) and given
    #: *relative* to the working directory, because a socket path holds
    #: at most 107 bytes and the checkout's absolute path is not ours.
    run_dir: str
    warmup_txns: int = WARMUP_TXNS
    surge_locks: int = SURGE_LOCKS
    pools: int = 0

    def socket_dir(self) -> str:
        """A fresh directory for one pool's sockets (the bench removes it)."""
        self.pools += 1
        path = os.path.join(self.run_dir, f"p{os.getpid()}-{self.pools}")
        os.makedirs(path)
        return path


def peak_rss_mib(program_forks: bool) -> float:
    """High-water resident set of this process, plus that of its largest
    child where the program forks (a pool's worker; the convoy's idle
    burner is the harness's own and not the program's memory)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if program_forks:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


#: The windowed metrics that are rates: a higher window is a better one.
RATES = ("lock_rps", "commit_tps")


@dataclasses.dataclass
class PassResult:
    workload: str
    windows: List[Window]
    setup_s: List[float]
    counters: Dict[str, float]
    problems: List[str]
    bench: "ChurnInproc"  # the one measured, closed

    @property
    def attempted(self) -> int:
        """Operations (transactions) attempted in the timed windows."""
        return sum(w.commits + w.failed for w in self.windows)

    @property
    def failed(self) -> int:
        return sum(w.failed for w in self.windows)

    @property
    def retry_share(self) -> float:
        attempts = sum(w.attempts for w in self.windows)
        return sum(w.raised for w in self.windows) / attempts if attempts else 0.0

    def series(self, key: str) -> List[float]:
        return [w.metrics[key] for w in self.windows]

    def summary(self, key: str) -> Dict[str, float]:
        """One windowed metric as a :func:`stats.summarize` dict."""
        if key == "cpu_us_per_req":
            values = [
                w.metrics["own_cpu_us_per_req"] + w.metrics["kid_cpu_us_per_req"]
                for w in self.windows
            ]
        else:
            values = self.series(key)
        if not self.bench.best_decile:
            return summarize(values)
        return summarize(values, "higher" if key in RATES else "lower")

    @property
    def host_speed(self) -> Dict[str, float]:
        return summarize([w.speed for w in self.windows])

    def end_to_end(self) -> Dict[str, Dict[str, float]]:
        """Every end-to-end metric as a :func:`stats.summarize` dict."""
        out = {
            key: self.summary(key)
            for key in (
                "lock_rps",
                "commit_tps",
                "lock_p50_us",
                "lock_p99_us",
                "txn_p50_us",
                "cpu_us_per_req",
            )
        }
        out["setup_s"] = summarize(self.setup_s)
        out["peak_rss_mib"] = summarize([peak_rss_mib(self.bench.program_forks)])
        out["peak_locklist_pages"] = summarize([float(self.bench.peak_pages)])
        return out


def run_pass(
    workload: str,
    inputs: Inputs,
    *,
    seconds: float,
    setups: int = 1,
    spans: bool = False,
    instrument: bool = False,
) -> PassResult:
    """Build the workload's stack ``setups`` times; measure on the last."""
    setup_s: List[float] = []
    problems: List[str] = []
    for attempt in range(setups):
        bench = BENCHES[workload](inputs, spans=spans, instrument=instrument)
        measured: List[Window] = []
        counters: Dict[str, float] = {}
        try:
            with phase(f"setup {attempt + 1}/{setups}"):
                began = perf_counter()
                bench.start()
                # Set-up is mostly the warm-up replay, so it scales as a rate does.
                speed = bench.warm_up().rate_speed
                setup_s.append((perf_counter() - began) * speed)
            if attempt == setups - 1:
                with phase("timed windows"):
                    if bench.whole_cycles:
                        until = perf_counter() + seconds
                        while not measured or perf_counter() < until:
                            measured.append(bench.window(0.0))
                    else:
                        windows = max(1, round(seconds / bench.window_s))
                        for _ in range(windows):
                            measured.append(bench.window(seconds / windows))
                with phase("counters and checks"):
                    counters = bench.observe()
        finally:
            with phase("teardown"):
                bench.close()
            problems.extend(bench.problems)
    speed = median(w.speed for w in measured)
    for key in counters:  # timings the bench read raw, e.g. the program's hops
        if key.endswith("_us"):
            counters[key] *= speed
    failed = sum(w.failed for w in measured)
    if failed:
        problems.append(
            f"{workload}: {failed} transactions failed all {MAX_ATTEMPTS} attempts"
        )
    return PassResult(
        workload=workload,
        windows=measured,
        setup_s=setup_s,
        counters=counters,
        problems=problems,
        bench=bench,
    )


# -- the ladder: one script, every rung -----------------------------------------------

#: Transactions replayed on one rung before moving to the next.  The
#: rungs take turns chunk by chunk, each round is scaled by the host
#: speed probed during it, and a rung's figure is the median over
#: rounds, so a change of host speed hits every rung alike instead of
#: whichever one was running.
LADDER_CHUNK_TXNS = 100


class BareManager:
    """The lowest rung: a bare ``LockManager`` + ``LockBlockChain``."""

    name = "lockmgr"

    def __init__(self) -> None:
        self.manager = LockManager(Environment(), LockBlockChain(initial_blocks=16))
        self.app = 0

    def replay(self, txns: Sequence[Sequence[Access]]) -> Dict[str, float]:
        """Mean microseconds per call of each kind over ``txns``."""
        manager = self.manager
        lock_fast, lock_slow, release_all = (
            manager.lock_row_fast,
            manager.lock_row,
            manager.release_all,
        )
        lock_total = release_total = 0.0
        requests = freed = 0
        for txn in txns:
            self.app = app = self.app + 1
            for table, row, mode in txn:
                t0 = perf_counter()
                if not lock_fast(app, table, row, mode):
                    for _ in lock_slow(app, table, row, mode):
                        raise CheckFailed("a lone session's lock request blocked")
                lock_total += perf_counter() - t0
            requests += len(txn)
            t0 = perf_counter()
            freed += release_all(app)
            release_total += perf_counter() - t0
        if manager.chain.used_slots:
            raise CheckFailed("lockmgr rung left lock structures in use")
        return {
            "lock_row": lock_total / requests * 1e6,
            "release_per_lock": release_total / freed * 1e6,
        }


def replay_spanned(
    bench: ChurnInproc, txns: Sequence[Sequence[Access]]
) -> Dict[str, float]:
    """Mean self time in microseconds of each kind of call over ``txns``."""
    client = bench.clients[0]
    client.log = SpanLog(SPAN_NAMES)
    for txn in txns:
        client.transact(txn)
    window = bench.end_window()  # no bursts: counts only, the ladder scales by round
    if window.granted != sum(map(len, txns)) or window.raised:
        raise CheckFailed(f"{bench.name} rung did not grant every scripted request")
    totals = client.log.self_times()
    return {name: mean_us(totals, name) for name in SPAN_NAMES}


def probe_service(bench: ChurnInproc) -> Dict[str, float]:
    """An idle tuning pass and an uncontended admission pair."""
    passes, pairs = 50, 10_000
    began = perf_counter()
    for _ in range(passes):
        bench.stack.tuner.tune_now()
    tuner_s = at_reference_speed(perf_counter() - began)
    gate = AdmissionController(64, 128)
    began = perf_counter()
    for _ in range(pairs):
        gate.acquire()
        gate.release()
    admission_s = at_reference_speed(perf_counter() - began)
    return {
        "service.tuner_pass_us": tuner_s / passes * 1e6,
        "service.admission_us": admission_s / pairs * 1e6,
    }


def probe_wire(bench: ChurnWire) -> Dict[str, float]:
    """The wire floor (``ping``) and the codec functions in isolation."""
    rtts = []
    for _ in range(2_000):
        t0 = perf_counter()
        bench.service.ping()
        rtts.append(perf_counter() - t0)
    rtt_s = at_reference_speed(percentile(sorted(rtts), 0.50))
    out = {"net.ping_rtt_p50_us": rtt_s * 1e6}
    accesses = [access for txn in bench.inputs.script.txns for access in txn]
    requests = [
        (rid, 7, table, row, wire.wire_mode(mode), TIMEOUT_S)
        for rid, (table, row, mode) in enumerate(accesses[:10_000], start=1)
    ]
    frames = [wire.pack_lock_row_frame(*request) for request in requests]
    payloads = [frame[4:] for frame in frames]  # past the length prefix
    replies = [wire.pack_ok_frame(request[0])[4:] for request in requests]
    if wire.try_parse_lock_row(payloads[0]) != requests[0]:
        raise CheckFailed("try_parse_lock_row does not invert pack_lock_row_frame")
    if wire.encode_frame(wire.encode_lock_row(*requests[0])) != frames[0]:
        raise CheckFailed("encode_lock_row and pack_lock_row_frame disagree")

    def pair_us(on_request, request_items, on_reply, reply_items) -> float:
        """Mean cost of one request's and its reply's share of a codec."""
        began = perf_counter()
        for item in request_items:
            on_request(item)
        for item in reply_items:
            on_reply(item)
        return at_reference_speed(perf_counter() - began) / len(requests) * 1e6

    ids = [request[0] for request in requests]
    out["net.codec.pack_us"] = pair_us(
        lambda r: wire.pack_lock_row_frame(*r), requests, wire.pack_ok_frame, ids
    )
    out["net.codec.parse_us"] = pair_us(
        wire.try_parse_lock_row, payloads, wire.try_parse_ok, replies
    )
    out["net.codec.encode_us"] = pair_us(
        lambda r: wire.encode_lock_row(*r), requests, wire.encode_ok, ids
    )
    out["net.codec.decode_us"] = pair_us(
        wire.decode_request, payloads, wire.decode_response, replies
    )
    return out


def ladder(inputs: Inputs, with_net: bool) -> Dict[str, float]:
    """Per-layer ``*_us`` metrics: the same script through every rung.

    Every rung is measured the same way -- each call timed by the
    harness, the program's own instrumentation off, times at reference
    host speed -- so the deltas between adjacent rungs are differences
    of like quantities.
    """
    txns = inputs.script.txns
    chunks = [
        txns[lo : lo + LADDER_CHUNK_TXNS]
        for lo in range(0, len(txns), LADDER_CHUNK_TXNS)
    ]
    bare = BareManager()
    # The pool forks its worker, so it starts before any stack has a thread.
    rung_classes = [ChurnWire] if with_net else []
    rung_classes += [ChurnInproc, ChurnSharded]
    probes = {ChurnWire: probe_wire, ChurnInproc: probe_service}
    rungs = [cls(inputs, spans=True, instrument=False) for cls in rung_classes]
    samples: Dict[str, List[Dict[str, float]]] = {r.name: [] for r in [bare] + rungs}
    out: Dict[str, float] = {}
    try:
        with phase("ladder set-up"):
            for bench in rungs:
                bench.start()
            for chunk in chunks[: len(chunks) // 4]:  # warm-up, not kept
                bare.replay(chunk)
                for bench in rungs:
                    replay_spanned(bench, chunk)
        with phase("ladder replay"):
            for chunk in chunks:
                turn = {bare.name: bare.replay(chunk)}
                spins = [spin()]
                for bench in rungs:
                    turn[bench.name] = replay_spanned(bench, chunk)
                    spins.append(spin())
                speed = host_speed(spins)
                for name, means in turn.items():
                    samples[name].append({k: v * speed for k, v in means.items()})
        with phase("ladder probes and checks"):
            bare.manager.check_invariants()
            for bench in rungs:
                bench.observe()
                if type(bench) in probes:
                    out.update(probes[type(bench)](bench))
    finally:
        with phase("ladder teardown"):
            for bench in reversed(rungs):
                bench.close()
    problems = [problem for bench in rungs for problem in bench.problems]
    if problems:
        raise CheckFailed("; ".join(problems))

    def rung_us(rung: str, call: str) -> float:
        return median(sample[call] for sample in samples[rung])

    out["lockmgr.lock_row_us"] = rung_us("lockmgr", "lock_row")
    out["lockmgr.release_all_us_per_lock"] = rung_us("lockmgr", "release_per_lock")
    out["service.open_session_us"] = rung_us("churn_inproc", "open_session")
    out["service.lock_row_us"] = service = rung_us("churn_inproc", "lock_row")
    out["service.close_session_us"] = rung_us("churn_inproc", "close_session")
    out["service.overhead_us"] = service - out["lockmgr.lock_row_us"]
    out["service.sharded.lock_row_us"] = rung_us("service.sharded", "lock_row")
    out["service.sharded.overhead_us"] = out["service.sharded.lock_row_us"] - service
    if with_net:
        out["net.lock_row_us"] = rung_us("churn_wire", "lock_row")
        out["net.wire_overhead_us"] = out["net.lock_row_us"] - service
    return out
