"""The Self-Tuning Memory Manager (STMM).

STMM (paper section 2.1, [3]) runs at each *tuning interval* and:

1. resizes **deterministic** (FMC) heaps -- lock memory foremost -- to
   the target size their tuner requests.  Lock memory "will be tuned as
   a deterministic heap, meaning specifically that a cost-benefit model
   will not be created for lock memory" (section 3.1);
2. restores the **overflow area** towards its goal size by reclaiming
   pages from donor PMC heaps ("STMM will reduce the memory consumption
   of the heaps it controls in order to increase the overflow memory
   towards its goal", section 3.3);
3. gives overflow surplus to the *neediest* PMC heaps ("the freed memory
   is given to the most beneficial heaps, as usual", section 4);
4. performs a mild PMC-to-PMC rebalance along the marginal-benefit
   gradient, standing in for DB2's proprietary cost-benefit models.

The deterministic tuner is an object implementing the
:class:`DeterministicTuner` protocol; in this library that is the
:class:`repro.core.controller.LockMemoryController`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Protocol

from repro.errors import ConfigurationError
from repro.memory.registry import DatabaseMemoryRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.des import Environment


class DeterministicTuner(Protocol):
    """Interface STMM uses to drive a deterministically tuned heap."""

    #: Name of the heap in the registry this tuner controls.
    heap_name: str

    def compute_target_pages(self) -> int:
        """Desired heap size for the coming interval, in pages."""
        ...  # pragma: no cover - protocol

    def grow_physical(self, pages: int) -> int:
        """Physically allocate ``pages`` more; return pages achieved."""
        ...  # pragma: no cover - protocol

    def shrink_physical(self, pages: int) -> int:
        """Physically release up to ``pages``; return pages achieved.

        For lock memory only entirely-free 128 KB blocks can be released
        (paper section 2.2), so the achieved amount may be smaller.
        """
        ...  # pragma: no cover - protocol

    def on_interval_end(self, now: float) -> None:
        """Hook called after STMM finishes an interval (stats rollover)."""
        ...  # pragma: no cover - protocol


@dataclass
class StmmConfig:
    """STMM scheduling and redistribution knobs.

    The paper fixes the tuning interval at 30 s for all experiments
    (section 5); DB2 adapts it between 0.5 and 10 minutes.  Setting
    ``adaptive_interval`` selects the adaptive behaviour: the interval
    halves (down to ``min_interval_s``) after an interval that changed
    a deterministic heap and doubles (up to ``max_interval_s``) after a
    quiet one.
    """

    interval_s: float = 30.0
    adaptive_interval: bool = False
    min_interval_s: float = 30.0
    max_interval_s: float = 600.0
    #: Largest fraction of a donor PMC moved per interval during the
    #: PMC-to-PMC gradient rebalance.
    pmc_rebalance_fraction: float = 0.02
    #: Benefit ratio (receiver/donor) that must be exceeded before the
    #: PMC rebalance moves any memory.
    pmc_rebalance_threshold: float = 1.25

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigurationError(f"interval_s must be positive, got {self.interval_s}")
        if self.min_interval_s <= 0 or self.max_interval_s < self.min_interval_s:
            raise ConfigurationError(
                "need 0 < min_interval_s <= max_interval_s, got "
                f"{self.min_interval_s}..{self.max_interval_s}"
            )
        if not 0.0 <= self.pmc_rebalance_fraction <= 1.0:
            raise ConfigurationError(
                f"pmc_rebalance_fraction must be in [0, 1], got {self.pmc_rebalance_fraction}"
            )
        if self.pmc_rebalance_threshold < 1.0:
            raise ConfigurationError(
                f"pmc_rebalance_threshold must be >= 1, got {self.pmc_rebalance_threshold}"
            )


@dataclass
class TuningAction:
    """Record of one STMM decision, kept for observability and tests."""

    time: float
    kind: str  # "resize", "reclaim", "distribute", "rebalance"
    heap: str
    pages: int
    detail: str = ""


@dataclass
class IntervalReport:
    """Everything STMM did during one tuning interval."""

    time: float
    actions: List[TuningAction] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return any(a.pages != 0 for a in self.actions)


class Stmm:
    """The tuning-interval scheduler and memory redistributor."""

    def __init__(
        self,
        registry: DatabaseMemoryRegistry,
        config: Optional[StmmConfig] = None,
    ) -> None:
        self.registry = registry
        self.config = config or StmmConfig()
        self._tuners: List[DeterministicTuner] = []
        self._current_interval_s = self.config.interval_s
        #: One report per completed tuning interval.
        self.reports: List[IntervalReport] = []

    @property
    def current_interval_s(self) -> float:
        """The interval that will elapse before the next tuning pass."""
        return self._current_interval_s

    def register_deterministic_tuner(self, tuner: DeterministicTuner) -> None:
        """Attach a deterministic (FMC) heap tuner, e.g. lock memory."""
        if tuner.heap_name not in self.registry:
            raise ConfigurationError(
                f"tuner controls unknown heap {tuner.heap_name!r}"
            )
        if any(t.heap_name == tuner.heap_name for t in self._tuners):
            raise ConfigurationError(
                f"heap {tuner.heap_name!r} already has a deterministic tuner"
            )
        self._tuners.append(tuner)

    # -- one tuning pass ----------------------------------------------------

    def tune(self, now: float = 0.0) -> IntervalReport:
        """Run a single tuning interval at simulation time ``now``."""
        report = IntervalReport(time=now)
        deterministic_heaps = [t.heap_name for t in self._tuners]

        for tuner in self._tuners:
            self._tune_deterministic(tuner, now, report)

        self._restore_overflow(deterministic_heaps, now, report)
        self._distribute_surplus(deterministic_heaps, now, report)
        self._rebalance_pmcs(deterministic_heaps, now, report)

        for tuner in self._tuners:
            tuner.on_interval_end(now)

        self.reports.append(report)
        self._adapt_interval(report)
        return report

    def _tune_deterministic(
        self, tuner: DeterministicTuner, now: float, report: IntervalReport
    ) -> None:
        heap = self.registry.heap(tuner.heap_name)
        target = tuner.compute_target_pages()
        if target < 0:
            raise ConfigurationError(
                f"tuner for {tuner.heap_name!r} returned negative target {target}"
            )
        delta = target - heap.size_pages
        if delta > 0:
            # Grow: deterministic heaps take priority.  Use overflow first;
            # if overflow cannot cover the growth, shrink donor PMCs now
            # rather than waiting for the overflow-restore step, so the
            # target is met within this interval.
            shortfall = delta - self.registry.overflow_pages
            if shortfall > 0:
                reclaimed = self.registry.reclaim_from_donors(
                    shortfall, exclude=[tuner.heap_name]
                )
                if reclaimed:
                    report.actions.append(
                        TuningAction(now, "reclaim", "pmc-donors", -reclaimed,
                                     f"to grow {tuner.heap_name}")
                    )
            granted = self.registry.grow_heap(tuner.heap_name, delta, partial=True)
            achieved = tuner.grow_physical(granted)
            if achieved < granted:
                # Physical layer refused part of the grant: hand it back.
                self.registry.shrink_heap(tuner.heap_name, granted - achieved)
            if achieved:
                report.actions.append(
                    TuningAction(now, "resize", tuner.heap_name, achieved,
                                 f"target {target}p")
                )
        elif delta < 0:
            freed = tuner.shrink_physical(-delta)
            if freed:
                self.registry.shrink_heap(tuner.heap_name, freed)
                report.actions.append(
                    TuningAction(now, "resize", tuner.heap_name, -freed,
                                 f"target {target}p")
                )

    def _restore_overflow(
        self, exclude: List[str], now: float, report: IntervalReport
    ) -> None:
        deficit = self.registry.overflow_deficit_pages
        if deficit > 0:
            reclaimed = self.registry.reclaim_from_donors(deficit, exclude=exclude)
            if reclaimed:
                report.actions.append(
                    TuningAction(now, "reclaim", "pmc-donors", -reclaimed,
                                 "restore overflow goal")
                )

    def _distribute_surplus(
        self, exclude: List[str], now: float, report: IntervalReport
    ) -> None:
        surplus = self.registry.overflow_surplus_pages
        if surplus <= 0:
            return
        for receiver in self.registry.pmc_receivers(exclude=exclude):
            if surplus == 0:
                break
            granted = self.registry.grow_heap(receiver.name, surplus, partial=True)
            surplus -= granted
            if granted:
                report.actions.append(
                    TuningAction(now, "distribute", receiver.name, granted,
                                 "overflow surplus")
                )

    def _rebalance_pmcs(
        self, exclude: List[str], now: float, report: IntervalReport
    ) -> None:
        if self.config.pmc_rebalance_fraction == 0:
            return
        donors = self.registry.pmc_donors(exclude=exclude)
        receivers = self.registry.pmc_receivers(exclude=exclude)
        if not donors or not receivers:
            return
        donor, receiver = donors[0], receivers[0]
        if donor.name == receiver.name:
            return
        donor_benefit = donor.benefit()
        if donor_benefit <= 0:
            needs_move = receiver.benefit() > 0
        else:
            needs_move = (
                receiver.benefit() / donor_benefit
                > self.config.pmc_rebalance_threshold
            )
        if not needs_move:
            return
        step = int(donor.size_pages * self.config.pmc_rebalance_fraction)
        if step == 0:
            return
        moved = self.registry.transfer(donor.name, receiver.name, step, partial=True)
        if moved:
            report.actions.append(
                TuningAction(now, "rebalance", receiver.name, moved,
                             f"from {donor.name}")
            )

    def _adapt_interval(self, report: IntervalReport) -> None:
        if not self.config.adaptive_interval:
            self._current_interval_s = self.config.interval_s
            return
        if report.changed:
            self._current_interval_s = max(
                self.config.min_interval_s, self._current_interval_s / 2.0
            )
        else:
            self._current_interval_s = min(
                self.config.max_interval_s, self._current_interval_s * 2.0
            )

    # -- DES integration ------------------------------------------------------

    def run(self, env: "Environment"):
        """DES process: tune every ``current_interval_s`` seconds, forever.

        The first pass happens one interval after start, matching DB2
        (the initial configuration is in force until the first interval
        elapses).
        """
        while True:
            yield env.timeout(self._current_interval_s)
            self.tune(env.now)
