"""Command-line experiment runner.

Run any paper experiment from the shell::

    python -m repro.analysis.runner list
    python -m repro.analysis.runner fig9
    python -m repro.analysis.runner fig12 --csv out.csv
    python -m repro.analysis.runner all --out-dir results/
    python -m repro.analysis.runner all --validate --parallel 2
    python -m repro.analysis.runner fig9 --telemetry out.jsonl --report

Each run prints the experiment's findings (and an ASCII chart where the
figure has a natural time series) and can export the full metric series
to CSV for external plotting.  ``--telemetry PATH`` enables full
observability (lock trace + histograms) on every database the
experiment builds and writes one JSONL stream per run to PATH;
``--report`` prints the per-run summary (wait-latency percentiles,
escalations, controller decision log).  See ``docs/OBSERVABILITY.md``.
``--validate`` adds each experiment's paper-shape scorecard
(:mod:`repro.analysis.validation`); the runner then exits 1 when any
check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import multiprocessing
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import scenarios
from repro.analysis.ascii_chart import render_series, render_two_series
from repro.analysis.experiment import ExperimentResult
from repro.analysis.report import RunReport, format_findings
from repro.analysis.validation import render_outcomes, validate

def _run_fig7_static_only():
    """The Figure 7 view: the static run without the adaptive twin."""
    return scenarios.run_fig7_fig8_static_escalation(
        include_adaptive_reference=False
    )


#: Experiment id -> (runner, chart spec).  The chart spec names the
#: series to draw: one name for a single-series chart, two for the
#: dual charts the paper uses, None for table-style experiments.
EXPERIMENTS: Dict[str, Tuple[Callable[[], ExperimentResult], Optional[Tuple[str, ...]]]] = {
    "fig3": (scenarios.run_fig3_lock_queuing, None),
    "fig4": (scenarios.run_fig4_oracle_itl, None),
    "fig6": (
        scenarios.run_fig6_worked_example,
        ("lock_pages_pct", "lock_used_pct"),
    ),
    "fig7": (_run_fig7_static_only, ("lock_used_slots",)),
    "fig8": (
        scenarios.run_fig7_fig8_static_escalation,
        ("commits",),
    ),
    "fig9": (scenarios.run_fig9_rampup, ("commits", "lock_pages")),
    "fig10": (scenarios.run_fig10_surge, ("commits", "lock_pages")),
    "fig11": (scenarios.run_fig11_dss_injection, ("commits", "lock_pages")),
    "fig12": (scenarios.run_fig12_reduction, ("lock_pages",)),
    "baselines": (scenarios.run_baseline_comparison, None),
    "two-consumers": (scenarios.run_two_heavy_consumers, None),
    "ablation-delta": (scenarios.run_ablation_delta_reduce, None),
    "ablation-band": (scenarios.run_ablation_free_band, None),
    "ablation-maxlocks": (scenarios.run_ablation_maxlocks, None),
}


def render_result(result: ExperimentResult, chart_spec) -> str:
    """Findings plus (when applicable) the figure's ASCII chart."""
    parts = []
    if chart_spec is not None:
        series = [result.metrics[name] for name in chart_spec]
        if len(series) == 1:
            parts.append(render_series(series[0], title=result.name))
        else:
            first = series[0]
            if first.name == "commits":
                first = first.rate().smooth(5)
            parts.append(
                render_two_series(first, series[1], title=result.name)
            )
    parts.append(format_findings(result.findings))
    if result.notes:
        parts.append("\n".join(f"note: {n}" for n in result.notes))
    return "\n\n".join(parts)


def scorecard(name: str, result: ExperimentResult) -> Tuple[str, bool]:
    """The paper-shape scorecard of ``result``, and whether it all passed."""
    outcomes = validate(name, result)
    text = "\npaper-shape validation:\n" + render_outcomes(outcomes)
    return text, all(o.passed for o in outcomes)


def run_one(
    name: str,
    csv_path: Optional[str] = None,
    do_validate: bool = False,
    telemetry_path: Optional[str] = None,
    do_report: bool = False,
) -> int:
    """Run one experiment by id, print its report, optionally dump CSV;
    return the exit status (1 when a ``do_validate`` check failed).

    With ``telemetry_path`` every database the experiment builds runs
    fully observed (lock trace + latency histograms) and the combined
    JSONL stream -- one run per database, readable back with
    :func:`repro.obs.load_runs` -- lands at that path.  ``do_report``
    prints a :class:`~repro.analysis.report.RunReport` per run.
    """
    if name not in EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {name!r}; choose from: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        )
    runner, chart_spec = EXPERIMENTS[name]
    observed: List[Tuple[str, object]] = []

    def observer(label: str, db) -> None:
        db.enable_telemetry()
        observed.append((label, db))

    if telemetry_path or do_report:
        with scenarios.observe_databases(observer):
            result = runner()
    else:
        result = runner()
    print(render_result(result, chart_spec))
    passed = True
    if do_validate:
        text, passed = scorecard(name, result)
        print(text)
    if csv_path:
        result.metrics.write_csv(csv_path)
        print(f"\n[metrics csv: {csv_path}]")
    if telemetry_path or do_report:
        if not observed:
            print(
                f"\n[no telemetry: experiment {name!r} builds no database]"
            )
        telemetries = [db.telemetry(label=label) for label, db in observed]
        if telemetry_path and telemetries:
            total = 0
            for i, telemetry in enumerate(telemetries):
                total += telemetry.write_jsonl(telemetry_path, append=i > 0)
            print(
                f"\n[telemetry jsonl: {telemetry_path} "
                f"({len(telemetries)} run(s), {total} records)]"
            )
        if do_report:
            for telemetry in telemetries:
                print()
                print(RunReport.from_telemetry(telemetry).render())
    return 0 if passed else 1


def _run_for_all(
    name: str, do_validate: bool = False
) -> Tuple[str, str, Optional[Tuple[str, bool]]]:
    """One experiment of ``all``: its report, and with ``do_validate`` its scorecard.

    Module-level so it pickles; experiments are independent simulations
    (each builds its own Environment and seeds its own RNG), so farming
    them out across processes cannot change any result.
    """
    runner, chart_spec = EXPERIMENTS[name]
    result = runner()
    card = scorecard(name, result) if do_validate else None
    return name, render_result(result, chart_spec), card


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.runner",
        description="Run the paper-reproduction experiments.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id, 'list' to enumerate, or 'all'",
    )
    parser.add_argument(
        "--csv",
        help="write the metric series to this CSV file "
        "(single experiments only)",
    )
    parser.add_argument(
        "--out-dir",
        help="with 'all': write one <experiment>.txt report per experiment here",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="also evaluate the paper's expected-shape checks; "
        "exit 1 if any fails",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        help="record full telemetry on every database the experiment "
        "builds and write the JSONL stream here (single experiments only)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print a per-run telemetry report (wait-latency percentiles, "
        "escalations, controller decisions)",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="with 'all': run experiments across N worker processes "
        "(results and reports are printed in name order either way)",
    )
    args = parser.parse_args(argv)

    if args.experiment in ("all", "list"):
        for flag, value in (
            ("--csv", args.csv),
            ("--telemetry", args.telemetry),
            ("--report", args.report),
        ):
            if value:
                parser.error(f"{flag} needs a single experiment id")
    if args.validate and args.experiment == "list":
        parser.error("--validate needs an experiment id or 'all'")
    if args.out_dir and args.experiment != "all":
        parser.error("--out-dir only applies to 'all'")
    if args.parallel < 1:
        parser.error("--parallel must be >= 1")
    if args.parallel > 1 and args.experiment != "all":
        parser.error("--parallel only applies to 'all'")

    if args.experiment == "list":
        for name, (runner, _spec) in sorted(EXPERIMENTS.items()):
            doc = (runner.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{name:<18} {summary}")
        return 0

    if args.experiment == "all":
        out_dir = args.out_dir
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        names = sorted(EXPERIMENTS)
        run = functools.partial(_run_for_all, do_validate=args.validate)
        status = 0
        parallel = args.parallel > 1
        pool = multiprocessing.Pool(min(args.parallel, len(names))) if parallel else None
        with pool or contextlib.nullcontext():
            # imap (not imap_unordered) keeps name order, so output is
            # byte-identical to the sequential path.
            reports = pool.imap(run, names) if parallel else map(run, names)
            for name, report, card in reports:
                print(f"=== {name} ===")
                print(report)
                if card is not None:
                    print(card[0])
                    status |= not card[1]
                print()
                if out_dir:
                    with open(os.path.join(out_dir, f"{name}.txt"), "w") as handle:
                        handle.write(report)
        return status

    return run_one(
        args.experiment,
        csv_path=args.csv,
        do_validate=args.validate,
        telemetry_path=args.telemetry,
        do_report=args.report,
    )


if __name__ == "__main__":
    sys.exit(main())
