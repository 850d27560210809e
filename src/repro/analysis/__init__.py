"""Experiment harness: scenario builders, results and reporting.

* :mod:`repro.analysis.experiment` -- the :class:`ExperimentResult`
  container every scenario returns,
* :mod:`repro.analysis.scenarios` -- one canonical builder per paper
  figure (3, 6, 7/8, 9, 10, 11, 12) plus the baseline comparison and
  ablation scenarios; benchmarks, examples and integration tests all
  share these,
* :mod:`repro.analysis.ascii_chart` -- terminal rendering of the
  recorded time series so benchmark output *looks like* the figures,
* :mod:`repro.analysis.report` -- tabular formatting helpers and the
  per-run :class:`RunReport` telemetry summary,
* :mod:`repro.analysis.waitprofile` -- the offline wait-profile /
  forensics report over a recorded telemetry stream
  (``repro-service analyze``).
"""

from repro.analysis.ascii_chart import render_series, render_two_series
from repro.analysis.experiment import ExperimentResult
from repro.analysis.report import RunReport, format_findings, format_table
from repro.analysis.waitprofile import (
    BlockerEntry,
    WaitProfileReport,
    analyze_run,
)

__all__ = [
    "BlockerEntry",
    "WaitProfileReport",
    "analyze_run",
    "render_series",
    "render_two_series",
    "ExperimentResult",
    "RunReport",
    "format_findings",
    "format_table",
]
