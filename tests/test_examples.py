"""Smoke tests: the example scripts must run end to end.

Only the quick examples run here (the heavyweight figure walkthroughs
are exercised by their scenarios in tests/analysis and by the
benchmarks); each is loaded from its file and its ``main()`` invoked.
"""

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "worked_example_walkthrough.py",
    "telemetry_export.py",
    "live_lock_service.py",
]


def run_example(filename: str) -> str:
    namespace = runpy.run_path(
        str(EXAMPLES_DIR / filename), run_name="example_under_test"
    )
    assert "main" in namespace, f"{filename} must define main()"
    namespace["main"]()
    return filename


class TestExamples:
    def test_all_examples_exist_and_have_docstrings(self):
        scripts = sorted(EXAMPLES_DIR.glob("*.py"))
        assert len(scripts) >= 3  # the deliverable: at least three
        for script in scripts:
            source = script.read_text()
            assert source.lstrip().startswith(
                ("#!/usr/bin/env python3", '"""')
            ), f"{script.name} lacks a shebang/docstring header"
            assert '"""' in source

    @pytest.mark.parametrize("filename", FAST_EXAMPLES)
    def test_fast_example_runs(self, filename, capsys):
        run_example(filename)
        out = capsys.readouterr().out
        assert out.strip(), f"{filename} produced no output"

    def test_worked_example_narrates_all_steps(self, capsys):
        run_example("worked_example_walkthrough.py")
        out = capsys.readouterr().out
        for step in ("T0", "T1", "T2", "T3", "T4", "T5", "T6"):
            assert step in out

    def test_telemetry_export_round_trips(self, capsys):
        run_example("telemetry_export.py")
        out = capsys.readouterr().out
        assert "round trip exact" in out
        assert "p95" in out and "p99" in out
