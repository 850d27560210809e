"""Smoke tests for the command-line experiment runner."""

import pytest

from repro.analysis import runner, scenarios, validation
from repro.analysis.experiment import ExperimentResult
from repro.engine.database import DatabaseConfig
from repro.lockmgr.modes import LockMode
from repro.obs import load_runs


class TestRegistry:
    def test_every_figure_has_an_entry(self):
        for figure in ("fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
                       "fig10", "fig11", "fig12"):
            assert figure in runner.EXPERIMENTS

    def test_extras_present(self):
        for extra in ("baselines", "ablation-delta", "ablation-band",
                      "ablation-maxlocks"):
            assert extra in runner.EXPERIMENTS


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert runner.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            runner.run_one("fig99")

    def test_run_fast_experiment(self, capsys):
        assert runner.main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "fifo_respected" in out

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "fig6.csv"
        assert runner.main(["fig6", "--csv", str(path)]) == 0
        header = path.read_text().splitlines()[0]
        assert "lock_pages_pct" in header

    def test_render_result_single_series(self):
        result = runner.EXPERIMENTS["fig4"][0]()
        text = runner.render_result(result, None)
        assert "itl_waits" in text

    def test_render_result_with_chart(self):
        result = runner.EXPERIMENTS["fig6"][0]()
        text = runner.render_result(result, ("lock_pages_pct", "lock_used_pct"))
        assert "+-" in text  # chart border present


def run_tiny_fig3() -> ExperimentResult:
    return scenarios.run_fig3_lock_queuing()


def run_tiny_fig4() -> ExperimentResult:
    return scenarios.run_fig4_oracle_itl()


class TestParallel:
    def test_parallel_rejected_for_single_experiment(self):
        with pytest.raises(SystemExit):
            runner.main(["fig3", "--parallel", "2"])
        with pytest.raises(SystemExit):
            runner.main(["list", "--parallel", "2"])

    def test_parallel_must_be_positive(self):
        with pytest.raises(SystemExit):
            runner.main(["all", "--parallel", "0"])

    def test_parallel_all_matches_sequential(
        self, monkeypatch, tmp_path, capsys
    ):
        # Two fast table-style experiments; workers inherit the patched
        # registry via fork on Linux.
        monkeypatch.setattr(
            runner,
            "EXPERIMENTS",
            {
                "a-fig3": (run_tiny_fig3, None),
                "b-fig4": (run_tiny_fig4, None),
            },
        )
        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        assert runner.main(["all", "--out-dir", str(seq_dir)]) == 0
        seq_out = capsys.readouterr().out
        assert runner.main(
            ["all", "--parallel", "2", "--out-dir", str(par_dir)]
        ) == 0
        par_out = capsys.readouterr().out
        assert par_out == seq_out
        assert seq_out.index("=== a-fig3 ===") < seq_out.index("=== b-fig4 ===")
        for name in ("a-fig3", "b-fig4"):
            assert (
                (par_dir / f"{name}.txt").read_text()
                == (seq_dir / f"{name}.txt").read_text()
            )


class TestIgnoredOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig3", "--out-dir", "reports"],
            ["all", "--csv", "all.csv"],
            ["list", "--validate"],
        ],
    )
    def test_rejected_instead_of_ignored(
        self, argv, monkeypatch, tmp_path, capsys
    ):
        # An option the chosen mode would not read is a usage error
        # (exit 2), before anything runs or is written.
        monkeypatch.setattr(
            runner, "EXPERIMENTS", {"fig3": (run_tiny_fig3, None)}
        )
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            runner.main(argv)
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestValidateExitStatus:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig3", "--validate"],
            ["all", "--validate"],
            ["all", "--validate", "--parallel", "2"],
        ],
    )
    def test_a_failed_check_exits_one(self, argv, monkeypatch, capsys):
        # A tiny registry; forked workers inherit both patches.
        monkeypatch.setattr(
            runner,
            "EXPERIMENTS",
            {"fig3": (run_tiny_fig3, None), "fig4": (run_tiny_fig4, None)},
        )
        assert runner.main(argv) == 0
        out = capsys.readouterr().out
        assert "4/4 paper-shape checks passed" in out
        monkeypatch.setitem(
            validation.PAPER_EXPECTATIONS,
            "fig3",
            [validation.Expectation("fifo_respected", "==", False)],
        )
        assert runner.main(argv) == 1
        out = capsys.readouterr().out
        assert "[FAIL] fifo_respected == False" in out
        assert "0/1 paper-shape checks passed" in out
        if argv[0] == "all":  # every experiment still runs and reports
            assert "=== fig4 ===" in out

    def test_all_without_validate_prints_no_scorecard(self, monkeypatch, capsys):
        monkeypatch.setattr(
            runner, "EXPERIMENTS", {"fig3": (run_tiny_fig3, None)}
        )
        monkeypatch.setitem(
            validation.PAPER_EXPECTATIONS,
            "fig3",
            [validation.Expectation("fifo_respected", "==", False)],
        )
        assert runner.main(["all"]) == 0
        assert "paper-shape" not in capsys.readouterr().out


def run_tiny_experiment() -> ExperimentResult:
    """A seconds-long experiment that builds one observable Database."""
    db = scenarios._new_db(
        "tiny", seed=1,
        config=DatabaseConfig(total_memory_pages=16_384,
                              initial_locklist_pages=128),
    )
    env, manager = db.env, db.lock_manager

    def holder():
        yield from manager.lock_row(1, 0, 5, LockMode.X)
        yield env.timeout(3)
        manager.release_all(1)

    def waiter():
        yield env.timeout(1)
        yield from manager.lock_row(2, 0, 5, LockMode.X)
        manager.release_all(2)

    env.process(holder())
    env.process(waiter())
    db.run(until=10)
    return ExperimentResult("tiny", db.metrics)


class TestTelemetryFlags:
    @pytest.fixture
    def tiny(self, monkeypatch):
        monkeypatch.setitem(runner.EXPERIMENTS, "tiny",
                            (run_tiny_experiment, None))

    def test_telemetry_writes_jsonl(self, tiny, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert runner.main(["tiny", "--telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry jsonl" in out
        runs = load_runs(str(path))
        assert len(runs) == 1
        assert runs[0].label == "tiny"
        assert runs[0].trace_events

    def test_report_prints_percentiles(self, tiny, capsys):
        assert runner.main(["tiny", "--report"]) == 0
        out = capsys.readouterr().out
        for token in ("run report: tiny", "p50", "p95", "p99"):
            assert token in out

    def test_flags_rejected_for_all(self):
        with pytest.raises(SystemExit):
            runner.main(["all", "--telemetry", "/tmp/x.jsonl"])
        with pytest.raises(SystemExit):
            runner.main(["list", "--report"])

    def test_no_database_experiment_degrades_gracefully(
        self, tmp_path, capsys
    ):
        path = tmp_path / "fig3.jsonl"
        assert runner.main(["fig3", "--telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no telemetry" in out
        assert not path.exists()

    def test_without_flags_no_observer_runs(self, tiny, capsys):
        assert runner.main(["tiny"]) == 0
        out = capsys.readouterr().out
        assert "telemetry" not in out
