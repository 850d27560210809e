"""``scripts/ladder_record.py`` writes no record taken on a slow host;
it runs again only the workloads that ran slow, and prints a written
record against the oldest of the last three committed ones."""

import importlib.util
import io
import json
import pathlib
import tarfile
from types import SimpleNamespace

SCRIPT = pathlib.Path(__file__).parent.parent / "scripts" / "ladder_record.py"


def load():
    spec = importlib.util.spec_from_file_location("ladder_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def suite(**speeds):
    return {
        "workloads": {
            name: {"host_speed": {"median": speed}} for name, speed in speeds.items()
        }
    }


def export_of(names) -> bytes:
    """A ``git archive`` of a tree whose BENCHMARK.json lists ``names``."""
    spec = json.dumps({"workloads": [{"name": name} for name in names]}).encode()
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as tar:
        info = tarfile.TarInfo("BENCHMARK.json")
        info.size = len(spec)
        tar.addfile(info, io.BytesIO(spec))
    return buffer.getvalue()


def record_with(monkeypatch, tmp_path, history=(), **speeds):
    """Run ``main`` with git and the benchmark faked.  ``speeds`` gives
    each workload's host speed, or a list of them for its successive
    ``--trace 0`` runs; ``history`` the revs, newest first, that
    ``git log -- BENCH_LADDER.json`` lists (each one's record names its
    rev).  Returns (exit status, the --out path, the runs as
    ``(workload, trace)``, or ``("compare", base rev, new path)``)."""
    recorder = load()
    answers = {
        "status": b"",
        "rev-parse": b"0123abcd\n",
        "archive": export_of(speeds),
    }
    def git(*args):
        if args[0] == "log":
            assert args[1] == f"-n{recorder.DRIFT_RECORDS}"
            return "".join(f"{rev}\n" for rev in history).encode()
        if args[0] == "show":
            rev, path = args[1].split(":")
            assert path == "BENCH_LADDER.json"
            return json.dumps({"rev": rev, "workloads": {}}).encode()
        return answers[args[0]]

    monkeypatch.setattr(recorder, "git", git)
    runs = []

    def run_workload(command, cwd, check=False):
        if "--compare" in command:
            base, new = command[command.index("--compare") + 1:]
            with open(base) as handle:
                runs.append(("compare", json.load(handle)["rev"], new))
            return SimpleNamespace(returncode=1)  # a worse metric is no failure
        workload = command[command.index("--workload") + 1]
        trace = int(command[command.index("--trace") + 1])
        if trace:
            detail = {"per_layer": {}}
        else:
            speed = speeds[workload]
            if isinstance(speed, list):
                speed = speed[sum(run == (workload, 0) for run in runs)]
            detail = {"host_speed": {"median": speed}}
        runs.append((workload, trace))
        with open(command[command.index("--out") + 1], "w") as handle:
            json.dump(detail, handle)
        return SimpleNamespace(returncode=0)

    monkeypatch.setattr(recorder.subprocess, "run", run_workload)
    out = tmp_path / "record.json"
    return recorder.main(["--out", str(out)]), out, runs


def test_slow_workloads_names_every_workload_below_the_floor():
    recorder = load()
    record = suite(churn_inproc=0.95, churn_wire=0.79, surge_inproc=0.8, convoy_inproc=0.3)
    assert recorder.slow_workloads(record) == [("churn_wire", 0.79), ("convoy_inproc", 0.3)]


def test_a_slow_host_writes_no_record(monkeypatch, tmp_path, capsys):
    status, out, _runs = record_with(
        monkeypatch, tmp_path, churn_inproc=0.91, surge_inproc=0.62
    )
    assert status != 0
    assert not out.exists()
    assert "surge_inproc ran at host speed 0.62" in capsys.readouterr().err


def test_a_host_at_speed_writes_the_record(monkeypatch, tmp_path):
    status, out, _runs = record_with(
        monkeypatch, tmp_path, churn_inproc=0.91, surge_inproc=0.8
    )
    assert status == 0
    record = json.loads(out.read_text())
    assert record["rev"] == "0123abcd"
    assert record["workloads"]["surge_inproc"]["host_speed"]["median"] == 0.8


def test_a_slow_workload_is_run_again_alone(monkeypatch, tmp_path, capsys):
    status, out, runs = record_with(
        monkeypatch, tmp_path, churn_inproc=0.91, surge_inproc=[0.62, 0.85]
    )
    assert status == 0
    assert runs == [
        ("churn_inproc", 0), ("churn_inproc", 1),
        ("surge_inproc", 0), ("surge_inproc", 0), ("surge_inproc", 1),
    ]
    record = json.loads(out.read_text())
    assert record["workloads"]["surge_inproc"]["host_speed"]["median"] == 0.85
    assert record["workloads"]["surge_inproc"]["per_layer"] == {}
    assert "surge_inproc ran at host speed 0.62" in capsys.readouterr().err


def test_a_workload_slow_on_every_attempt_refuses(monkeypatch, tmp_path):
    recorder = load()
    status, out, runs = record_with(monkeypatch, tmp_path, churn_wire=0.5)
    assert status == 3
    assert not out.exists()
    assert runs.count(("churn_wire", 0)) == recorder.MAX_ATTEMPTS


def test_a_failed_run_writes_no_record(monkeypatch, tmp_path, capsys):
    recorder = load()
    answers = {
        "status": b"",
        "rev-parse": b"0123abcd\n",
        "archive": export_of(["convoy_inproc"]),
    }
    monkeypatch.setattr(recorder, "git", lambda *args: answers[args[0]])

    def run_fails(command, cwd, check):
        raise recorder.subprocess.CalledProcessError(3, command)

    monkeypatch.setattr(recorder.subprocess, "run", run_fails)
    out = tmp_path / "record.json"
    assert recorder.main(["--out", str(out)]) == 3
    assert not out.exists()
    assert "--workload convoy_inproc --trace 0 --out" in capsys.readouterr().err


def test_the_record_is_printed_against_the_oldest_of_the_last_three(
    monkeypatch, tmp_path, capsys
):
    status, out, runs = record_with(
        monkeypatch, tmp_path, history=["cc03", "bb02", "aa01"], churn_inproc=0.9
    )
    assert status == 0
    assert runs[-1] == ("compare", "aa01", str(out))
    assert "against aa01, the oldest of the last 3" in capsys.readouterr().out


def test_a_short_history_is_compared_with_what_there_is(
    monkeypatch, tmp_path, capsys
):
    status, out, runs = record_with(
        monkeypatch, tmp_path, history=["bb02", "aa01"], churn_inproc=0.9
    )
    assert status == 0
    assert runs[-1] == ("compare", "aa01", str(out))
    assert "the oldest of the last 2" in capsys.readouterr().out
    status, out, runs = record_with(monkeypatch, tmp_path, churn_inproc=0.9)
    assert status == 0 and out.exists()
    assert [run for run in runs if run[0] == "compare"] == []
    assert "no committed record to compare with" in capsys.readouterr().out
