"""``scripts/ladder_record.py`` writes no record taken on a slow host."""

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


def empty_tar() -> bytes:
    buffer = io.BytesIO()
    tarfile.open(fileobj=buffer, mode="w").close()
    return buffer.getvalue()


def record_with(monkeypatch, tmp_path, output):
    """Run ``main`` with git and the suite faked; the suite prints
    ``output``.  Returns (exit status, the --out path)."""
    recorder = load()
    answers = {"status": b"", "rev-parse": b"0123abcd\n", "archive": empty_tar()}
    monkeypatch.setattr(recorder, "git", lambda *args: answers[args[0]])

    def run_suite(command, cwd):
        with open(command[command.index("--out") + 1], "w") as handle:
            json.dump(output, handle)
        return SimpleNamespace(returncode=0)

    monkeypatch.setattr(recorder.subprocess, "run", run_suite)
    out = tmp_path / "record.json"
    return recorder.main(["--out", str(out)]), out


def test_slow_workloads_names_every_workload_below_the_floor():
    recorder = load()
    record = suite(churn_inproc=0.95, churn_wire=0.79, surge_inproc=0.8, convoy_inproc=0.3)
    assert recorder.slow_workloads(record) == [("churn_wire", 0.79), ("convoy_inproc", 0.3)]


def test_a_slow_host_writes_no_record(monkeypatch, tmp_path, capsys):
    status, out = record_with(
        monkeypatch, tmp_path, suite(churn_inproc=0.91, surge_inproc=0.62)
    )
    assert status != 0
    assert not out.exists()
    assert "surge_inproc ran at host speed 0.62" in capsys.readouterr().err


def test_a_host_at_speed_writes_the_record(monkeypatch, tmp_path):
    status, out = record_with(
        monkeypatch, tmp_path, suite(churn_inproc=0.91, surge_inproc=0.8)
    )
    assert status == 0
    record = json.loads(out.read_text())
    assert record["rev"] == "0123abcd"
    assert record["workloads"]["surge_inproc"]["host_speed"]["median"] == 0.8
