#!/usr/bin/env python
"""CI smoke for the live ops plane.

Launches the sharded service under sustained load with ``--ops-port``
and ``--wait-profile``, scrapes the running process's ``/metrics``,
``/healthz``, ``/stmm``, ``/incidents`` and ``/traces`` over real HTTP,
asserts the per-shard labeled series (including wait-class histograms
and latch counters), tuner liveness and the 1-in-16 sampled request
traces are visible from outside, then waits for the clean shutdown (the
stress CLI exits non-zero on any accounting violation).

Deliberately no timing gates: the scrape retries until the load has
touched every shard, and the only assertions are on *state* -- series
present, tuner alive, audit non-empty, exit code zero.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/ops_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request

SHARDS = 4
LOAD_SECONDS = 15.0
SCRAPE_DEADLINE_S = 60.0

_URL_RE = re.compile(r"ops plane: (http://[\d.]+:\d+)")


def _get(url: str) -> tuple:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.read().decode()


def _scrape_until_ready(base: str) -> tuple:
    """Retry /metrics until every shard's request series has appeared."""
    want = {f'service_requests_total{{shard="{s}"}}' for s in range(SHARDS)}
    deadline = time.monotonic() + SCRAPE_DEADLINE_S
    text = ""
    while time.monotonic() < deadline:
        try:
            _, text = _get(base + "/metrics")
        except (urllib.error.URLError, OSError):
            time.sleep(0.2)
            continue
        if all(series in text for series in want):
            return text, want
        time.sleep(0.2)
    missing = sorted(s for s in want if s not in text)
    raise AssertionError(f"per-shard series never appeared: {missing}")


def main() -> int:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.cli", "stress",
            "--threads", "4", "--requests", "1000000",
            "--duration", str(LOAD_SECONDS),
            "--shards", str(SHARDS),
            "--ops-port", "0", "--trace-sample", "16",
            "--wait-profile",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        base = None
        for line in proc.stdout:
            print(line, end="", flush=True)
            match = _URL_RE.search(line)
            if match:
                base = match.group(1)
                break
        assert base, "stress never announced its ops plane URL"

        metrics, want = _scrape_until_ready(base)
        print(f"[ops-smoke] all {SHARDS} shard series visible at {base}")
        assert "shard_used_slots{" in metrics, "per-shard occupancy missing"
        assert "service_locklist_pages" in metrics, "posture gauge missing"
        assert "service_wait_seconds_count{" in metrics, (
            "wait-class histogram series missing with --wait-profile"
        )
        assert 'latch_gets{shard="0"}' in metrics, (
            "per-shard latch counters missing"
        )
        # Retry until some wait completes somewhere -- the series are
        # pre-created at zero, and the first scrape can land before the
        # contended load has produced a single finished wait.
        count_re = re.compile(
            r"service_wait_seconds_count\{[^}]*\} (\d+(?:\.\d+)?)"
        )
        deadline = time.monotonic() + SCRAPE_DEADLINE_S
        while True:
            counts = [float(c) for c in count_re.findall(metrics)]
            if any(c > 0 for c in counts):
                break
            assert time.monotonic() < deadline, (
                "every wait-class series stayed empty under contended load"
            )
            time.sleep(0.2)
            _, metrics = _get(base + "/metrics")
        print("[ops-smoke] wait-class series non-empty, latch series visible")

        status, body = _get(base + "/healthz")
        health = json.loads(body)
        assert status == 200 and health["ok"], f"unhealthy: {health}"
        assert health["tuner"]["alive"], f"tuner not alive: {health}"
        assert not health["tuner"]["frozen"], f"tuner frozen: {health}"
        assert health["shards"] == SHARDS, f"shard count: {health}"
        print("[ops-smoke] /healthz ok, tuner alive")

        deadline = time.monotonic() + SCRAPE_DEADLINE_S
        while True:
            _, body = _get(base + "/stmm")
            stmm = json.loads(body)
            if stmm["intervals"] > 0 and stmm["audit"]:
                break
            assert time.monotonic() < deadline, f"tuner never ran: {stmm}"
            time.sleep(0.2)
        reasons = {entry["reason"] for entry in stmm["audit"]}
        print(f"[ops-smoke] /stmm: {stmm['intervals']} intervals, "
              f"reasons seen: {sorted(reasons)}")
        assert "params" in stmm and "min_free_fraction" in stmm["params"], (
            f"controller constants missing from /stmm: {stmm.keys()}"
        )
        assert stmm.get("wait_classes"), "wait_classes absent from /stmm"

        status, body = _get(base + "/incidents")
        assert status == 200, f"/incidents returned {status}"
        incidents = json.loads(body)
        assert set(incidents) == {"total", "counts", "incidents"}, incidents
        # Ring-bounded: the lifetime total can exceed what is held.
        assert incidents["total"] >= len(incidents["incidents"]), incidents
        print(f"[ops-smoke] /incidents reachable: "
              f"{incidents['total']} captured ({incidents['counts']})")

        # The in-process trace path: 1-in-16 sampled requests land on
        # /traces with the one hop an in-process request has.
        status, body = _get(base + "/traces")
        assert status == 200, f"/traces returned {status}"
        traces = json.loads(body)
        assert traces["enabled"] is True, traces
        assert traces["sample_every"] == 16, traces
        assert traces["total"] >= 1 and traces["traces"], traces
        assert set(traces) >= {
            "enabled", "sample_every", "total", "truncated",
            "traces", "server_spans", "summary",
        }, f"/traces payload missing keys: {sorted(traces)}"
        assert set(traces["summary"]["hops"]) == {"server.lock_wait"}, traces
        print(f"[ops-smoke] /traces: {traces['total']} in-process traces "
              f"sampled 1/16")
    finally:
        # Drain the remaining output so the stress process can finish
        # its report and shut down cleanly.
        out, _ = proc.communicate(timeout=300)
        print(out, end="", flush=True)
    assert proc.returncode == 0, f"stress exited {proc.returncode}"
    print("[ops-smoke] clean shutdown, exact accounting verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
