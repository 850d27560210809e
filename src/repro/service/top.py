"""``repro-service top``: a refreshing console view of the live service.

The ops plane (:mod:`repro.service.ops`) serves numbers; ``top`` makes
them glanceable.  It polls ``/metrics`` and ``/stmm`` on an interval
and redraws one console frame per poll:

* per-shard request throughput (rate between frames), p50/p99 request
  latency (interpolated from the cumulative histogram buckets),
  accumulated wait time from the wait-event profiler, escalations and
  occupancy;
* the LOCKLIST posture: pages, free fraction against the tuner's
  [minFree, maxFree] band, MAXLOCKS, and the incident count;
* the tail of the STMM audit log -- the last few intervals' chosen
  actions in the machine-readable reason vocabulary;
* when the routed client publishes per-worker wire-latency histograms
  (fed by its sampled requests only), a per-worker latency panel of
  those requests; and when request tracing is sampled, the
  slowest end-to-end traces from ``/traces`` with their dominant hop
  and wire-tax fraction;
* when the whole-memory broker is enabled, the per-heap table (size,
  demand, marginal benefit per page) and the pressure posture.

The latency columns read ``service_request_latency_s``, which every
stack with an ops plane publishes.  What a run has nothing to say about
(profiler off: no wait series; nothing served yet: no percentile)
renders as ``-`` rather than a misleading ``0``.  ``--json`` swaps the
dashboard for one JSON object per frame built from the same
:func:`shard_summary` rows.

Everything here is a *client* of the HTTP endpoints -- ``top`` holds no
reference to the stack and can watch a service in another process.  The
module also exposes the pieces the dashboard is built from
(:func:`parse_prometheus`, :func:`percentile_from_buckets`,
:func:`shard_summary`, :func:`render_frame`) because they are useful on
their own (CI smoke checks, tests).
"""

from __future__ import annotations

import json
import re
import sys
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

#: label-pairs key, as in repro.obs.registry (sorted (key, value) tuples).
LabelPairs = Tuple[Tuple[str, str], ...]
#: series name -> {label pairs -> value}
MetricsDump = Dict[str, Dict[LabelPairs, float]]

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_prometheus(text: str) -> MetricsDump:
    """Parse text exposition format back into ``{name: {labels: value}}``."""
    out: MetricsDump = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        raw = match.group("value")
        if raw == "+Inf":
            value = float("inf")
        elif raw == "-Inf":
            value = float("-inf")
        else:
            try:
                value = float(raw)
            except ValueError:
                continue
        labels: LabelPairs = tuple(
            sorted(
                (k, _unescape(v))
                for k, v in _LABEL_RE.findall(match.group("labels") or "")
            )
        )
        out.setdefault(match.group("name"), {})[labels] = value
    return out


def percentile_from_buckets(
    bounds_counts: List[Tuple[float, float]], q: float
) -> Optional[float]:
    """Interpolated quantile from cumulative ``(le, count)`` buckets.

    ``bounds_counts`` is the ``_bucket`` series of one histogram,
    any order; returns None for an empty histogram.  Within a bucket
    the mass is assumed uniform (the standard Prometheus estimate).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    buckets = sorted(bounds_counts)
    if not buckets or buckets[-1][1] <= 0:
        return None
    total = buckets[-1][1]
    rank = q * total
    prev_bound, prev_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if bound == float("inf"):
                return prev_bound  # open-ended top bucket: best lower bound
            span = count - prev_count
            if span <= 0:
                return bound
            frac = (rank - prev_count) / span
            return prev_bound + frac * (bound - prev_bound)
        prev_bound, prev_count = bound, count
    return buckets[-1][0]


def _histogram_buckets(
    dump: MetricsDump, name: str, shard: Optional[str]
) -> List[Tuple[float, float]]:
    """The ``(le, cumulative count)`` pairs of one (possibly labeled)
    histogram."""
    series = dump.get(f"{name}_bucket", {})
    out: List[Tuple[float, float]] = []
    for labels, value in series.items():
        as_dict = dict(labels)
        if shard is not None and as_dict.get("shard") != shard:
            continue
        if shard is None and "shard" in as_dict:
            continue
        le = as_dict.get("le")
        if le is None:
            continue
        out.append((float("inf") if le == "+Inf" else float(le), value))
    return out


def _value(
    dump: MetricsDump, name: str, shard: Optional[str] = None
) -> Optional[float]:
    for labels, value in dump.get(name, {}).items():
        as_dict = dict(labels)
        if shard is None and "shard" not in as_dict:
            return value
        if shard is not None and as_dict.get("shard") == shard:
            return value
    return None


def _shard_ids(dump: MetricsDump) -> List[str]:
    shards = set()
    for series in dump.values():
        for labels in series:
            for key, value in labels:
                if key == "shard":
                    shards.add(value)
    return sorted(shards, key=lambda s: (len(s), s))


def fetch(url: str, timeout_s: float = 5.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return response.read().decode()


def fetch_state(base_url: str, timeout_s: float = 5.0) -> Tuple[MetricsDump, dict]:
    """One poll: parsed ``/metrics`` plus decoded ``/stmm``."""
    metrics = parse_prometheus(fetch(f"{base_url}/metrics", timeout_s))
    stmm = json.loads(fetch(f"{base_url}/stmm", timeout_s))
    return metrics, stmm


def fetch_traces(base_url: str, timeout_s: float = 5.0) -> Optional[dict]:
    """The decoded ``/traces`` body (None against a pre-tracing server)."""
    try:
        return json.loads(fetch(f"{base_url}/traces", timeout_s))
    except (OSError, ValueError):
        return None


def _fmt_latency(seconds: Optional[float]) -> str:
    if seconds is None:
        return "    -"
    if seconds < 1e-3:
        return f"{seconds * 1e6:4.0f}u"
    if seconds < 1.0:
        return f"{seconds * 1e3:4.1f}m"
    return f"{seconds:4.2f}s"


def _fmt_count(value: Optional[float], width: int) -> str:
    if value is None:
        return f"{'-':>{width}}"
    return f"{value:{width}.0f}"


def _wait_seconds(dump: MetricsDump, shard: Optional[str]) -> Optional[float]:
    """Total profiler wait seconds for one shard (None: profiler off)."""
    series = dump.get("service_wait_seconds_sum")
    if not series:
        return None
    total: Optional[float] = None
    for labels, value in series.items():
        as_dict = dict(labels)
        if shard is None and "shard" in as_dict:
            continue
        if shard is not None and as_dict.get("shard") != shard:
            continue
        total = (total or 0.0) + value
    return total


def worker_wire_latency(metrics: MetricsDump) -> Dict[str, dict]:
    """Per-worker wire-latency rows from the routed client's histograms.

    They hold the client's sampled requests only (an untraced request
    reads no clock).  Empty when the run had no routed client with
    telemetry and tracing (the series is not published or never
    observed), so callers can skip the panel.
    """
    series = metrics.get("net_client_request_latency_s_bucket", {})
    by_worker: Dict[str, List[Tuple[float, float]]] = {}
    for labels, value in series.items():
        as_dict = dict(labels)
        worker = as_dict.get("worker")
        le = as_dict.get("le")
        if worker is None or le is None:
            continue
        by_worker.setdefault(worker, []).append(
            (float("inf") if le == "+Inf" else float(le), value)
        )
    out: Dict[str, dict] = {}
    for worker in sorted(by_worker, key=lambda w: (len(w), w)):
        buckets = by_worker[worker]
        count = max(v for _, v in buckets)
        if count <= 0:
            continue
        out[worker] = {
            "count": count,
            "p50_s": percentile_from_buckets(buckets, 0.50),
            "p99_s": percentile_from_buckets(buckets, 0.99),
        }
    return out


def shard_summary(
    metrics: MetricsDump,
    shard: Optional[str],
    *,
    prev_metrics: Optional[MetricsDump] = None,
    elapsed_s: float = 0.0,
) -> dict:
    """One shard's dashboard row as raw values (None = not published).

    ``shard=None`` reads the unlabeled series of the unsharded stack.
    What a run does not publish -- the wait series with the profiler
    off, latency percentiles before the first request -- comes back as
    None, never a fake zero.
    """
    requests = _value(metrics, "service_requests_total", shard)
    rate: Optional[float] = None
    if prev_metrics is not None and elapsed_s > 0 and requests is not None:
        before = _value(prev_metrics, "service_requests_total", shard) or 0.0
        rate = (requests - before) / elapsed_s
    buckets = _histogram_buckets(metrics, "service_request_latency_s", shard)
    escal = _value(metrics, "shard_escalations", shard)
    if escal is None:
        escal = _value(metrics, "service_escalations", None)
    used = _value(metrics, "shard_used_slots", shard)
    if used is None:
        used = _value(metrics, "service_locklist_used_slots", None)
    shard_free = _value(metrics, "shard_free_fraction", shard)
    if shard_free is None:
        shard_free = _value(metrics, "service_locklist_free_fraction", None)
    return {
        "shard": shard,
        "requests": requests,
        "rate": rate,
        "p50_s": percentile_from_buckets(buckets, 0.50) if buckets else None,
        "p99_s": percentile_from_buckets(buckets, 0.99) if buckets else None,
        "wait_s": _wait_seconds(metrics, shard),
        "escalations": escal,
        "used_slots": used,
        "free_fraction": shard_free,
    }


def render_frame(
    metrics: MetricsDump,
    stmm: dict,
    *,
    prev_metrics: Optional[MetricsDump] = None,
    elapsed_s: float = 0.0,
    audit_tail: int = 5,
    traces: Optional[dict] = None,
) -> str:
    """One dashboard frame as a string (no terminal control codes)."""
    lines: List[str] = []
    pages = stmm.get("locklist_pages", 0)
    free = stmm.get("locklist_free_fraction", 0.0)
    maxlocks = stmm.get("maxlocks_fraction", 0.0)
    frozen = stmm.get("frozen_reason")
    lines.append(
        f"LOCKLIST {pages} pages | free {free:.1%} | "
        f"MAXLOCKS {maxlocks:.1%} | overflow {stmm.get('overflow_pages', 0)}p"
        + (f" | FROZEN: {frozen}" if frozen else "")
    )
    incidents = stmm.get("incident_total")
    lines.append(
        f"tuning intervals: {stmm.get('intervals', 0)} | "
        f"audit records: {stmm.get('audit_total', 0)} | "
        f"incidents: {incidents if incidents is not None else '-'}"
    )

    shards = _shard_ids(metrics)
    targets: List[Optional[str]] = list(shards) if shards else [None]
    lines.append("")
    lines.append(
        f"{'shard':>5} {'req/s':>9} {'requests':>10} {'p50':>6} {'p99':>6} "
        f"{'wait s':>8} {'escal':>6} {'used':>8} {'free%':>6}"
    )
    for shard in targets:
        row = shard_summary(
            metrics, shard, prev_metrics=prev_metrics, elapsed_s=elapsed_s
        )
        wait_s = row["wait_s"]
        wait_str = f"{wait_s:8.3f}" if wait_s is not None else f"{'-':>8}"
        free = row["free_fraction"]
        free_str = f"{free:6.1%}" if free is not None else f"{'-':>6}"
        lines.append(
            f"{shard if shard is not None else 'all':>5} "
            f"{_fmt_count(row['rate'], 9)} "
            f"{_fmt_count(row['requests'], 10)} "
            f"{_fmt_latency(row['p50_s']):>6} {_fmt_latency(row['p99_s']):>6} "
            f"{wait_str} "
            f"{_fmt_count(row['escalations'], 6)} "
            f"{_fmt_count(row['used_slots'], 8)} "
            f"{free_str}"
        )

    wire = worker_wire_latency(metrics)
    if wire:
        lines.append("")
        lines.append("wire latency (routed client, sampled requests, per worker):")
        lines.append(f"{'worker':>6} {'requests':>9} {'p50':>6} {'p99':>6}")
        for worker, row in wire.items():
            lines.append(
                f"{worker:>6} {_fmt_count(row['count'], 9)} "
                f"{_fmt_latency(row['p50_s']):>6} "
                f"{_fmt_latency(row['p99_s']):>6}"
            )

    if traces and traces.get("enabled") and traces.get("traces"):
        tax = (traces.get("summary") or {}).get("wire_tax", {})
        lines.append("")
        lines.append(
            f"request traces: {traces.get('total', 0)} sampled "
            f"(1/{traces.get('sample_every', 0)}) | "
            f"truncated {traces.get('truncated', 0)} | "
            f"wire tax {tax.get('fraction', 0.0):.0%}"
        )
        slowest = sorted(
            traces["traces"], key=lambda tr: -tr.get("total_s", 0.0)
        )[:5]
        lines.append(
            f"{'trace':>17} {'worker':>6} {'total':>6} {'net%':>5}  "
            f"slowest hop"
        )
        for tr in slowest:
            hops = tr.get("hops") or {}
            top_hop = max(hops, key=hops.get) if hops else "-"
            lines.append(
                f"{tr.get('trace_id', 0):>17x} "
                f"{tr.get('worker', '-')!s:>6} "
                f"{_fmt_latency(tr.get('total_s')):>6} "
                f"{tr.get('wire_tax', 0.0):>5.0%}  "
                f"{top_hop} ({_fmt_latency(hops.get(top_hop))})"
            )

    broker = stmm.get("broker")
    if broker:
        lines.append("")
        lines.append(
            f"broker: posture {broker.get('posture', '?')} | pressure "
            f"{broker.get('pressure', 0.0):.2f} | "
            f"{broker.get('trades', 0)} trades "
            f"({broker.get('pages_traded', 0)}p) | free "
            f"{broker.get('free_pages', 0)}p"
        )
        lines.append(
            f"{'heap':>10} {'pages':>7} {'demand':>7} {'benefit/p':>10} "
            f"{'rate':>9} {'tradeable':>9}"
        )
        for heap in broker.get("heaps", []):
            lines.append(
                f"{heap.get('heap', '?'):>10} "
                f"{heap.get('size_pages', 0):>7} "
                f"{heap.get('demand_pages', 0):>7} "
                f"{heap.get('benefit_per_page', 0.0):>10.2e} "
                f"{heap.get('rate', 0.0):>9.1f} "
                f"{'yes' if heap.get('tradeable') else 'no':>9}"
            )

    audit = stmm.get("audit", [])
    if audit:
        lines.append("")
        lines.append(f"last {min(audit_tail, len(audit))} tuning decisions:")
        for record in audit[-audit_tail:]:
            lines.append(
                f"  #{record.get('interval', '?'):>3} "
                f"{record.get('reason', '?'):28} "
                f"{record.get('current_pages', 0):5d} -> "
                f"{record.get('target_pages', 0):5d} pages "
                f"(free {record.get('free_fraction', 0.0):.0%}, "
                f"esc {record.get('escalations_in_interval', 0)})"
            )
    return "\n".join(lines)


def frame_dict(
    metrics: MetricsDump,
    stmm: dict,
    *,
    prev_metrics: Optional[MetricsDump] = None,
    elapsed_s: float = 0.0,
    traces: Optional[dict] = None,
) -> dict:
    """One machine-readable frame (the ``--json`` output)."""
    shards = _shard_ids(metrics)
    targets: List[Optional[str]] = list(shards) if shards else [None]
    trace_summary = None
    if traces is not None:
        trace_summary = {
            "enabled": traces.get("enabled", False),
            "sample_every": traces.get("sample_every", 0),
            "total": traces.get("total", 0),
            "truncated": traces.get("truncated", 0),
            "summary": traces.get("summary", {}),
        }
    return {
        "locklist_pages": stmm.get("locklist_pages"),
        "free_fraction": stmm.get("locklist_free_fraction"),
        "maxlocks_fraction": stmm.get("maxlocks_fraction"),
        "frozen_reason": stmm.get("frozen_reason"),
        "intervals": stmm.get("intervals"),
        "audit_total": stmm.get("audit_total"),
        "incident_total": stmm.get("incident_total"),
        "wait_classes": stmm.get("wait_classes"),
        "broker": stmm.get("broker"),
        "wire_latency": worker_wire_latency(metrics),
        "traces": trace_summary,
        "shards": [
            shard_summary(
                metrics, shard, prev_metrics=prev_metrics, elapsed_s=elapsed_s
            )
            for shard in targets
        ],
    }


def run_top(
    base_url: str,
    *,
    interval_s: float = 1.0,
    frames: Optional[int] = None,
    clear: bool = True,
    as_json: bool = False,
    out=None,
) -> int:
    """Poll and redraw until interrupted (or for ``frames`` frames)."""
    out = out or sys.stdout
    prev: Optional[MetricsDump] = None
    prev_at: float = 0.0
    drawn = 0
    try:
        while frames is None or drawn < frames:
            try:
                metrics, stmm = fetch_state(base_url)
            except OSError as exc:
                print(f"top: {base_url} unreachable: {exc}", file=sys.stderr)
                return 1
            traces = fetch_traces(base_url)
            now = time.monotonic()
            elapsed = (now - prev_at) if prev is not None else 0.0
            if as_json:
                out.write(
                    json.dumps(
                        frame_dict(
                            metrics,
                            stmm,
                            prev_metrics=prev,
                            elapsed_s=elapsed,
                            traces=traces,
                        ),
                        separators=(",", ":"),
                    )
                )
                out.write("\n")
            else:
                frame = render_frame(
                    metrics,
                    stmm,
                    prev_metrics=prev,
                    elapsed_s=elapsed,
                    traces=traces,
                )
                if clear and drawn:
                    out.write("\x1b[2J\x1b[H")
                out.write(
                    f"repro-service top -- {base_url} -- "
                    f"{time.strftime('%H:%M:%S')}\n"
                )
                out.write(frame)
                out.write("\n")
            out.flush()
            prev, prev_at = metrics, now
            drawn += 1
            if frames is not None and drawn >= frames:
                break
            time.sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return 0


__all__ = [
    "parse_prometheus",
    "percentile_from_buckets",
    "shard_summary",
    "worker_wire_latency",
    "frame_dict",
    "render_frame",
    "fetch_state",
    "fetch_traces",
    "run_top",
]
