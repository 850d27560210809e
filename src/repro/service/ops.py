"""The live operations plane: ``/metrics``, ``/healthz``, ``/stmm``.

A running lock service is only debuggable while it runs -- the paper's
tuner is an *online* algorithm, and its behaviour (growth bursts,
escalation recovery, the free-band walk) disappears from view the
moment the process exits.  :class:`OpsServer` embeds a small
dependency-free HTTP endpoint (stdlib ``http.server``, threaded) into a
service stack:

``GET /metrics``
    The shared :class:`~repro.obs.registry.MetricRegistry` rendered in
    Prometheus text format 0.0.4 (see :mod:`repro.obs.prometheus`),
    including the per-shard labeled series.  Point-in-time gauges
    (per-shard occupancy, admission depth, LOCKLIST pages) are
    refreshed immediately before rendering via the stack's publish
    hook, so a scrape always sees the current state rather than the
    last tuning pass's.

``GET /healthz``
    Liveness JSON: tuner alive/frozen (plus the crash message once
    degraded), per-shard open/closed, session and interval counts.
    Status 200 while the tuner is live, 503 once tuning froze or the
    service closed -- degraded-but-serving, exactly what an
    orchestrator's readiness probe wants to distinguish.

``GET /stmm``
    The STMM decision audit trail as JSON: the bounded
    :class:`~repro.obs.audit.TuningAuditLog` ring (inputs + chosen
    action per interval, in the closed reason vocabulary) and the
    current LOCKLIST / MAXLOCKS posture.

``GET /incidents``
    The incident forensics ring as JSON: every captured deadlock
    victim, lock escalation and tuner freeze with its wait-for cycle,
    lock-table posture, top blockers and audit tail (see
    :mod:`repro.obs.incidents`).  404 when the stack did not wire an
    incident log.

``GET /traces``
    The sampled request traces as JSON (see :mod:`repro.obs.tracing`):
    completed traces with their hop decomposition and wire tax, plus
    the per-worker server span rings merged by the parent pool.  Always
    200 -- an unwired or disabled tracer serves the same shape with
    ``enabled: false`` and empty rings.

The server binds ``127.0.0.1`` by default and serves each request from
a pooled thread; handlers only ever *read* (snapshot copies from the
registry and ring buffers), so a scrape cannot stall the request hot
path beyond the per-instrument locks it shares with everyone else.
Port 0 asks the OS for an ephemeral port (tests, CI); the bound port is
on :attr:`OpsServer.port` after :meth:`start`.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional

from repro.errors import ServiceError
from repro.obs.prometheus import render_prometheus
from repro.obs.registry import MetricRegistry

#: Content type the Prometheus scraper expects for the text format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def empty_traces_payload() -> Dict[str, Any]:
    """The ``/traces`` body when request tracing is not wired or off.

    Deliberately the same shape as a live payload (not a 404): a
    scraper can always ask for traces and branch on ``enabled``.
    """
    return {
        "enabled": False,
        "sample_every": 0,
        "total": 0,
        "truncated": 0,
        "traces": [],
        "server_spans": {},
        "summary": {},
    }


class OpsServer:
    """Serve a stack's registry, health and audit trail over HTTP.

    Parameters
    ----------
    registry:
        The metric registry ``/metrics`` renders.
    health:
        Callable returning the ``/healthz`` JSON body; its ``"ok"`` key
        decides the status code (200 when true, 503 when false).
    stmm_status:
        Callable returning the ``/stmm`` JSON body.
    incidents:
        Optional callable returning the ``/incidents`` JSON body (the
        forensics ring of deadlock / escalation / tuner-freeze
        records); 404 when not wired.
    traces:
        Optional callable returning the ``/traces`` JSON body (the
        end-to-end request-trace rings, client and server side --
        see :mod:`repro.obs.tracing`).  Unlike ``/incidents``, an
        unwired ``/traces`` serves :func:`empty_traces_payload` rather
        than a 404, so tooling can probe it unconditionally.
    refresh:
        Optional hook run before each ``/metrics`` render; stacks use
        it to publish point-in-time gauges (occupancy, queue depth).
    port:
        TCP port (0 = OS-assigned ephemeral, for tests and CI).
    host:
        Bind address; loopback by default -- the ops plane is a
        diagnostic surface, not a public API.
    """

    def __init__(
        self,
        registry: MetricRegistry,
        *,
        health: Callable[[], Dict[str, Any]],
        stmm_status: Callable[[], Dict[str, Any]],
        incidents: Optional[Callable[[], Dict[str, Any]]] = None,
        traces: Optional[Callable[[], Dict[str, Any]]] = None,
        refresh: Optional[Callable[[], None]] = None,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        if port < 0:
            raise ServiceError(f"ops port must be non-negative, got {port}")
        self.registry = registry
        self.health = health
        self.stmm_status = stmm_status
        self.incidents = incidents
        self.traces = traces
        self.refresh = refresh
        self.requested_port = port
        self.host = host
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 after :meth:`start`)."""
        if self._server is None:
            return self.requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "OpsServer":
        if self._server is not None:
            raise ServiceError("ops server already started")
        ops = self

        class Handler(BaseHTTPRequestHandler):
            # One ops scrape must never block on a slow peer forever.
            timeout = 10.0

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        if ops.refresh is not None:
                            ops.refresh()
                        body = render_prometheus(ops.registry).encode()
                        self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
                    elif path == "/healthz":
                        status = ops.health()
                        code = 200 if status.get("ok") else 503
                        self._reply_json(code, status)
                    elif path == "/stmm":
                        self._reply_json(200, ops.stmm_status())
                    elif path == "/incidents":
                        if ops.incidents is None:
                            self._reply_json(
                                404, {"error": "incident log not wired"}
                            )
                        else:
                            self._reply_json(200, ops.incidents())
                    elif path == "/traces":
                        if ops.traces is None:
                            self._reply_json(200, empty_traces_payload())
                        else:
                            self._reply_json(200, ops.traces())
                    else:
                        self._reply_json(
                            404, {"error": f"unknown path {path!r}"}
                        )
                except BrokenPipeError:  # scraper went away mid-reply
                    pass
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    try:
                        self._reply_json(
                            500, {"error": f"{type(exc).__name__}: {exc}"}
                        )
                    except Exception:
                        pass

            def _reply_json(self, code: int, payload: Dict[str, Any]) -> None:
                self._reply(
                    code,
                    "application/json",
                    json.dumps(payload, separators=(",", ":")).encode(),
                )

            def _reply(self, code: int, content_type: str, body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # scrapes are high-frequency; stay silent

        server = ThreadingHTTPServer((self.host, self.requested_port), Handler)
        server.daemon_threads = True
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            name=f"ops-server:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serve thread.

        ``BaseServer.shutdown`` only returns once the serve loop
        notices the flag, which by default means waiting out the rest
        of a 0.5 s ``select`` poll.  A service stack tears the ops
        plane down on every stop (and the perf bench on every
        repetition), so the poll is woken immediately with a throwaway
        loopback connection instead of slept through.
        """
        server, self._server = self._server, None
        if server is None:
            return
        port = server.server_address[1]
        shutter = threading.Thread(target=server.shutdown, daemon=True)
        shutter.start()
        connect_host = (
            "127.0.0.1" if self.host in ("", "0.0.0.0") else self.host
        )
        try:
            with socket.create_connection((connect_host, port), timeout=1.0):
                pass
        except OSError:
            pass  # loop already exited; nothing to wake
        shutter.join(timeout=5.0)
        server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "OpsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = self.url if self.running else "stopped"
        return f"OpsServer({state})"


__all__ = ["OpsServer", "PROMETHEUS_CONTENT_TYPE", "empty_traces_payload"]
