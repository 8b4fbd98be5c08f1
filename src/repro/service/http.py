"""HTTP surface of the sweep service: status, SSE, Prometheus, health.

Stdlib-only (``http.server.ThreadingHTTPServer``) — the daemon adds no
dependencies.  Every endpoint reads the same on-disk artifacts the CLI
reads, so an observer gets identical answers whether it asks the daemon
or runs ``repro status`` against the ledger root:

``POST /sweeps``
    Body: the JSON spec dict ``repro sweep`` consumes (see
    :func:`~repro.service.engine.parse_spec`).  Returns 202 with the run
    id and the run's status/SSE URLs.  Error paths are structured JSON,
    never tracebacks: 400 on a bad spec, malformed JSON, a non-object
    body or a wrong ``Content-Type``; 413 when the body exceeds
    :data:`MAX_BODY_BYTES`; 429 + ``Retry-After`` when admission
    control refuses (queue full); 503 + ``Retry-After`` when the
    submission journal cannot be written (disk full) or the service is
    draining.  Resubmitting a spec under its run id is idempotent, so
    retrying on 429/503/timeouts is always safe.
``GET /sweeps/<run-id>``
    Exactly the ``repro status <run-id> --json`` payload, byte for byte
    — both sides are ``json.dumps(load_run_status(...).as_dict(),
    indent=2, sort_keys=True)``.
``GET /sweeps/<run-id>/events``
    Server-Sent Events: each span-sidecar record streams as one
    ``event: span`` message via an incremental
    :class:`~repro.telemetry.tail.JsonlTailer`; ``id:`` carries the
    byte-offset cursor, and a reconnecting client's ``Last-Event-ID``
    header resumes from that offset without replaying history.  A final
    ``event: end`` closes the stream when the run finishes.
``GET /sweeps/<run-id>/results``
    Journaled summaries of the successful points, keyed by
    content-addressed point key, read straight from the run's ledger
    file — how a remote
    ``repro pareto --service`` tuner harvests a finished rung's metrics.
``GET /metrics``
    Prometheus text exposition (:func:`~repro.telemetry.export.render_prom`)
    of the service's queue/dedupe/worker samples.
``GET /healthz``
    200 with pool liveness while every worker thread is alive; 503 once
    draining or degraded.

Requests are access-logged as structured JSONL (one object per line:
timestamp, method, path, status, duration, client) instead of the
stdlib's stderr format.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from ..runtime.status import load_run_status, status_paths
from ..telemetry.export import render_prom
from ..telemetry.tail import JsonlTailer
from .engine import QueueFull, SweepService

__all__ = ["ServiceHTTPServer", "serve_forever", "MAX_BODY_BYTES"]

#: SSE poll interval (seconds) between sidecar reads.
SSE_POLL = 0.2

#: Largest accepted ``POST /sweeps`` body; larger requests get a 413.
MAX_BODY_BYTES = 1 << 20

#: ``Retry-After`` hint (seconds) for transient 503s (journal append
#: failed); the disk-full condition usually needs operator action, so
#: the hint is deliberately short — clients learn quickly when it clears.
JOURNAL_RETRY_AFTER = 2


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on the server object."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"

    # -------------------------------------------------------------- util
    @property
    def service(self) -> SweepService:
        return self.server.service

    def _send(self, status: int, body: bytes, content_type: str,
              headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload,
                   headers: dict | None = None) -> None:
        if isinstance(payload, (bytes, str)):
            body = payload.encode() if isinstance(payload, str) else payload
        else:
            body = (
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            ).encode()
        self._send(status, body, "application/json", headers=headers)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # replaced by the structured JSONL access log

    def _log_access(self, status: int, started: float) -> None:
        self.server.log_access(
            {
                "ts": round(time.time(), 3),
                "method": self.command,
                "path": self.path,
                "status": status,
                "dur_ms": round((time.perf_counter() - started) * 1000, 2),
                "client": self.client_address[0],
            }
        )

    # ----------------------------------------------------------- routes
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        started = time.perf_counter()
        status = 500
        try:
            if self.path.rstrip("/") != "/sweeps":
                status = 404
                self._send_json(status, {"error": "unknown endpoint"})
                return
            content_type = (
                (self.headers.get("Content-Type") or "")
                .split(";", 1)[0].strip().lower()
            )
            if content_type and content_type != "application/json":
                status = 400
                self._send_json(
                    status,
                    {"error": "Content-Type must be application/json "
                              "(got %r)" % content_type},
                )
                return
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                status = 400
                self._send_json(status, {"error": "invalid Content-Length"})
                return
            if length < 0:
                status = 400
                self._send_json(status, {"error": "invalid Content-Length"})
                return
            if length > MAX_BODY_BYTES:
                status = 413
                self._send_json(
                    status,
                    {"error": "request body exceeds %d bytes" % MAX_BODY_BYTES,
                     "limit_bytes": MAX_BODY_BYTES},
                )
                return
            try:
                spec = json.loads(self.rfile.read(length) or b"{}")
            except ValueError:
                status = 400
                self._send_json(status, {"error": "body is not valid JSON"})
                return
            if not isinstance(spec, dict):
                status = 400
                self._send_json(
                    status, {"error": "sweep spec must be a JSON object"}
                )
                return
            try:
                run_id = self.service.submit(spec)
            except QueueFull as exc:
                status = 429
                self._send_json(
                    status,
                    {"error": str(exc), "retry_after": exc.retry_after},
                    headers={"Retry-After": exc.retry_after},
                )
                return
            except ValueError as exc:
                status = 400
                self._send_json(status, {"error": str(exc)})
                return
            except OSError as exc:
                # The submission journal could not be written (disk
                # full): nothing was accepted, so a retry is safe.
                status = 503
                self._send_json(
                    status,
                    {"error": "submission journal append failed: %s" % exc,
                     "retry_after": JOURNAL_RETRY_AFTER},
                    headers={"Retry-After": JOURNAL_RETRY_AFTER},
                )
                return
            except RuntimeError as exc:
                status = 503
                self._send_json(status, {"error": str(exc)})
                return
            status = 202
            self._send_json(
                status,
                {
                    "run_id": run_id,
                    "status_url": "/sweeps/%s" % run_id,
                    "events_url": "/sweeps/%s/events" % run_id,
                },
            )
        finally:
            self._log_access(status, started)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        started = time.perf_counter()
        status = 500
        try:
            path = self.path.split("?", 1)[0]
            if path == "/healthz":
                status = self._healthz()
            elif path == "/metrics":
                status = self._metrics()
            elif path.startswith("/sweeps/") and path.endswith("/events"):
                run_id = path[len("/sweeps/"):-len("/events")].strip("/")
                status = self._events(run_id)
            elif path.startswith("/sweeps/") and path.endswith("/results"):
                run_id = path[len("/sweeps/"):-len("/results")].strip("/")
                status = self._results(run_id)
            elif path.startswith("/sweeps/"):
                run_id = path[len("/sweeps/"):].strip("/")
                status = self._status(run_id)
            else:
                status = 404
                self._send_json(status, {"error": "unknown endpoint"})
        except (BrokenPipeError, ConnectionResetError):
            status = 499  # client went away mid-response
        finally:
            self._log_access(status, started)

    # ------------------------------------------------------------------
    def _healthz(self) -> int:
        healthy = self.service.healthy()
        status = 200 if healthy else 503
        self._send_json(
            status,
            {
                "ok": healthy,
                "workers": self.service.workers,
                "busy": sum(self.service.busy_workers()),
                "queue_depth": self.service.queue_depth(),
                "runs": len(self.service.run_ids()),
            },
        )
        return status

    def _metrics(self) -> int:
        body = render_prom(self.service.metric_samples()).encode()
        self._send(200, body, "text/plain; version=0.0.4; charset=utf-8")
        return 200

    def _status(self, run_id: str) -> int:
        if not run_id or "/" in run_id:
            self._send_json(404, {"error": "bad run id"})
            return 404
        run_status = load_run_status(run_id, root=self.service.root)
        if not run_status.found:
            self._send_json(404, {"error": "unknown run id %r" % run_id})
            return 404
        # Byte-identical to `repro status <run-id> --json` by
        # construction: same loader, same serializer.
        body = (
            json.dumps(run_status.as_dict(), indent=2, sort_keys=True) + "\n"
        ).encode()
        self._send(200, body, "application/json")
        return 200

    def _results(self, run_id: str) -> int:
        """Journaled summaries of the successful points, keyed by point key.

        Serves straight from the run's ledger file (torn-tail tolerant),
        so remote harvesters — the ``repro pareto --service`` tuner —
        can fetch metrics without the service holding results in memory.
        """
        from ..runtime.ledger import RunLedger

        if not run_id or "/" in run_id:
            self._send_json(404, {"error": "bad run id"})
            return 404
        ledger = RunLedger(run_id, root=self.service.root)
        if not ledger.exists():
            self._send_json(404, {"error": "unknown run id %r" % run_id})
            return 404
        ledger.refresh()
        points = {
            key: {
                "label": record.get("label"),
                "summary": record.get("data", {}).get("summary"),
            }
            for key, record in ledger.completed_records().items()
        }
        body = (
            json.dumps(
                {"run_id": run_id, "points": points},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        ).encode()
        self._send(200, body, "application/json")
        return 200

    def _events(self, run_id: str) -> int:
        if not run_id or "/" in run_id:
            self._send_json(404, {"error": "bad run id"})
            return 404
        ledger_path, sidecar = status_paths(run_id, self.service.root)
        if not (
            sidecar.is_file()
            or ledger_path.is_file()
            or self.service.run_finished(run_id) is not None
        ):
            self._send_json(404, {"error": "unknown run id %r" % run_id})
            return 404
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()

        tailer = JsonlTailer(sidecar)
        resume = self.headers.get("Last-Event-ID")
        if resume and resume.isdigit():
            tailer.seek(int(resume))
        saw_finish = False
        while True:
            records = tailer.poll()
            for record in records:
                if record.get("k") == "F" and record.get("name") == "sweep.finish":
                    saw_finish = True
                self.wfile.write(
                    (
                        "event: span\nid: %d\ndata: %s\n\n"
                        % (
                            tailer.offset,
                            json.dumps(record, separators=(",", ":"),
                                       sort_keys=True),
                        )
                    ).encode()
                )
            self.wfile.flush()
            finished = saw_finish or self.service.run_finished(run_id) is True
            if finished and not records:
                self.wfile.write(
                    ("event: end\nid: %d\ndata: {}\n\n" % tailer.offset).encode()
                )
                self.wfile.flush()
                return 200
            if not records:
                time.sleep(SSE_POLL)


class ServiceHTTPServer:
    """One daemon: a :class:`SweepService` behind a threading HTTP server.

    ``port=0`` binds an ephemeral port (tests); :meth:`start` runs the
    accept loop in a background thread, :meth:`stop` drains the worker
    pool (journaling the ``service.shutdown`` span) and closes the
    listener.
    """

    def __init__(
        self,
        service: SweepService,
        host: str = "127.0.0.1",
        port: int = 0,
        access_log: str | Path | None = None,
    ):
        self.service = service
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = service
        self.httpd.access_log_path = Path(access_log) if access_log else None
        self.httpd.access_log_lock = threading.Lock()
        self.httpd.log_access = self._log_access
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def _log_access(self, record: dict) -> None:
        if self.httpd.access_log_path is None:
            return
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self.httpd.access_log_lock:
            self.httpd.access_log_path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.httpd.access_log_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return "http://%s:%d" % (host, port)

    # ------------------------------------------------------------------
    def start(self) -> "ServiceHTTPServer":
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="sweep-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, drain_timeout: float = 30.0) -> bool:
        """Graceful shutdown: drain the pool, then close the listener."""
        clean = self.service.drain(timeout=drain_timeout)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
        return clean


def serve_forever(
    service: SweepService,
    host: str = "127.0.0.1",
    port: int = 8321,
    access_log: str | Path | None = None,
    drain_timeout: float = 30.0,
    announce=print,
) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain gracefully.

    The blocking entry point behind ``repro serve``: installs signal
    handlers that trigger the graceful drain (queued jobs finish, the
    ``service.shutdown`` span is journaled) before the process exits.
    Returns the process exit code.
    """
    server = ServiceHTTPServer(
        service, host=host, port=port, access_log=access_log
    )
    stop = threading.Event()

    def _signal(signum, frame):
        stop.set()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _signal)
    server.start()
    bound_host, bound_port = server.address
    announce("repro serve listening on http://%s:%d" % (bound_host, bound_port))
    announce("  POST /sweeps            submit a sweep spec")
    announce("  GET  /sweeps/<run-id>   status (repro status --json)")
    announce("  GET  /sweeps/<id>/events  SSE span stream")
    announce("  GET  /sweeps/<id>/results journaled per-point summaries")
    announce("  GET  /metrics           Prometheus text format")
    announce("  GET  /healthz           pool liveness")
    announce("ledger root: %s" % service.root)
    try:
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    clean = server.stop(drain_timeout=drain_timeout)
    announce("drained; shutdown %s" % ("clean" if clean else "timed out"))
    return 0 if clean else 1
