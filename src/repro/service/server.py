"""JSON-over-HTTP front end for the service daemon (stdlib only).

Routes (all bodies JSON):

- ``POST /jobs``              submit ``{"spec": {...}, "reuse": bool}``
- ``GET  /jobs``              list job status summaries
- ``GET  /jobs/<id>``         one job's status
- ``GET  /jobs/<id>/result``  result payload (``?verilog=1`` to inline
  the converted netlist)
- ``GET  /jobs/<id>/trace``   the job's spans as a Perfetto-loadable
  Chrome trace-event file (trace correlation)
- ``GET  /jobs/<id>/profile`` the captured per-stage profile (hot
  function tables + a speedscope document) for a ``profile: true`` job
- ``POST /jobs/<id>/cancel``  cancel a queued job
- ``GET  /metrics``           service + registry snapshot
  (``?format=prometheus`` for text exposition)
- ``GET  /health``            liveness/readiness + queue counts
- ``POST /shutdown``          graceful drain, then stop serving

The server is a ``ThreadingHTTPServer``: each request is handled on
its own thread against the daemon's thread-safe API, so a slow result
fetch never blocks a submit.  Errors map to conventional statuses:
400 malformed spec, 404 unknown job, 409 job not finished, 429 queue
full (backpressure), 503 draining.  A ``Content-Length`` that is not
a non-negative integer is a 400, never a read of an unknown length.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .daemon import ServiceDaemon
from .jobs import JobError, JobSpec
from .queue import QueueClosed, QueueFull

log = logging.getLogger("repro.service.http")

_JOB_PATH = re.compile(
    r"^/jobs/([0-9a-f]+)(/(result|cancel|trace|profile))?$"
)


class ServiceRequestError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    @property
    def daemon(self) -> ServiceDaemon:
        return self.server.service_daemon  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:
        log.debug("%s " + fmt, self.address_string(), *args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # the body's extent is unknown, so the connection cannot be
            # reused for another request
            self.close_connection = True
            raise ServiceRequestError(
                400, f"bad Content-Length {header!r}"
            )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceRequestError(400, f"bad JSON body: {exc}")
        if not isinstance(payload, dict):
            raise ServiceRequestError(400, "body must be a JSON object")
        return payload

    def _route(self) -> Tuple[str, Dict[str, Any]]:
        parsed = urlparse(self.path)
        query = {
            key: values[-1] for key, values in parse_qs(parsed.query).items()
        }
        return parsed.path.rstrip("/") or "/", query

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        try:
            self._dispatch_get()
        except ServiceRequestError as error:
            self._send_json(error.status, {"error": str(error)})
        except Exception as exc:  # never kill the connection thread
            log.exception("GET %s failed", self.path)
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802
        try:
            self._dispatch_post()
        except ServiceRequestError as error:
            self._send_json(error.status, {"error": str(error)})
        except Exception as exc:
            log.exception("POST %s failed", self.path)
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    # -- GET routes ----------------------------------------------------
    def _dispatch_get(self) -> None:
        path, query = self._route()
        if path == "/health":
            self._send_json(200, self.daemon.health())
            return
        if path == "/metrics":
            snapshot = self.daemon.metrics_snapshot()
            if query.get("format") == "prometheus":
                from ..obs.export import prometheus_text

                self._send_text(
                    200, prometheus_text(self.daemon.registry)
                )
            else:
                self._send_json(200, snapshot)
            return
        if path == "/jobs":
            self._send_json(200, {"jobs": self.daemon.list_jobs()})
            return
        match = _JOB_PATH.match(path)
        if match and match.group(3) is None:
            self._send_json(200, self._job_status(match.group(1)))
            return
        if match and match.group(3) == "result":
            include_verilog = query.get("verilog") in ("1", "true", "yes")
            self._send_json(
                200, self._job_result(match.group(1), include_verilog)
            )
            return
        if match and match.group(3) == "trace":
            self._send_json(200, self._job_trace(match.group(1)))
            return
        if match and match.group(3) == "profile":
            self._send_json(200, self._job_profile(match.group(1)))
            return
        raise ServiceRequestError(404, f"no route for GET {path}")

    def _job_status(self, job_id: str) -> Dict[str, Any]:
        try:
            return self.daemon.job_status(job_id)
        except KeyError:
            raise ServiceRequestError(404, f"unknown job {job_id!r}")

    def _job_result(self, job_id: str, include_verilog: bool):
        try:
            return self.daemon.job_result(job_id, include_verilog)
        except KeyError:
            raise ServiceRequestError(404, f"unknown job {job_id!r}")
        except LookupError as exc:
            raise ServiceRequestError(409, str(exc))

    def _job_trace(self, job_id: str):
        try:
            return self.daemon.job_trace(job_id)
        except KeyError:
            raise ServiceRequestError(404, f"unknown job {job_id!r}")
        except LookupError as exc:
            raise ServiceRequestError(404, str(exc))

    def _job_profile(self, job_id: str):
        try:
            return self.daemon.job_profile(job_id)
        except KeyError:
            raise ServiceRequestError(404, f"unknown job {job_id!r}")
        except LookupError as exc:
            raise ServiceRequestError(404, str(exc))

    # -- POST routes ---------------------------------------------------
    def _dispatch_post(self) -> None:
        path, _query = self._route()
        if path == "/jobs":
            body = self._read_body()
            try:
                spec = JobSpec.from_dict(body.get("spec") or {})
            except (JobError, TypeError) as exc:
                raise ServiceRequestError(400, f"bad job spec: {exc}")
            try:
                job, deduped = self.daemon.submit(
                    spec, reuse=bool(body.get("reuse", True))
                )
            except JobError as exc:
                raise ServiceRequestError(400, str(exc))
            except QueueFull as exc:
                raise ServiceRequestError(429, str(exc))
            except QueueClosed as exc:
                raise ServiceRequestError(503, str(exc))
            self._send_json(
                202 if not deduped else 200,
                {
                    "id": job.id,
                    "state": job.state.value,
                    "deduped": deduped,
                    "key": job.meta["key"],
                },
            )
            return
        match = _JOB_PATH.match(path)
        if match and match.group(3) == "cancel":
            job_id = match.group(1)
            try:
                cancelled = self.daemon.cancel(job_id)
            except KeyError:
                raise ServiceRequestError(404, f"unknown job {job_id!r}")
            self._send_json(
                200, {"id": job_id, "cancelled": cancelled}
            )
            return
        if path == "/shutdown":
            self._send_json(200, {"status": "draining"})
            threading.Thread(
                target=self.server.initiate_shutdown,  # type: ignore[attr-defined]
                daemon=True,
            ).start()
            return
        raise ServiceRequestError(404, f"no route for POST {path}")


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`ServiceDaemon`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, daemon: ServiceDaemon):
        super().__init__(address, _Handler)
        self.service_daemon = daemon
        self._serve_thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_background(self) -> "ServiceServer":
        """Serve on a background thread (tests, benchmarks, clients)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-service-http", daemon=True
        )
        self._serve_thread.start()
        return self

    def initiate_shutdown(self, timeout: Optional[float] = None) -> None:
        """Graceful stop: drain the daemon, then stop accepting HTTP."""
        self.service_daemon.close(timeout)
        self.shutdown()

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None


def make_server(
    daemon: ServiceDaemon, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Bind (but do not start) the HTTP front end; port 0 auto-picks."""
    return ServiceServer((host, port), daemon)
