"""Small urllib client for the service HTTP API.

Used by the tests, the benchmark harness and the ``repro submit`` /
``repro status`` CLI verbs -- anything that talks to a running daemon
without importing its internals.  Every method returns the decoded
JSON body; HTTP error statuses raise :class:`ServiceClientError`
carrying the status code and the server's error message.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Optional, Union
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from .jobs import JobSpec


class ServiceClientError(RuntimeError):
    """An HTTP-level failure talking to the daemon."""

    def __init__(self, status: Optional[int], message: str):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """One daemon endpoint, e.g. ``ServiceClient("http://127.0.0.1:8642")``."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        request = Request(
            self.base_url + path,
            method=method,
            headers={"Content-Type": "application/json"},
            data=(
                json.dumps(payload).encode() if payload is not None else None
            ),
        )
        try:
            with urlopen(request, timeout=self.timeout) as response:
                body = response.read().decode()
        except HTTPError as error:
            detail = error.read().decode(errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (json.JSONDecodeError, AttributeError):
                pass
            raise ServiceClientError(
                error.code, f"{method} {path} -> {error.code}: {detail}"
            ) from error
        except (URLError, OSError) as error:
            raise ServiceClientError(
                None, f"{method} {path} unreachable: {error}"
            ) from error
        return json.loads(body) if body.strip() else {}

    # -- API -----------------------------------------------------------
    def submit(
        self,
        spec: Union[JobSpec, Dict[str, Any]],
        reuse: bool = True,
    ) -> Dict[str, Any]:
        """Submit a job; returns ``{"id", "state", "deduped", "key"}``."""
        if isinstance(spec, JobSpec):
            spec = spec.to_dict()
        return self._request(
            "POST", "/jobs", {"spec": spec, "reuse": reuse}
        )

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> Dict[str, Any]:
        return self._request("GET", "/jobs")

    def result(
        self, job_id: str, include_verilog: bool = False
    ) -> Dict[str, Any]:
        suffix = "?verilog=1" if include_verilog else ""
        return self._request("GET", f"/jobs/{job_id}/result{suffix}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def trace(self, job_id: str) -> Dict[str, Any]:
        """A job's Perfetto-loadable trace document."""
        return self._request("GET", f"/jobs/{job_id}/trace")

    def profile(self, job_id: str) -> Dict[str, Any]:
        """A profiled job's per-stage hot tables + speedscope doc."""
        return self._request("GET", f"/jobs/{job_id}/profile")

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/shutdown")

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = 120.0,
        poll: float = 0.05,
    ) -> Dict[str, Any]:
        """Poll until the job settles; returns the final status."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceClientError(
                    None,
                    f"job {job_id} still {status['state']} "
                    f"after {timeout}s",
                )
            time.sleep(poll)
