"""A small urllib client for the experiment service.

:class:`ServiceClient` speaks the JSON API of :mod:`repro.service.http`;
``repro.api`` re-exports it plus module-level ``submit`` / ``wait`` /
``results`` conveniences.  Example::

    from repro.api import ExperimentSpec, connect

    client = connect("http://127.0.0.1:8765")
    job_id = client.submit([ExperimentSpec().with_(injection_rate=0.004)],
                           base_seed=7)
    job = client.wait(job_id)
    rows = client.results(job_id)          # summary rows, submission order
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.spec import ExperimentSpec, as_spec

#: Where ``python -m repro serve`` listens by default.
DEFAULT_SERVICE_URL = "http://127.0.0.1:8765"

#: Job states that will never change again (mirrors the queue's).
_TERMINAL = ("done", "failed", "cancelled")


class ServiceError(RuntimeError):
    """An HTTP-level or API-level error from the service.

    Attributes:
        status: HTTP status code (``0`` for transport errors).
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Talks to one ``repro serve`` daemon.

    Args:
        base_url: ``http://host:port`` of the daemon.
        timeout: Per-request socket timeout, seconds.
    """

    def __init__(self, base_url: str = DEFAULT_SERVICE_URL, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                message = json.loads(error.read().decode("utf-8")).get("error", "")
            except Exception:
                message = error.reason
            raise ServiceError(error.code, f"{error.code}: {message}") from None
        except urllib.error.URLError as error:
            raise ServiceError(
                0, f"cannot reach service at {self.base_url}: {error.reason}"
            ) from None

    def _request_text(self, method: str, path: str) -> str:
        """Like :meth:`_request` for text (non-JSON) endpoints."""
        request = urllib.request.Request(
            self.base_url + path, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise ServiceError(
                error.code, f"{error.code}: {error.reason}"
            ) from None
        except urllib.error.URLError as error:
            raise ServiceError(
                0, f"cannot reach service at {self.base_url}: {error.reason}"
            ) from None

    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, Any]:
        """Daemon liveness document (worker count, global task counts)."""
        return self._request("GET", "/api/health")

    def metrics(self) -> str:
        """The daemon's ``GET /metrics`` Prometheus text exposition."""
        return self._request_text("GET", "/metrics")

    def submit(
        self,
        specs: Union[ExperimentSpec, Iterable[ExperimentSpec]],
        base_seed: Optional[int] = None,
    ) -> int:
        """Submit a job; returns its id (an existing one when dedup'd).

        Use :meth:`submit_receipt` when the caller needs to know whether
        the job was newly created.
        """
        return self.submit_receipt(specs, base_seed=base_seed)["job_id"]

    def submit_receipt(
        self,
        specs: Union[ExperimentSpec, Iterable[ExperimentSpec]],
        base_seed: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Submit a job and return the full receipt document.

        The receipt is the job-status document plus ``created`` (``False``
        when an identical job already existed -- the dedup path).
        """
        if isinstance(specs, ExperimentSpec):
            specs = [specs]
        documents = [as_spec(spec).to_dict() for spec in specs]
        return self._request(
            "POST", "/api/jobs", {"specs": documents, "base_seed": base_seed}
        )

    def status(self, job_id: int, wait: float = 0.0) -> Dict[str, Any]:
        """Job state + per-state task counts.

        With ``wait > 0`` the daemon holds the answer until the job is
        terminal or ``wait`` seconds pass (``GET /api/jobs/<id>?wait=S``).
        The hold is capped at half this client's socket timeout, so the
        answer arrives before the socket gives up; the daemon caps it at
        :data:`repro.service.http.MAX_STATUS_WAIT_S`.
        """
        wait = min(wait, self.timeout / 2)
        query = f"?wait={wait:g}" if wait > 0 else ""
        return self._request("GET", f"/api/jobs/{job_id}{query}")

    def jobs(self) -> List[Dict[str, Any]]:
        """Every job the daemon knows, newest first."""
        return self._request("GET", "/api/jobs")["jobs"]

    def wait(
        self,
        job_id: int,
        timeout: Optional[float] = None,
        poll_interval: float = 0.2,
    ) -> Dict[str, Any]:
        """Wait until the job reaches a terminal state; returns its status.

        Each look is a held status request (:meth:`status` with
        ``wait=min(poll_interval, time left)``) that returns as soon as the
        job finishes; an open job is asked about again at once, so
        ``poll_interval`` bounds the gap between two looks at the job.  A
        daemon that ignores ``wait`` answers early; then the rest of the
        hold is slept, as before holds existed.

        Raises:
            TimeoutError: The job was still open after ``timeout`` seconds.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            hold = poll_interval
            if deadline is not None:
                hold = max(0.0, min(hold, deadline - asked))
            status = self.status(job_id, wait=hold)
            if status["state"] in _TERMINAL:
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s "
                    f"({status['counts']})"
                )
            # A daemon that predates ``wait`` answers at once: do not spin.
            rest = hold - (time.monotonic() - asked)
            if rest > 0:
                time.sleep(rest)

    def results(self, job_id: int) -> List[Dict[str, float]]:
        """Summary rows of a finished job, in submission order.

        Raises:
            ServiceError: Any task is unfinished or failed (use
                :meth:`result_documents` for partial/failed detail).
        """
        documents = self.result_documents(job_id)
        missing = [doc for doc in documents if doc["summary"] is None]
        if missing:
            states = sorted({doc["state"] for doc in missing})
            raise ServiceError(
                409,
                f"job {job_id} has {len(missing)} unfinished/failed task(s) "
                f"(states: {', '.join(states)})",
            )
        return [doc["summary"] for doc in documents]

    def result_documents(self, job_id: int) -> List[Dict[str, Any]]:
        """Per-task documents (index/key/state/summary), submission order."""
        return self._request("GET", f"/api/jobs/{job_id}/result")["results"]

    def cancel(self, job_id: int) -> Dict[str, Any]:
        """Cancel the job's queued tasks; returns the updated status."""
        return self._request("POST", f"/api/jobs/{job_id}/cancel")


__all__ = ["DEFAULT_SERVICE_URL", "ServiceClient", "ServiceError"]
