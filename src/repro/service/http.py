"""The thin HTTP API of the experiment service (stdlib only).

``python -m repro serve`` binds a :class:`ThreadingHTTPServer` (no new
dependency -- the repo's hard-dependency budget stays numpy-only) in front
of the shared :class:`~repro.service.store.SqliteStore`, the
:class:`~repro.service.queue.JobQueue` and a
:class:`~repro.service.workers.WorkerPool`:

====== ============================= =====================================
Method Path                          Meaning
====== ============================= =====================================
GET    ``/api/health``               daemon liveness + global task counts
                                     + cache stats (sqlite table rows)
GET    ``/metrics``                  Prometheus text exposition: engine
                                     counters, queue-depth/job-state/
                                     worker gauges, latency histograms
POST   ``/api/jobs``                 submit (``{"specs": [...],
                                     "base_seed": N}``); dedup by spec
                                     hash -- 200 with ``created=false``
                                     for an identical resubmission,
                                     201 for a new job
GET    ``/api/jobs``                 list jobs, newest first
GET    ``/api/jobs/<id>``            job state + progress counts
                                     (incremental polling)
GET    ``/api/jobs/<id>/result``     per-task results in submission order
POST   ``/api/jobs/<id>/cancel``     cancel the job's queued tasks
====== ============================= =====================================

All API bodies are JSON (``/metrics`` is ``text/plain``).  Floats serialize
with Python's ``Infinity`` extension (saturated runs carry infinite
latencies); the bundled client parses it back, as does any ``json.loads``.

Request logging goes through the ``repro.service`` :mod:`logging` logger:
one structured access-log event per request (method, path, status,
duration) at INFO, stdlib ``log_message`` chatter at DEBUG.  ``repro serve
--verbose`` attaches a stderr handler; embedders configure the logger like
any other.
"""

from __future__ import annotations

import json
import logging
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.tracing import span
from repro.service.queue import JobQueue
from repro.service.store import SqliteStore
from repro.service.workers import WorkerPool
from repro.spec import ExperimentSpec

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: The service logger; request handlers emit one structured access-log
#: event per request here (see :func:`configure_service_logging`).
LOGGER = logging.getLogger("repro.service")

#: Prometheus text exposition content type.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def configure_service_logging(verbose: bool = False) -> None:
    """Attach a stderr handler to the ``repro.service`` logger.

    ``verbose`` lowers the threshold to DEBUG (per-request stdlib
    ``log_message`` chatter included); otherwise INFO shows the structured
    access-log events.  Idempotent -- an existing handler is reused, so
    embedders that configured logging themselves are left alone.
    """
    level = logging.DEBUG if verbose else logging.INFO
    LOGGER.setLevel(level)
    if not LOGGER.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("[%(name)s] %(levelname)s %(message)s")
        )
        LOGGER.addHandler(handler)
    for handler in LOGGER.handlers:
        handler.setLevel(level)


class ServiceContext:
    """Everything one daemon instance shares across request threads."""

    def __init__(self, store: SqliteStore, queue: JobQueue, pool: WorkerPool) -> None:
        self.store = store
        self.queue = queue
        self.pool = pool
        #: The daemon's cumulative metrics: the pool registry (worker and
        #: engine counters) plus the HTTP-layer series recorded here.
        self.metrics: MetricsRegistry = pool.metrics


class _ApiError(Exception):
    """A client-visible error with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Route dispatch for the experiment-service API."""

    #: Set by :func:`make_server` on the generated subclass.
    context: ServiceContext

    server_version = "repro-service/1.7"
    protocol_version = "HTTP/1.1"

    _ROUTES = (
        ("GET", re.compile(r"^/api/health$"), "_health"),
        ("GET", re.compile(r"^/metrics$"), "_metrics"),
        ("POST", re.compile(r"^/api/jobs$"), "_submit"),
        ("GET", re.compile(r"^/api/jobs$"), "_list_jobs"),
        ("GET", re.compile(r"^/api/jobs/(?P<job_id>\d+)$"), "_job_status"),
        ("GET", re.compile(r"^/api/jobs/(?P<job_id>\d+)/result$"), "_job_result"),
        ("POST", re.compile(r"^/api/jobs/(?P<job_id>\d+)/cancel$"), "_job_cancel"),
    )

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # Route stdlib per-request chatter through the service logger
        # (visible with ``--verbose``) instead of swallowing it.
        LOGGER.debug("%s %s", self.address_string(), format % args)

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        started = time.perf_counter()
        with span("http.request", method=method, path=path) as request_span:
            status = self._route(method, path)
            if request_span is not None:
                request_span.args["status"] = status
        elapsed = time.perf_counter() - started
        metrics = self.context.metrics
        metrics.counter(
            "repro_http_requests_total",
            labels={"method": method, "status": str(status)},
            help="HTTP requests served, by method and status.",
        ).inc()
        metrics.histogram(
            "repro_http_request_seconds",
            buckets=DEFAULT_LATENCY_BUCKETS,
            help="HTTP request handling latency.",
        ).observe(elapsed)
        LOGGER.info(
            "%s",
            json.dumps(
                {
                    "event": "http.request",
                    "client": self.client_address[0],
                    "method": method,
                    "path": path,
                    "status": status,
                    "duration_ms": round(elapsed * 1000.0, 3),
                },
                sort_keys=True,
            ),
        )

    def _route(self, method: str, path: str) -> int:
        """Dispatch to the matching handler; returns the response status."""
        allowed_methods = set()
        for route_method, pattern, handler_name in self._ROUTES:
            match = pattern.match(path)
            if match is None:
                continue
            if route_method != method:
                allowed_methods.add(route_method)
                continue
            try:
                status, payload = getattr(self, handler_name)(**match.groupdict())
            except _ApiError as error:
                status, payload = error.status, {"error": str(error)}
            except KeyError as error:
                status, payload = 404, {"error": str(error.args[0])}
            except ValueError as error:
                status, payload = 400, {"error": str(error)}
            except Exception as error:  # pragma: no cover - last resort
                status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
            self._send(status, payload)
            return status
        if allowed_methods:
            status = 405
            self._send(status, {"error": f"method {method} not allowed for {path}"})
        else:
            status = 404
            self._send(status, {"error": f"no route for {method} {path}"})
        return status

    def _send(self, status: int, payload: Union[Dict[str, Any], str]) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = METRICS_CONTENT_TYPE
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
        except ValueError as error:
            raise _ApiError(400, f"request body is not valid JSON: {error}")
        if not isinstance(data, dict):
            raise _ApiError(400, "request body must be a JSON object")
        return data

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def _health(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "status": "ok",
            "workers": self.context.pool.workers,
            "tasks": self.context.queue.counts(),
            "cache": self.context.store.stats(),
        }

    def _metrics(self) -> Tuple[int, str]:
        """Prometheus text exposition of the daemon's metrics.

        Live queue/job/worker gauges are sampled into a fresh registry at
        scrape time, then the cumulative pool registry (engine counters,
        worker counters, HTTP series) is merged in -- gauges merge by
        addition, so the sampled values pass through unchanged (the pool
        registry holds no queue gauges).
        """
        queue = self.context.queue
        snapshot = MetricsRegistry()
        task_counts = queue.counts()
        for state, count in sorted(task_counts.items()):
            snapshot.gauge(
                "repro_tasks",
                labels={"state": state},
                help="Current tasks by lifecycle state.",
            ).set(count)
        for state, count in sorted(queue.job_counts().items()):
            snapshot.gauge(
                "repro_jobs_total",
                labels={"state": state},
                help="Current jobs by lifecycle state.",
            ).set(count)
        snapshot.gauge(
            "repro_queue_depth",
            help="Tasks waiting to be claimed (queued state).",
        ).set(task_counts.get("queued", 0))
        for table, rows in sorted(self.context.store.table_counts().items()):
            snapshot.gauge(
                "repro_store_rows",
                labels={"table": table},
                help="Row counts of the service database tables.",
            ).set(rows)
        snapshot.merge(self.context.metrics)
        return 200, snapshot.render_prometheus()

    def _submit(self) -> Tuple[int, Dict[str, Any]]:
        body = self._read_body()
        documents = body.get("specs")
        if documents is None and "spec" in body:
            documents = [body["spec"]]
        if not isinstance(documents, list) or not documents:
            raise _ApiError(
                400, "submission needs 'specs' (a non-empty list of "
                     "ExperimentSpec documents) or a single 'spec'"
            )
        try:
            specs = [ExperimentSpec.from_dict(doc) for doc in documents]
        except ValueError as error:
            raise _ApiError(400, f"invalid experiment spec: {error}")
        base_seed = body.get("base_seed")
        if base_seed is not None and not isinstance(base_seed, int):
            raise _ApiError(400, "base_seed must be an integer or null")
        receipt = self.context.queue.submit(specs, base_seed=base_seed)
        document = receipt.job.to_dict()
        document["created"] = receipt.created
        return (201 if receipt.created else 200), document

    def _list_jobs(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {"jobs": [job.to_dict() for job in self.context.queue.jobs()]}

    def _job_status(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        return 200, self.context.queue.job(int(job_id)).to_dict()

    def _job_result(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        job = self.context.queue.job(int(job_id))
        document = job.to_dict()
        document["results"] = self.context.queue.results(job.id)
        return 200, document

    def _job_cancel(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        return 200, self.context.queue.cancel(int(job_id)).to_dict()


def make_server(
    context: ServiceContext,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> ThreadingHTTPServer:
    """Build the HTTP server bound to ``host:port`` (port 0 = ephemeral)."""
    handler = type(
        "BoundServiceRequestHandler", (ServiceRequestHandler,), {"context": context}
    )
    return ThreadingHTTPServer((host, port), handler)


def serve(
    store: SqliteStore,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: int = 2,
    max_attempts: Optional[int] = None,
    plugins: Tuple[str, ...] = (),
    install_signal_handlers: bool = True,
    ready: Optional[threading.Event] = None,
    verbose: bool = False,
) -> int:
    """Run the daemon until SIGINT/SIGTERM: recover, serve, drain, close.

    Startup re-queues tasks left ``running`` by a previous process
    (:meth:`JobQueue.recover_running`), which is what makes interrupted
    sweeps resume without re-running completed tasks.

    ``verbose`` attaches a DEBUG-level stderr handler to the
    ``repro.service`` logger (``repro serve --verbose``): structured
    access-log events plus stdlib per-request chatter.  Without it the
    logger is configured at INFO, which shows the access-log events once
    any handler is attached.
    """
    configure_service_logging(verbose=verbose)
    queue = (
        JobQueue(store, max_attempts=max_attempts)
        if max_attempts is not None
        else JobQueue(store)
    )
    recovered = queue.recover_running()
    if recovered:
        print(f"[repro.serve] re-queued {recovered} interrupted task(s)",
              file=sys.stderr)
    pool = WorkerPool(
        store,
        workers=workers,
        queue=queue,
        plugins=plugins,
    )
    context = ServiceContext(store, queue, pool)
    server = make_server(context, host=host, port=port)
    stop = threading.Event()

    if install_signal_handlers:
        def _handle(signum, frame):  # noqa: ARG001
            stop.set()

        signal.signal(signal.SIGINT, _handle)
        signal.signal(signal.SIGTERM, _handle)

    pool.start()
    thread = threading.Thread(
        target=server.serve_forever, name="repro-http", daemon=True
    )
    thread.start()
    bound = server.server_address
    print(f"[repro.serve] listening on http://{bound[0]}:{bound[1]} "
          f"({workers} worker{'s' if workers != 1 else ''}, "
          f"db {store.path})")
    if ready is not None:
        ready.set()
    try:
        stop.wait()
    finally:
        print("[repro.serve] shutting down", file=sys.stderr)
        server.shutdown()
        server.server_close()
        pool.stop()
        store.close()
    return 0


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "LOGGER",
    "METRICS_CONTENT_TYPE",
    "ServiceContext",
    "ServiceRequestHandler",
    "configure_service_logging",
    "make_server",
    "serve",
]
