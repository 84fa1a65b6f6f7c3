"""Persistent experiment service: durable jobs, SQLite store, worker pool.

``repro.service`` turns the one-shot batch engine into a long-running job
system that many clients share:

* :mod:`repro.service.store` -- one SQLite database (WAL mode, schema
  migrations) holding the result/design caches *and* the job queue, keyed
  by the canonical hashes of :mod:`repro.exec.cache`; it is the store every
  ``--cache-dir`` opens, so the daemon serves what the CLI, the API and the
  benches already computed;
* :mod:`repro.service.queue` -- a durable job queue with states
  ``queued -> running -> done/failed``, dedup by spec hash (resubmitting an
  identical job attaches to the existing one or returns the cached result),
  per-task completion records (interrupted sweeps resume without re-running
  finished tasks) and retry-with-limit on worker crash;
* :mod:`repro.service.workers` -- a supervised worker pool draining the
  queue through the existing :class:`~repro.exec.batch.ExperimentBatch`
  machinery with derived per-task seeds, preserving the
  serial == parallel == warm-cache bit-identity contract;
* :mod:`repro.service.http` -- a thin stdlib HTTP API
  (``python -m repro serve``): submit/status/result/cancel plus incremental
  progress polling;
* :mod:`repro.service.client` -- the matching urllib client
  (:class:`ServiceClient`; re-exported as ``repro.api.connect`` /
  ``submit`` / ``wait`` / ``results``).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import JobQueue, JobRecord, SubmitReceipt, TaskRecord
from repro.service.store import (
    SqliteDesignCache,
    SqliteResultCache,
    SqliteStore,
)
from repro.service.workers import WorkerPool

__all__ = [
    "SqliteStore",
    "SqliteResultCache",
    "SqliteDesignCache",
    "JobQueue",
    "JobRecord",
    "TaskRecord",
    "SubmitReceipt",
    "WorkerPool",
    "ServiceClient",
    "ServiceError",
]
