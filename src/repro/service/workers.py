"""Supervised worker pool draining the durable job queue.

Workers are threads inside the daemon process; each loops claim -> execute
-> report.  Execution goes through the existing
:class:`~repro.exec.batch.ExperimentBatch` machinery (one task at a time,
``workers=1``) with the store's design cache, so a service run takes the
*exact* code path of a direct ``repro run`` -- same design resolution, same
seeding, same cache keys -- and stays bit-identical to it.  The batch keeps
its row in memory; :meth:`JobQueue.complete` writes it to the store once, in
the transaction that marks the task done.  Seeds were already derived at
submit time (the task row stores the effective spec), so workers never need
the job's base seed.

Supervision: a supervisor thread restarts workers that died from an
unhandled error and periodically re-queues lease-expired ``running`` tasks
(:meth:`JobQueue.requeue_stale`), so a worker lost to a hard crash only
delays its task by one lease instead of wedging the job.  A task that
raises is reported through :meth:`JobQueue.fail` -- re-queued until its
attempt limit, then failed permanently.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from typing import Optional, Sequence, Tuple

from repro.exec.batch import ExperimentBatch
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.service.queue import JobQueue, TaskRecord
from repro.service.store import SqliteDesignCache, SqliteStore

#: Default seconds before a claimed-but-silent task is considered orphaned.
DEFAULT_LEASE_SECONDS = 600.0


def execute_claimed_task(
    queue: JobQueue,
    task: TaskRecord,
    design_cache: SqliteDesignCache,
    plugins: Sequence[str] = (),
    metrics: Optional[MetricsRegistry] = None,
) -> bool:
    """Execute one claimed task and report its outcome to the queue.

    Shared by the in-process worker threads and the out-of-process worker
    entry point (tests exercise crash-resume by running this in a killable
    subprocess).  Returns ``True`` on completion, ``False`` on failure.
    ``metrics`` is handed to the batch engine, so a pool-wide registry
    aggregates engine counters across every task (the ``GET /metrics``
    source).
    """
    try:
        batch = ExperimentBatch(
            [task.spec],
            workers=1,
            design_cache=design_cache,
            plugins=tuple(plugins),
            metrics=metrics,
        )
        outcome = batch.run()[0]
        if outcome.key != task.key:
            # Canonicalization drift between submit and execute would split
            # the cache silently; fail loudly instead.
            raise RuntimeError(
                f"task key mismatch: submitted {task.key}, executed {outcome.key}"
            )
        queue.complete(task, outcome.summary)
        return True
    except Exception:
        queue.fail(task, traceback.format_exc(limit=20))
        return False


class WorkerPool:
    """N supervised worker threads draining a :class:`JobQueue`.

    Args:
        store: The shared service database.
        workers: Worker thread count.
        poll_interval: Idle sleep between claim attempts, seconds.
        lease_seconds: Claim age after which the supervisor re-queues a
            ``running`` task (orphan recovery).
        plugins: Module names imported before specs resolve, mirroring the
            batch engine's ``--plugin`` behaviour.
    """

    def __init__(
        self,
        store: SqliteStore,
        workers: int = 2,
        queue: Optional[JobQueue] = None,
        poll_interval: float = 0.1,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        plugins: Sequence[str] = (),
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.queue = queue if queue is not None else JobQueue(store)
        self.workers = workers
        self.poll_interval = poll_interval
        self.lease_seconds = lease_seconds
        self.plugins: Tuple[str, ...] = tuple(plugins)
        self.design_cache = SqliteDesignCache(store)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._supervisor: Optional[threading.Thread] = None
        #: Pool-wide metrics registry: worker gauges/counters plus the
        #: engine counters of every executed task (``GET /metrics``).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.gauge(
            "repro_workers", help="Configured worker thread count."
        ).set(self.workers)

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the workers and the supervisor (idempotent)."""
        if self._threads:
            return
        self._stop.clear()
        for index in range(self.workers):
            self._threads.append(self._spawn(index))
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-supervisor", daemon=True
        )
        self._supervisor.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Signal every thread to stop and join them."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
        self._threads = []
        self._supervisor = None

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no task is queued or running (or timeout).

        Returns ``True`` when the queue is idle; primarily for tests and
        one-shot embedding.
        """
        deadline = None if timeout is None else _monotonic() + timeout
        while True:
            counts = self.queue.counts()
            if counts["queued"] == 0 and counts["running"] == 0:
                return True
            if deadline is not None and _monotonic() > deadline:
                return False
            self._stop.wait(self.poll_interval)
            if self._stop.is_set():
                return False

    # ------------------------------------------------------------------ #
    def _spawn(self, index: int) -> threading.Thread:
        thread = threading.Thread(
            target=self._work,
            name=f"repro-worker-{index}",
            daemon=True,
        )
        thread.start()
        return thread

    def _worker_id(self) -> str:
        return f"{os.getpid()}:{threading.current_thread().name}"

    def _work(self) -> None:
        worker = self._worker_id()
        task_hist = self.metrics.histogram(
            "repro_worker_task_seconds",
            buckets=DEFAULT_LATENCY_BUCKETS,
            help="End-to-end claimed-task execution time.",
        )
        completed_total = self.metrics.counter(
            "repro_worker_tasks_completed_total",
            help="Claimed tasks that completed successfully.",
        )
        failed_total = self.metrics.counter(
            "repro_worker_tasks_failed_total",
            help="Claimed-task attempts reported as failed.",
        )
        while not self._stop.is_set():
            task = self.queue.claim(worker)
            if task is None:
                self._stop.wait(self.poll_interval)
                continue
            started = time.perf_counter()
            ok = execute_claimed_task(
                self.queue,
                task,
                self.design_cache,
                plugins=self.plugins,
                metrics=self.metrics,
            )
            task_hist.observe(time.perf_counter() - started)
            (completed_total if ok else failed_total).inc()

    def _supervise(self) -> None:
        # Lease sweeps are cheap; run them at a fraction of the lease so an
        # orphaned task waits at most ~1.25 leases.
        sweep_interval = max(self.poll_interval, self.lease_seconds / 4)
        next_sweep = _monotonic() + sweep_interval
        while not self._stop.is_set():
            for index, thread in enumerate(self._threads):
                if not thread.is_alive() and not self._stop.is_set():
                    # claim()/execute_claimed_task() contain all expected
                    # failures; an unhandled one (e.g. the database went
                    # away mid-claim) kills the thread -- replace it.
                    self.metrics.counter(
                        "repro_worker_restarts_total",
                        help="Worker threads replaced after unhandled errors.",
                    ).inc()
                    self._threads[index] = self._spawn(index)
            if _monotonic() >= next_sweep:
                try:
                    self.queue.requeue_stale(self.lease_seconds)
                except Exception:  # pragma: no cover - sweep must not die
                    pass
                next_sweep = _monotonic() + sweep_interval
            self._stop.wait(self.poll_interval)


def _monotonic() -> float:
    return time.monotonic()


__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "execute_claimed_task",
    "WorkerPool",
]
