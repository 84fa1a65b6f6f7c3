"""Supervised worker pool draining the durable job queue.

Workers are threads inside the daemon process; each loops claim -> execute
-> report.  Execution goes through the existing
:class:`~repro.exec.batch.ExperimentBatch` machinery (one task at a time)
with the store's design cache, so a service run takes the *exact* code
path of a direct ``repro run`` -- same design resolution, same seeding,
same cache keys -- and stays bit-identical to it.  The batch keeps its row
in memory; :meth:`JobQueue.complete` writes it to the store once, in the
transaction that marks the task done.  Seeds were already derived at
submit time (the task row stores the effective spec), so workers never
need the job's base seed.

Claims, design resolution and reports stay on the worker threads; only the
simulation moves.  A pool of two or more workers runs each task's
simulation in one shared :class:`~concurrent.futures.ProcessPoolExecutor`
of as many processes, so the threads stop sharing one GIL.  It starts at
the first claimed task, through ``forkserver`` (``spawn`` where that is
missing), because forking a threaded daemon can copy a lock another thread
holds.  Its processes ignore SIGINT, so Ctrl-C still drains in-flight
tasks through :meth:`WorkerPool.stop`, and exit when the daemon dies, even
by SIGKILL.  A one-worker pool runs tasks on its thread.

Supervision: a supervisor thread restarts workers that died from an
unhandled error and periodically re-queues lease-expired ``running`` tasks
(:meth:`JobQueue.requeue_stale`), so a worker lost to a hard crash only
delays its task by one lease instead of wedging the job.  A task that
raises is reported through :meth:`JobQueue.fail` -- re-queued until its
attempt limit, then failed permanently.  A simulation process that dies
costs its task one attempt the same way, and the worker thread replaces
the broken executor before it reports.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence, Tuple

from repro.exec.batch import ExperimentBatch
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.service.queue import JobQueue, TaskRecord
from repro.service.store import SqliteDesignCache, SqliteStore

#: Default seconds before a claimed-but-silent task is considered orphaned.
DEFAULT_LEASE_SECONDS = 600.0


def _pool_context():
    """The start method of the simulation processes: forkserver, else spawn.

    The forkserver preloads the batch engine, so each process starts with
    the package imported.
    """
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["repro.exec.batch"])
    return context


def _init_simulation_process() -> None:
    """Initializer of each simulation process.

    SIGINT is ignored: Ctrl-C reaches the whole process group, and the
    daemon's graceful stop lets in-flight tasks finish.  A pool process
    never notices a dead parent by itself, so a daemon thread exits it
    when the parent's sentinel fires.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent,
            args=(parent.sentinel,),
            name="repro-parent-watch",
            daemon=True,
        ).start()


def _exit_with_parent(sentinel: int) -> None:
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


def execute_claimed_task(
    queue: JobQueue,
    task: TaskRecord,
    design_cache: SqliteDesignCache,
    plugins: Sequence[str] = (),
    metrics: Optional[MetricsRegistry] = None,
    executor: Optional[ProcessPoolExecutor] = None,
) -> bool:
    """Execute one claimed task and report its outcome to the queue.

    Shared by the in-process worker threads and the out-of-process worker
    entry point (tests exercise crash-resume by running this in a killable
    subprocess).  Returns ``True`` on completion, ``False`` on failure.
    ``metrics`` is handed to the batch engine, so a pool-wide registry
    aggregates engine counters across every task (the ``GET /metrics``
    source).  With an ``executor`` the simulation runs there and this
    thread waits; a :class:`BrokenProcessPool` propagates unreported, so
    that the executor's owner replaces it before the failed attempt
    re-queues the task.
    """
    try:
        batch = ExperimentBatch(
            [task.spec],
            design_cache=design_cache,
            plugins=tuple(plugins),
            metrics=metrics,
            executor=executor,
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
    except BrokenProcessPool:
        raise
    except Exception:
        queue.fail(task, traceback.format_exc(limit=20))
        return False


class WorkerPool:
    """N supervised worker threads draining a :class:`JobQueue`.

    An idle worker waits for work (:meth:`JobQueue.wait_for_work`), so a
    submission through the pool's own queue object is claimed at once and
    a completion wakes no one; :meth:`drain` waits on every change
    (:meth:`JobQueue.wait_for_change`).

    Args:
        store: The shared service database.
        workers: Worker thread count; with two or more, each thread's
            simulations run in a process pool of this size.
        poll_interval: Longest idle wait between claim attempts, seconds:
            only work queued by another process or another ``JobQueue``
            object on the same store waits this long.
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
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_lock = threading.Lock()
        #: Pool-wide metrics registry: worker gauges/counters plus the
        #: engine counters of every executed task (``GET /metrics``).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.gauge(
            "repro_workers",
            help="Configured worker count (threads; with two or more, each "
                 "simulates in a pool process).",
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
        """Signal every thread to stop, join them, then shut the processes down."""
        self._stop.set()
        # After the flag: a woken worker must see it.
        self.queue.signal(work=True)
        for thread in self._threads:
            thread.join(timeout=timeout)
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
        self._threads = []
        self._supervisor = None
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no task is queued or running (or timeout).

        Returns ``True`` when the queue is idle; primarily for tests and
        one-shot embedding.
        """
        deadline = None if timeout is None else _monotonic() + timeout
        while True:
            generation = self.queue.generation
            counts = self.queue.counts()
            if counts["queued"] == 0 and counts["running"] == 0:
                return True
            if self._stop.is_set():
                return False
            wait = self.poll_interval
            if deadline is not None:
                wait = min(wait, deadline - _monotonic())
                if wait < 0:
                    return False
            self.queue.wait_for_change(generation, wait)

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

    def _simulation_executor(self) -> Optional[ProcessPoolExecutor]:
        """The shared simulation processes, started at the first call.

        ``None`` for a one-worker pool, which simulates on its thread.
        """
        if self.workers == 1:
            return None
        with self._executor_lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=_pool_context(),
                    initializer=_init_simulation_process,
                )
            return self._executor

    def _replace_executor(self, broken: ProcessPoolExecutor) -> None:
        """Drop a broken executor; the next task starts a fresh one."""
        with self._executor_lock:
            if self._executor is broken:
                self._executor = None
        broken.shutdown(wait=False)

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
        while True:
            # Generation before the stop check and the claim: a stop or a
            # submission after either makes the wait return at once.
            generation = self.queue.work_generation
            if self._stop.is_set():
                return
            task = self.queue.claim(worker)
            if task is None:
                self.queue.wait_for_work(generation, self.poll_interval)
                continue
            started = time.perf_counter()
            executor = self._simulation_executor()
            try:
                ok = execute_claimed_task(
                    self.queue,
                    task,
                    self.design_cache,
                    plugins=self.plugins,
                    metrics=self.metrics,
                    executor=executor,
                )
            except BrokenProcessPool:
                # A simulation process died.  Replace the executor first,
                # so the re-queued task's next claim meets a live one.
                self._replace_executor(executor)
                self.queue.fail(task, traceback.format_exc(limit=20))
                ok = False
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
