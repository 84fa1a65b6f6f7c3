"""Durable job queue with dedup, retries and crash-resume.

A **job** is one submission: an ordered list of experiment specs plus an
optional batch-level base seed.  Submission immediately derives each task's
effective spec (seed applied via :func:`repro.exec.cache.derive_seed`) and
its canonical cache key (:func:`repro.exec.cache.config_key` with the
default energy model, exactly like a direct :class:`ExperimentBatch` run),
then persists one task row per spec.  Everything downstream keys off those
hashes:

* **Dedup by spec hash.**  The job hash is the SHA-256 of the ordered task
  key list, so resubmitting an identical job attaches to the existing job
  (``SubmitReceipt.created`` is ``False``).  Individual tasks dedup through
  the result store: a task whose key already has a result row is marked
  ``done`` at submit time (warm-cache submission returns instantly), and
  completing a key also completes every other queued task waiting on it --
  overlapping jobs never run the same simulation twice.
* **States.**  Tasks move ``queued -> running -> done``/``failed``
  (``cancelled`` terminal for cancelled jobs); a job's state is derived
  from its tasks and finalized when the last task reaches a terminal state.
* **Retry with limit.**  Claiming increments ``attempts``; a failed or
  crash-recovered task re-queues until ``attempts`` reaches the limit, then
  fails permanently.
* **Crash resume.**  Completions are recorded per task, so an interrupted
  sweep (daemon killed, worker crashed) resumes by re-queueing ``running``
  tasks (:meth:`JobQueue.recover_running` at daemon startup,
  :meth:`JobQueue.requeue_stale` for lease-expired claims) -- finished
  tasks are never re-run because their keys are already in the result
  store.

All mutating operations run in ``BEGIN IMMEDIATE`` transactions on the
shared :class:`~repro.service.store.SqliteStore`, so any number of worker
threads/processes can claim concurrently without handing out one task
twice.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.exec.batch import key_extra_for
from repro.exec.cache import canonical_config, config_key, derive_seed
from repro.obs.tracing import span
from repro.service.store import SqliteStore, _dumps
from repro.spec import ExperimentSpec, as_spec

#: Job / task lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Task states that will never change again.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Default cap on claim attempts per task (first run + two retries).
DEFAULT_MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class TaskRecord:
    """One persisted task (a single experiment spec within a job)."""

    job_id: int
    index: int
    key: str
    spec: ExperimentSpec
    state: str
    attempts: int
    error: Optional[str] = None


@dataclass(frozen=True)
class JobRecord:
    """One persisted job with its derived progress counts."""

    id: int
    job_hash: str
    state: str
    base_seed: Optional[int]
    num_tasks: int
    counts: Dict[str, int]
    error: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native form (the HTTP status document)."""
        return {
            "job_id": self.id,
            "job_hash": self.job_hash,
            "state": self.state,
            "base_seed": self.base_seed,
            "num_tasks": self.num_tasks,
            "counts": dict(self.counts),
            "error": self.error,
        }


@dataclass(frozen=True)
class SubmitReceipt:
    """What a submission returns: the job, and whether it was new."""

    job: JobRecord
    created: bool


def job_hash_for(keys: Sequence[str]) -> str:
    """Content hash of a job -- the ordered task-key list.

    Task keys already capture everything a run depends on (canonical spec
    with its effective seed, plus the energy model), so two submissions
    hash identically exactly when they would simulate identical work.
    """
    blob = json.dumps(list(keys), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class JobQueue:
    """The durable queue over a shared :class:`SqliteStore`.

    Args:
        store: The service database (jobs/tasks/results tables).
        max_attempts: Claim-count limit per task; a task failing (or being
            crash-recovered) this many times fails permanently.
    """

    def __init__(
        self, store: SqliteStore, max_attempts: int = DEFAULT_MAX_ATTEMPTS
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.store = store
        self.max_attempts = max_attempts

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        specs: Union[ExperimentSpec, Iterable[ExperimentSpec]],
        base_seed: Optional[int] = None,
    ) -> SubmitReceipt:
        """Submit a job (one spec or an ordered list of specs).

        Seeds are derived here, once, exactly like
        :meth:`ExperimentBatch.effective_specs`: with a ``base_seed`` each
        task's seed becomes ``derive_seed(spec, base_seed)``; without one,
        specs keep their own seeds.  An identical resubmission (same
        ordered task keys) attaches to the existing job instead of
        creating a new one.
        """
        if isinstance(specs, ExperimentSpec):
            specs = [specs]
        resolved = [as_spec(spec) for spec in specs]
        if not resolved:
            raise ValueError("a job needs at least one experiment spec")
        if base_seed is not None:
            resolved = [
                spec.with_(seed=derive_seed(spec, base_seed)) for spec in resolved
            ]
        extra = key_extra_for(None)
        keys = [config_key(spec, extra=extra) for spec in resolved]
        job_hash = job_hash_for(keys)

        with self.store.transaction() as conn:
            row = conn.execute(
                "SELECT id FROM jobs WHERE job_hash=?", (job_hash,)
            ).fetchone()
            if row is not None:
                job_id, created = row["id"], False
            else:
                cursor = conn.execute(
                    "INSERT INTO jobs(job_hash, base_seed, num_tasks) "
                    "VALUES(?,?,?)",
                    (job_hash, base_seed, len(resolved)),
                )
                job_id, created = cursor.lastrowid, True
                warm = {
                    r["key"]
                    for r in conn.execute(
                        "SELECT key FROM results WHERE key IN "
                        f"({','.join('?' * len(set(keys)))})",
                        tuple(set(keys)),
                    )
                }
                for index, (spec, key) in enumerate(zip(resolved, keys)):
                    conn.execute(
                        "INSERT INTO tasks(job_id, idx, key, spec, state) "
                        "VALUES(?,?,?,?,?)",
                        (
                            job_id,
                            index,
                            key,
                            _dumps(spec.to_dict()),
                            DONE if key in warm else QUEUED,
                        ),
                    )
                self._finalize_job(conn, job_id)
        return SubmitReceipt(job=self.job(job_id), created=created)

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def claim(self, worker: str) -> Optional[TaskRecord]:
        """Atomically claim the next runnable task, or ``None``.

        Tasks are handed out in ``(job_id, idx)`` order.  Queued tasks
        whose key was completed meanwhile (by an overlapping job) are
        absorbed as ``done`` instead of claimed, and queued tasks that
        exhausted their attempts are failed in place.
        """
        with span("queue.claim", worker=worker) as record_span:
            task = self._claim(worker)
            if record_span is not None:
                record_span.args["claimed"] = task is not None
            return task

    def _claim(self, worker: str) -> Optional[TaskRecord]:
        with self.store.transaction() as conn:
            # Absorb free wins first: a result row satisfies every queued
            # task waiting on that key, whichever job queued it.
            absorbed = conn.execute(
                "UPDATE tasks SET state=?, worker=NULL, claimed_at=NULL "
                "WHERE state=? AND key IN (SELECT key FROM results)",
                (DONE, QUEUED),
            ).rowcount
            if absorbed:
                self._finalize_jobs_of_absorbed(conn)
            while True:
                row = conn.execute(
                    "SELECT t.job_id, t.idx, t.key, t.spec, t.attempts "
                    "FROM tasks t JOIN jobs j ON j.id = t.job_id "
                    "WHERE t.state=? AND j.state NOT IN (?,?) "
                    "ORDER BY t.job_id, t.idx LIMIT 1",
                    (QUEUED, CANCELLED, FAILED),
                ).fetchone()
                if row is None:
                    return None
                if row["attempts"] < self.max_attempts:
                    break
                # Attempts used up: fail it in place and read the next row.
                conn.execute(
                    "UPDATE tasks SET state=?, error=? WHERE job_id=? AND idx=?",
                    (FAILED, "attempt limit exhausted", row["job_id"], row["idx"]),
                )
                self._finalize_job(conn, row["job_id"])
            conn.execute(
                "UPDATE tasks SET state=?, attempts=attempts+1, "
                "worker=?, claimed_at=? WHERE job_id=? AND idx=?",
                (RUNNING, worker, time.time(), row["job_id"], row["idx"]),
            )
            conn.execute(
                "UPDATE jobs SET state=? WHERE id=? AND state=?",
                (RUNNING, row["job_id"], QUEUED),
            )
            return TaskRecord(
                job_id=row["job_id"],
                index=row["idx"],
                key=row["key"],
                spec=ExperimentSpec.from_dict(json.loads(row["spec"])),
                state=RUNNING,
                attempts=row["attempts"] + 1,
            )

    def complete(self, task: TaskRecord, summary: Dict[str, float]) -> None:
        """Record a finished task: result row + per-task completion.

        The row carries ``canonical_config(task.spec)``, so it equals the
        row a direct batch run of the same effective spec writes.
        """
        with span("queue.complete", job=task.job_id, idx=task.index), \
                self.store.transaction() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO results(key, config, summary) "
                "VALUES(?,?,?)",
                (task.key, _dumps(canonical_config(task.spec)), _dumps(summary)),
            )
            # This completion satisfies every queued task on the same key.
            conn.execute(
                "UPDATE tasks SET state=?, error=NULL WHERE "
                "(job_id=? AND idx=?) OR (state=? AND key=?)",
                (DONE, task.job_id, task.index, QUEUED, task.key),
            )
            self._finalize_jobs_of_absorbed(conn)

    def fail(self, task: TaskRecord, error: str) -> None:
        """Record a failed attempt: re-queue under the limit, else fail."""
        with self.store.transaction() as conn:
            if task.attempts < self.max_attempts:
                conn.execute(
                    "UPDATE tasks SET state=?, worker=NULL, claimed_at=NULL, "
                    "error=? WHERE job_id=? AND idx=?",
                    (QUEUED, error, task.job_id, task.index),
                )
            else:
                conn.execute(
                    "UPDATE tasks SET state=?, error=? WHERE job_id=? AND idx=?",
                    (FAILED, error, task.job_id, task.index),
                )
                self._finalize_job(conn, task.job_id)

    def requeue_stale(self, lease_seconds: float) -> int:
        """Re-queue running tasks whose claim is older than the lease.

        Covers workers that died without reporting (crash, ``kill -9``).
        Attempts are preserved, so a task that keeps killing its worker
        exhausts the attempt limit instead of looping forever.
        """
        cutoff = time.time() - lease_seconds
        with self.store.transaction() as conn:
            requeued = conn.execute(
                "UPDATE tasks SET state=?, worker=NULL, claimed_at=NULL "
                "WHERE state=? AND claimed_at IS NOT NULL AND claimed_at<?",
                (QUEUED, RUNNING, cutoff),
            ).rowcount
        return requeued

    def recover_running(self) -> int:
        """Re-queue *every* running task (daemon restart after a crash).

        Only call when no workers are active: a clean startup knows any
        ``running`` row is an orphan of the previous process.  Completed
        tasks keep their results, so the sweep resumes with the remainder.
        """
        with self.store.transaction() as conn:
            requeued = conn.execute(
                "UPDATE tasks SET state=?, worker=NULL, claimed_at=NULL "
                "WHERE state=?",
                (QUEUED, RUNNING),
            ).rowcount
            conn.execute(
                "UPDATE jobs SET state=? WHERE state=?", (QUEUED, RUNNING)
            )
        return requeued

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def cancel(self, job_id: int) -> JobRecord:
        """Cancel a job's queued tasks (running ones finish their attempt)."""
        with self.store.transaction() as conn:
            row = conn.execute(
                "SELECT id FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
            if row is None:
                raise KeyError(f"unknown job id {job_id}")
            conn.execute(
                "UPDATE tasks SET state=? WHERE job_id=? AND state=?",
                (CANCELLED, job_id, QUEUED),
            )
            self._finalize_job(conn, job_id)
        return self.job(job_id)

    def job(self, job_id: int) -> JobRecord:
        """The current state and progress counts of one job.

        Raises:
            KeyError: Unknown job id.
        """
        rows = self.store.query("SELECT * FROM jobs WHERE id=?", (job_id,))
        if not rows:
            raise KeyError(f"unknown job id {job_id}")
        return self._record(rows[0])

    def jobs(self) -> List[JobRecord]:
        """Every job, newest first."""
        return [
            self._record(row)
            for row in self.store.query("SELECT * FROM jobs ORDER BY id DESC")
        ]

    def tasks(self, job_id: int) -> List[TaskRecord]:
        """A job's tasks in submission order."""
        return [
            TaskRecord(
                job_id=row["job_id"],
                index=row["idx"],
                key=row["key"],
                spec=ExperimentSpec.from_dict(json.loads(row["spec"])),
                state=row["state"],
                attempts=row["attempts"],
                error=row["error"],
            )
            for row in self.store.query(
                "SELECT * FROM tasks WHERE job_id=? ORDER BY idx", (job_id,)
            )
        ]

    def results(self, job_id: int) -> List[Dict[str, Any]]:
        """Per-task result documents of a job, in submission order.

        Each document carries the task's ``index``, ``key``, ``state`` and,
        for done tasks, the bit-identical ``summary`` row a direct
        ``repro run`` of the same spec produces.
        """
        self.job(job_id)  # raise KeyError for unknown ids
        rows = self.store.query(
            "SELECT t.idx, t.key, t.state, t.error, r.summary "
            "FROM tasks t LEFT JOIN results r ON r.key = t.key "
            "WHERE t.job_id=? ORDER BY t.idx",
            (job_id,),
        )
        return [
            {
                "index": row["idx"],
                "key": row["key"],
                "state": row["state"],
                "error": row["error"],
                "summary": None if row["summary"] is None
                else json.loads(row["summary"]),
            }
            for row in rows
        ]

    def counts(self) -> Dict[str, int]:
        """Global task counts by state (the health document)."""
        counts = {state: 0 for state in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)}
        for row in self.store.query(
            "SELECT state, COUNT(*) AS n FROM tasks GROUP BY state"
        ):
            counts[row["state"]] = row["n"]
        return counts

    def job_counts(self) -> Dict[str, int]:
        """Global *job* counts by state (the ``repro_jobs_total`` metric)."""
        counts = {state: 0 for state in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)}
        for row in self.store.query(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ):
            counts[row["state"]] = row["n"]
        return counts

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _record(self, row) -> JobRecord:
        counts = {state: 0 for state in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)}
        for task_row in self.store.query(
            "SELECT state, COUNT(*) AS n FROM tasks WHERE job_id=? "
            "GROUP BY state",
            (row["id"],),
        ):
            counts[task_row["state"]] = task_row["n"]
        return JobRecord(
            id=row["id"],
            job_hash=row["job_hash"],
            state=row["state"],
            base_seed=row["base_seed"],
            num_tasks=row["num_tasks"],
            counts=counts,
            error=row["error"],
        )

    @staticmethod
    def _finalize_job(conn, job_id: int) -> None:
        """Derive (and persist) a job's state from its task states."""
        states = {
            row["state"]: row["n"]
            for row in conn.execute(
                "SELECT state, COUNT(*) AS n FROM tasks WHERE job_id=? "
                "GROUP BY state",
                (job_id,),
            )
        }
        open_tasks = states.get(QUEUED, 0) + states.get(RUNNING, 0)
        if open_tasks:
            return
        if states.get(FAILED, 0):
            final = FAILED
        elif states.get(CANCELLED, 0):
            final = CANCELLED
        else:
            final = DONE
        conn.execute(
            "UPDATE jobs SET state=?, finished_at=? WHERE id=?",
            (final, time.time(), job_id),
        )

    def _finalize_jobs_of_absorbed(self, conn) -> None:
        """Finalize every job that no longer has open tasks."""
        for row in conn.execute(
            "SELECT DISTINCT job_id FROM tasks WHERE job_id IN "
            "(SELECT id FROM jobs WHERE state NOT IN (?,?,?))",
            TERMINAL_STATES,
        ).fetchall():
            self._finalize_job(conn, row["job_id"])


__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "DEFAULT_MAX_ATTEMPTS",
    "TaskRecord",
    "JobRecord",
    "SubmitReceipt",
    "job_hash_for",
    "JobQueue",
]
