"""Tests for the durable job queue: dedup, retries, crash-resume.

Exercises the queue purely at the store level (completions are injected
with synthetic summaries, no simulations run), plus one subprocess test
where a worker claims a task and is hard-killed mid-run to prove that
``recover_running`` / ``requeue_stale`` resume the sweep without losing
completed work or looping forever on a crashing task.  Real tasks run
through the worker pool, on its thread and in its simulation processes:
the rows they leave equal the rows a direct engine run writes to a cache
directory, and a simulation process that dies costs its task one
attempt.  The wake-up tests run pools whose fallback poll is a minute
long, so only the queue's signals can make them finish in time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro.api import RingRecorder, Tracer, install_tracer, run_specs, uninstall_tracer
from repro.exec.batch import key_extra_for
from repro.exec.cache import canonical_config, config_key, derive_seed
from repro.service.queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobQueue,
    job_hash_for,
)
from repro.service.store import DEFAULT_DB_FILENAME, SqliteStore
from repro.service.workers import WorkerPool
from repro.spec import ExperimentSpec, PlacementSpec, TrafficSpec


def _spec(rate: float = 0.002, policy: str = "elevator_first") -> ExperimentSpec:
    return ExperimentSpec(
        placement=PlacementSpec(
            name="queue-tiny", mesh=(2, 2, 2), columns=((0, 0), (1, 1))
        ),
        traffic=TrafficSpec(pattern="uniform", injection_rate=rate),
    ).with_(policy=policy)


def _fast(rate: float = 0.002) -> ExperimentSpec:
    return _spec(rate).with_(warmup_cycles=10, measurement_cycles=40, drain_cycles=30)


def _until(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture
def store(tmp_path) -> SqliteStore:
    s = SqliteStore(str(tmp_path / "queue.sqlite3"))
    yield s
    s.close()


@pytest.fixture
def queue(store) -> JobQueue:
    return JobQueue(store)


# ---------------------------------------------------------------------- #
# Submission and dedup
# ---------------------------------------------------------------------- #
class TestSubmit:
    def test_submit_creates_queued_tasks(self, queue):
        receipt = queue.submit([_spec(0.001), _spec(0.002)])
        assert receipt.created
        assert receipt.job.state == QUEUED
        assert receipt.job.num_tasks == 2
        assert receipt.job.counts[QUEUED] == 2

    def test_single_spec_is_accepted(self, queue):
        receipt = queue.submit(_spec())
        assert receipt.job.num_tasks == 1

    def test_identical_resubmission_dedups(self, queue):
        first = queue.submit([_spec(0.001), _spec(0.002)], base_seed=7)
        second = queue.submit([_spec(0.001), _spec(0.002)], base_seed=7)
        assert first.created and not second.created
        assert first.job.id == second.job.id

    def test_different_seed_is_a_different_job(self, queue):
        first = queue.submit([_spec()], base_seed=1)
        second = queue.submit([_spec()], base_seed=2)
        assert second.created
        assert first.job.id != second.job.id

    def test_task_keys_match_direct_batch_keys(self, queue):
        # The service must key tasks exactly like ExperimentBatch, or the
        # serial == parallel == service bit-identity contract breaks.
        spec = _spec()
        queue.submit([spec], base_seed=9)
        effective = spec.with_(seed=derive_seed(spec, 9))
        expected = config_key(effective, extra=key_extra_for(None))
        (task,) = queue.tasks(1)
        assert task.key == expected
        assert task.spec == effective

    def test_warm_submission_is_instantly_done(self, queue, store):
        spec = _spec()
        key = config_key(spec, extra=key_extra_for(None))
        store.put_result(key, None, {"average_latency": 5.0})
        receipt = queue.submit([spec])
        assert receipt.job.state == DONE
        assert queue.results(receipt.job.id)[0]["summary"] == {
            "average_latency": 5.0
        }

    def test_empty_submission_is_rejected(self, queue):
        with pytest.raises(ValueError, match="at least one"):
            queue.submit([])

    def test_job_hash_depends_on_order(self):
        assert job_hash_for(["a", "b"]) != job_hash_for(["b", "a"])


# ---------------------------------------------------------------------- #
# Claim / complete / fail lifecycle
# ---------------------------------------------------------------------- #
class TestLifecycle:
    def test_claim_complete_round_trip(self, queue):
        receipt = queue.submit([_spec(0.001), _spec(0.002)])
        task = queue.claim("w1")
        assert task is not None and task.state == RUNNING and task.attempts == 1
        assert queue.job(receipt.job.id).state == RUNNING
        queue.complete(task, {"average_latency": 1.0})
        other = queue.claim("w1")
        queue.complete(other, {"average_latency": 2.0})
        job = queue.job(receipt.job.id)
        assert job.state == DONE
        summaries = [doc["summary"] for doc in queue.results(job.id)]
        assert summaries == [{"average_latency": 1.0}, {"average_latency": 2.0}]

    def test_claims_hand_out_each_task_once(self, queue):
        queue.submit([_spec(0.001), _spec(0.002)])
        first, second = queue.claim("w1"), queue.claim("w2")
        assert {first.index, second.index} == {0, 1}
        assert queue.claim("w3") is None

    def test_completion_satisfies_same_key_tasks_across_jobs(self, queue):
        queue.submit([_spec()])
        # Same spec under a different job hash (extra distinct task).
        receipt = queue.submit([_spec(), _spec(0.009)])
        task = queue.claim("w1")
        queue.complete(task, {"average_latency": 3.0})
        # The overlapping task in job 2 was absorbed, never to be claimed.
        states = [t.state for t in queue.tasks(receipt.job.id)]
        assert states[0] == DONE
        remaining = queue.claim("w1")
        assert remaining is not None and remaining.index == 1

    def test_failed_attempts_requeue_until_the_limit(self, store):
        queue = JobQueue(store, max_attempts=2)
        receipt = queue.submit([_spec()])
        task = queue.claim("w1")
        queue.fail(task, "boom 1")
        (requeued,) = queue.tasks(receipt.job.id)
        assert requeued.state == QUEUED and requeued.attempts == 1
        task = queue.claim("w1")
        assert task.attempts == 2
        queue.fail(task, "boom 2")
        job = queue.job(receipt.job.id)
        assert job.state == FAILED
        assert queue.tasks(job.id)[0].error == "boom 2"
        assert queue.claim("w1") is None

    def test_cancel_stops_queued_tasks(self, queue):
        receipt = queue.submit([_spec(0.001), _spec(0.002)])
        running = queue.claim("w1")
        cancelled = queue.cancel(receipt.job.id)
        assert cancelled.counts[CANCELLED] == 1
        # The running task finishes its attempt normally.
        queue.complete(running, {"average_latency": 1.0})
        assert queue.job(receipt.job.id).state == CANCELLED

    def test_unknown_job_raises_key_error(self, queue):
        with pytest.raises(KeyError):
            queue.job(999)
        with pytest.raises(KeyError):
            queue.cancel(999)

    def test_queue_drains_everything(self, queue):
        specs = [
            _spec(0.001 * (i + 1), policy)
            for policy in ("elevator_first", "cda")
            for i in range(2)
        ]
        queue.submit(specs)
        seen = 0
        while True:
            task = queue.claim("w")
            if task is None:
                break
            seen += 1
            queue.complete(task, {"average_latency": 1.0})
        assert seen == len(specs)


    def test_completion_stores_the_canonical_config(self, queue, store):
        queue.submit([_spec()], base_seed=4)
        task = queue.claim("w")
        queue.complete(task, {"average_latency": 1.0})
        row = store.query("SELECT config FROM results WHERE key=?", (task.key,))[0]
        assert json.loads(row["config"]) == canonical_config(task.spec)


# ---------------------------------------------------------------------- #
# Daemon rows == engine rows
# ---------------------------------------------------------------------- #
class TestDaemonRows:
    @staticmethod
    def _daemon_and_direct_rows(tmp_path, store_rows, specs, workers):
        """The store rows a pool of ``workers`` and ``run_specs`` leave."""
        daemon_dir = str(tmp_path / "daemon")
        store = SqliteStore(os.path.join(daemon_dir, DEFAULT_DB_FILENAME))
        queue = JobQueue(store)
        queue.submit(specs, base_seed=3)
        pool = WorkerPool(store, workers=workers, queue=queue, poll_interval=0.02)
        pool.start()
        try:
            assert pool.drain(timeout=120)
        finally:
            pool.stop()
            store.close()
        assert queue.counts()[DONE] == len(specs)

        direct_dir = str(tmp_path / "direct")
        run_specs(specs, cache_dir=direct_dir, base_seed=3)
        return store_rows(daemon_dir), store_rows(direct_dir)

    def test_daemon_rows_equal_the_run_specs_rows(self, tmp_path, store_rows):
        spec = _spec(0.02, policy="adele").with_(
            warmup_cycles=10, measurement_cycles=40, drain_cycles=30
        )
        daemon_rows, direct_rows = self._daemon_and_direct_rows(
            tmp_path, store_rows, [spec], workers=1
        )
        assert len(daemon_rows[0]) == 1 and len(daemon_rows[1]) == 1
        assert daemon_rows[0][0][1] is not None  # the config column
        assert daemon_rows == direct_rows

    def test_process_workers_rows_equal_the_run_specs_rows(
        self, tmp_path, store_rows
    ):
        # Two workers simulate in pool processes; the design is resolved
        # in the daemon and shipped as subsets, as a direct run does.
        specs = [
            _spec(0.02, policy=policy).with_(
                warmup_cycles=10, measurement_cycles=40, drain_cycles=30
            )
            for policy in ("elevator_first", "cda", "adele")
        ]
        daemon_rows, direct_rows = self._daemon_and_direct_rows(
            tmp_path, store_rows, specs, workers=2
        )
        assert len(daemon_rows[0]) == 3 and len(daemon_rows[1]) == 1
        assert daemon_rows == direct_rows


# ---------------------------------------------------------------------- #
# Wake-ups: idle workers and drain() wait on the queue's change signal
# ---------------------------------------------------------------------- #
class TestWakeups:
    def test_idle_workers_wake_on_submit(self, queue, store):
        pool = WorkerPool(store, workers=2, queue=queue, poll_interval=60)
        pool.start()
        try:
            time.sleep(0.3)  # both workers found nothing and went idle
            job = queue.submit([_fast()]).job
            assert _until(lambda: queue.job(job.id).state == DONE, 10)
        finally:
            pool.stop()

    def test_submit_between_empty_claim_and_wait_is_not_lost(self, queue, store):
        # The submission bumps the generation after the worker's claim
        # found nothing and before the worker waits.
        claim, submitted = queue.claim, []

        def claim_then_submit(worker):
            task = claim(worker)
            if task is None and not submitted:
                submitted.append(queue.submit([_fast()]).job.id)
            return task

        queue.claim = claim_then_submit
        pool = WorkerPool(store, workers=1, queue=queue, poll_interval=60)
        pool.start()
        try:
            assert _until(
                lambda: submitted and queue.job(submitted[0]).state == DONE, 10
            )
        finally:
            pool.stop()

    def test_completions_do_not_send_idle_workers_to_empty_claims(
        self, queue, store
    ):
        claim, claims = queue.claim, {"empty": 0, "tasks": 0}

        def counting_claim(worker):
            task = claim(worker)
            claims["empty" if task is None else "tasks"] += 1
            return task

        queue.claim = counting_claim
        pool = WorkerPool(store, workers=2, queue=queue, poll_interval=60)
        pool.start()
        try:
            for index in range(30):
                rate = 0.001 * (index + 1)
                job = queue.submit([_fast(rate), _fast(rate).with_(policy="cda")]).job
                assert _until(lambda job=job: queue.job(job.id).state == DONE, 30)
        finally:
            pool.stop()
        assert claims["tasks"] == 60
        # A worker that finished a task may find nothing once, and each
        # worker finds nothing when it starts; no completion wakes one.
        assert claims["empty"] <= claims["tasks"] + pool.workers

    def test_drain_returns_once_the_queue_empties(self, queue, store):
        queue.submit([_fast()])
        pool = WorkerPool(store, workers=1, queue=queue, poll_interval=60)
        pool.start()
        try:
            started = time.monotonic()
            assert pool.drain(timeout=30)
            assert time.monotonic() - started < 10
        finally:
            pool.stop()

    def test_stop_returns_promptly(self, queue, store):
        pool = WorkerPool(store, workers=2, queue=queue, poll_interval=60)
        pool.start()
        time.sleep(0.2)
        threads = [*pool._threads, pool._supervisor]
        started = time.monotonic()
        pool.stop(timeout=10)
        assert time.monotonic() - started < 5
        assert not any(thread.is_alive() for thread in threads)


# ---------------------------------------------------------------------- #
# Simulation processes
# ---------------------------------------------------------------------- #
_CRASH_ONCE_PLUGIN = textwrap.dedent(
    """
    import os

    from repro.api import register_policy
    from repro.routing.base import ElevatorSelectionPolicy


    # The nearest elevator; the policy's first build kills its process.
    @register_policy("crash_once")
    class CrashOnce(ElevatorSelectionPolicy):
        name = "crash_once"

        def __init__(self, placement):
            if not os.path.exists({marker!r}):
                open({marker!r}, "w").close()
                os._exit(3)
            super().__init__(placement)

        def _select(self, source, destination, network, cycle):
            return self.placement.nearest_elevator(source)
    """
)


class TestSimulationProcesses:
    def test_a_dead_simulation_process_costs_one_attempt(
        self, tmp_path, monkeypatch, queue
    ):
        marker = tmp_path / "crashed-once"
        plugin = tmp_path / "crash_once_plugin.py"
        plugin.write_text(_CRASH_ONCE_PLUGIN.format(marker=str(marker)))
        monkeypatch.syspath_prepend(str(tmp_path))
        crashing = queue.submit([_fast().with_(policy="crash_once")]).job
        pool = WorkerPool(
            queue.store, workers=2, queue=queue, poll_interval=0.02,
            plugins=("crash_once_plugin",),
        )
        pool.start()
        try:
            assert _until(lambda: queue.job(crashing.id).finished, 60)
            following = queue.submit([_fast(0.003)]).job
            assert _until(lambda: queue.job(following.id).finished, 60)
        finally:
            pool.stop()
        assert marker.exists()
        [task] = queue.tasks(crashing.id)
        assert task.state == DONE and task.attempts == 2
        assert queue.job(following.id).state == DONE
        failed = pool.metrics.counter("repro_worker_tasks_failed_total")
        assert failed.value == 1

    def test_worker_threads_share_one_set_of_processes(self, queue):
        # More workers than cores and frequent thread switches: threads
        # racing to their first task still start one executor between them.
        tracer = install_tracer(Tracer(RingRecorder()))
        switch_interval = sys.getswitchinterval()
        pool = WorkerPool(queue.store, workers=4, queue=queue, poll_interval=0.02)
        job = queue.submit([_fast(0.001 * (index + 1)) for index in range(12)]).job
        sys.setswitchinterval(1e-6)
        try:
            pool.start()
            assert _until(lambda: queue.job(job.id).finished, 60)
        finally:
            sys.setswitchinterval(switch_interval)
            pool.stop()
            uninstall_tracer()
        assert queue.job(job.id).state == DONE
        assert all(task.attempts == 1 for task in queue.tasks(job.id))
        kernel = [r for r in tracer.spans() if r.name == "kernel.run"]
        assert len(kernel) == 12
        assert len({record.pid for record in kernel}) <= pool.workers


# ---------------------------------------------------------------------- #
# Crash resume
# ---------------------------------------------------------------------- #
_CRASH_WORKER = textwrap.dedent(
    """
    import os, sys
    from repro.service.queue import JobQueue
    from repro.service.store import SqliteStore

    queue = JobQueue(SqliteStore(sys.argv[1]))
    task = queue.claim("crasher")
    assert task is not None
    # Simulate a hard crash mid-simulation: no fail(), no complete(),
    # no clean shutdown -- the claim row is left dangling.
    os._exit(42)
    """
)


class TestCrashResume:
    def _crash_one_claim(self, store):
        result = subprocess.run(
            [sys.executable, "-c", _CRASH_WORKER, store.path],
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 42

    def test_recover_running_requeues_killed_workers_task(self, queue, store):
        receipt = queue.submit([_spec(0.001), _spec(0.002)])
        done = queue.claim("w1")
        queue.complete(done, {"average_latency": 1.0})
        self._crash_one_claim(store)
        counts = queue.counts()
        assert counts[RUNNING] == 1 and counts[DONE] == 1
        # Daemon restart: the orphaned claim is re-queued, completed work
        # is kept, and attempts are preserved (it was claimed once).
        assert queue.recover_running() == 1
        task = queue.claim("w2")
        assert task is not None and task.attempts == 2
        assert queue.results(receipt.job.id)[0]["summary"] == {
            "average_latency": 1.0
        }

    def test_requeue_stale_only_touches_expired_leases(self, queue, store):
        queue.submit([_spec()])
        self._crash_one_claim(store)
        # A generous lease: the dead worker's claim is still fresh.
        assert queue.requeue_stale(3600.0) == 0
        # A zero lease expires it immediately.
        assert queue.requeue_stale(0.0) == 1
        assert queue.claim("w2") is not None

    def test_crash_looping_task_exhausts_attempts(self, store):
        queue = JobQueue(store, max_attempts=2)
        receipt = queue.submit([_spec()])
        for _ in range(2):
            self._crash_one_claim(store)
            queue.recover_running()
        # Two claims burned; the next claim fails the task in place
        # instead of handing it out a third time.
        assert queue.claim("w9") is None
        assert queue.job(receipt.job.id).state == FAILED

    def test_exhausted_task_is_failed_and_the_next_one_claimed(self, store):
        queue = JobQueue(store, max_attempts=1)
        receipt = queue.submit([_spec(0.001), _spec(0.002)])
        assert queue.claim("w1").index == 0
        # Restart: task 0 is queued again, its one attempt already used,
        # ahead of the fresh task 1 in the same job.
        assert queue.recover_running() == 1
        task = queue.claim("w2")
        assert task is not None and task.index == 1 and task.attempts == 1
        first, second = queue.tasks(receipt.job.id)
        assert first.state == FAILED and first.error == "attempt limit exhausted"
        assert second.state == RUNNING
        assert queue.job(receipt.job.id).state == RUNNING
        queue.complete(task, {"average_latency": 1.0})
        assert queue.job(receipt.job.id).state == FAILED
