"""End-to-end tests of the experiment service over real HTTP.

Boots the full stack in-process -- SqliteStore + JobQueue + WorkerPool +
ThreadingHTTPServer on an ephemeral port -- and drives it through
:class:`~repro.service.client.ServiceClient` exactly like an external
process would: submit, poll, fetch results, cancel.  The load-bearing
assertion is bit-identity: a job's summary rows must equal a direct
``api.run_specs`` run of the same specs, byte for byte.  A ``repro serve``
subprocess, killed or terminated after a job, must leave none of the
processes it started running.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from typing import Dict, List

import pytest

from repro import api
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ServiceContext, make_server
from repro.service.queue import JobQueue
from repro.service.store import SqliteStore
from repro.service.workers import WorkerPool
from repro.spec import ExperimentSpec, PlacementSpec, SimSpec, TrafficSpec


def _spec(rate: float = 0.002, policy: str = "elevator_first") -> ExperimentSpec:
    return ExperimentSpec(
        placement=PlacementSpec(
            name="http-tiny", mesh=(2, 2, 2), columns=((0, 0), (1, 1))
        ),
        traffic=TrafficSpec(pattern="uniform", injection_rate=rate),
        sim=SimSpec(warmup_cycles=10, measurement_cycles=40, drain_cycles=30),
    ).with_(policy=policy)


@contextlib.contextmanager
def _daemon(path: str, start_workers: bool):
    """A live daemon on an ephemeral port; yields a client and its queue."""
    store = SqliteStore(path)
    queue = JobQueue(store)
    pool = WorkerPool(store, workers=2, queue=queue, poll_interval=0.02)
    server = make_server(ServiceContext(store, queue, pool), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    if start_workers:
        pool.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client, queue
    finally:
        server.shutdown()
        server.server_close()
        pool.stop()
        store.close()
        thread.join(timeout=5)


@pytest.fixture
def service(tmp_path):
    """A live daemon with running workers; yields a connected client."""
    with _daemon(str(tmp_path / "service.sqlite3"), start_workers=True) as (client, _):
        yield client


@pytest.fixture
def idle_daemon(tmp_path):
    """A live daemon whose workers never start: the test moves its tasks.

    Yields the client and the daemon's own queue object, so a change the
    test makes through it signals the daemon's held requests.
    """
    with _daemon(str(tmp_path / "idle.sqlite3"), start_workers=False) as pair:
        yield pair


def _live_connections() -> int:
    return sum(isinstance(obj, sqlite3.Connection) for obj in gc.get_objects())


def _until(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _descendants(pid: int) -> List[int]:
    """Every process below ``pid``, read from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, pending = [], [pid]
    while pending:
        for child in children.get(pending.pop(), []):
            found.append(child)
            pending.append(child)
    return found


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestServiceEndToEnd:
    def test_health(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        # The cache block is SqliteStore.stats() of the daemon's store.
        cache = health["cache"]
        assert set(cache) == {"backend", "tables", "bytes"}
        assert cache["backend"] == "sqlite"
        assert set(cache["tables"]) == {"results", "designs", "jobs", "tasks"}
        assert cache["bytes"] > 0

    def test_submit_wait_results_bit_identical_to_direct_run(self, service):
        specs = [_spec(0.001), _spec(0.002, policy="adele")]
        job_id = service.submit(specs, base_seed=7)
        status = service.wait(job_id, timeout=120)
        assert status["state"] == "done"
        rows = service.results(job_id)

        direct = [o.summary for o in api.run_specs(specs, base_seed=7)]
        assert json.dumps(rows, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_identical_resubmission_attaches_to_existing_job(self, service):
        specs = [_spec(0.001)]
        first = service.submit_receipt(specs, base_seed=3)
        service.wait(first["job_id"], timeout=120)
        second = service.submit_receipt(specs, base_seed=3)
        assert first["created"] is True
        assert second["created"] is False
        assert second["job_id"] == first["job_id"]
        assert second["state"] == "done"

    def test_progress_polling_counts(self, service):
        job_id = service.submit([_spec(0.001)])
        status = service.wait(job_id, timeout=120)
        assert status["counts"]["done"] == 1
        assert status["num_tasks"] == 1
        jobs = service.jobs()
        assert any(job["job_id"] == job_id for job in jobs)

    def test_results_of_unfinished_job_raise(self, service, tmp_path):
        # A store-only submission (no worker has run yet on a fresh queue)
        # cannot produce rows; the client surfaces that as a 409-style
        # error instead of returning partial data.
        store = SqliteStore(str(tmp_path / "other.sqlite3"))
        queue = JobQueue(store)
        queue.submit([_spec(0.005)])
        docs = queue.results(1)
        assert docs[0]["summary"] is None
        store.close()

    def test_cancel_queued_job(self, service):
        # Saturate the two workers with slow tasks, then cancel a queued
        # job before anyone claims it.
        slow = [_spec(0.003), _spec(0.004), _spec(0.005), _spec(0.006)]
        service.submit(slow)
        victim = service.submit([_spec(0.009)])
        cancelled = service.cancel(victim)
        if cancelled["state"] == "cancelled":  # not yet claimed: the
            assert cancelled["counts"]["cancelled"] == 1  # common path
        else:  # a worker grabbed it first; it must then finish normally
            assert service.wait(victim, timeout=120)["state"] == "done"

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.status(12345)
        assert excinfo.value.status == 404

    def test_bad_submission_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service._request("POST", "/api/jobs", {"specs": []})
        assert excinfo.value.status == 400

    def test_scenario_past_the_injection_window_is_400(self, service):
        # Injection stops at cycle 50 (10 warm-up + 40 measured cycles).
        document = _spec().to_dict()
        document["scenario"] = {
            "events": [{"kind": "elevator-fault", "cycle": 60, "elevator": 0}]
        }
        with pytest.raises(ServiceError) as excinfo:
            service._request("POST", "/api/jobs", {"specs": [document]})
        assert excinfo.value.status == 400
        assert "injection stops at cycle 50" in str(excinfo.value)
        assert service.jobs() == []

    def test_non_string_event_label_is_400(self, service):
        document = _spec().to_dict()
        document["scenario"] = {"events": [
            {"kind": "elevator-fault", "cycle": 20, "elevator": 0, "label": 5}
        ]}
        with pytest.raises(ServiceError) as excinfo:
            service._request("POST", "/api/jobs", {"specs": [document]})
        assert excinfo.value.status == 400
        assert "label must be a string or null" in str(excinfo.value)
        assert service.jobs() == []

    def test_unknown_route_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service._request("GET", "/api/nothing")
        assert excinfo.value.status == 404

    def test_api_module_level_helpers(self, service):
        job_id = api.submit(
            [_spec(0.001)], base_seed=5, base_url=service.base_url
        )
        api.wait(job_id, timeout=120, base_url=service.base_url)
        rows = api.results(job_id, base_url=service.base_url)
        assert rows and "average_latency" in rows[0]

    def test_connect_returns_client(self, service):
        client = api.connect(service.base_url)
        assert isinstance(client, ServiceClient)
        assert client.health()["status"] == "ok"


class TestHeldStatus:
    """``GET /api/jobs/<id>?wait=S`` answers when the job ends, not later."""

    @staticmethod
    def _hold(client, job_id):
        """Start a ``wait=30`` status request on a thread."""
        answer = {}

        def ask():
            answer["status"] = client._request("GET", f"/api/jobs/{job_id}?wait=30")
            answer["returned"] = time.monotonic()

        thread = threading.Thread(target=ask, daemon=True)
        thread.start()
        time.sleep(0.3)
        assert thread.is_alive(), "an open job's status was not held"
        return thread, answer

    def test_held_request_returns_when_the_job_completes(self, idle_daemon):
        client, queue = idle_daemon
        job_id = queue.submit([_spec()]).job.id
        thread, answer = self._hold(client, job_id)
        queue.complete(queue.claim("test"), {"average_latency": 1.0})
        completed = time.monotonic()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert answer["status"]["state"] == "done"
        assert answer["returned"] - completed < 2.0

    def test_cancel_wakes_a_held_request(self, idle_daemon):
        client, queue = idle_daemon
        job_id = queue.submit([_spec()]).job.id
        thread, answer = self._hold(client, job_id)
        client.cancel(job_id)
        cancelled = time.monotonic()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert answer["status"]["state"] == "cancelled"
        assert answer["returned"] - cancelled < 2.0

    def test_terminal_job_answers_at_once(self, idle_daemon):
        client, queue = idle_daemon
        job_id = queue.submit([_spec()]).job.id
        queue.complete(queue.claim("test"), {"average_latency": 1.0})
        started = time.monotonic()
        status = client._request("GET", f"/api/jobs/{job_id}?wait=30")
        assert status["state"] == "done"
        assert time.monotonic() - started < 2.0

    def test_open_job_answers_after_the_hold(self, idle_daemon):
        client, queue = idle_daemon
        job_id = queue.submit([_spec()]).job.id
        started = time.monotonic()
        status = client.status(job_id, wait=0.2)
        elapsed = time.monotonic() - started
        assert status["state"] == "queued"
        assert 0.2 <= elapsed < 5.0

    @pytest.mark.parametrize("value", ["-1", "abc", "nan", "inf", ""])
    def test_bad_wait_is_400(self, idle_daemon, value):
        client, queue = idle_daemon
        job_id = queue.submit([_spec()]).job.id
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/api/jobs/{job_id}?wait={value}")
        assert excinfo.value.status == 400
        assert "wait must be" in str(excinfo.value)

    @pytest.mark.parametrize("daemon_holds", [True, False])
    def test_wait_looks_through_status_with_bounded_holds(
        self, idle_daemon, monkeypatch, daemon_holds
    ):
        client, queue = idle_daemon
        job_id = queue.submit([_spec()]).job.id
        holds = []
        status = client.status

        def counted(job, wait=0.0):
            holds.append(wait)
            # A daemon that predates ``wait`` ignores it and answers at once.
            return status(job, wait=wait if daemon_holds else 0.0)

        monkeypatch.setattr(client, "status", counted)
        with pytest.raises(TimeoutError):
            client.wait(job_id, timeout=0.5, poll_interval=0.2)
        # Holds of min(poll_interval, time left), and no spinning either way.
        assert holds[0] == 0.2
        assert 2 <= len(holds) <= 5 and all(0 <= hold <= 0.2 for hold in holds)

    def test_requests_close_their_store_connections(self, idle_daemon, no_cyclic_gc):
        client, _ = idle_daemon
        before = _live_connections()
        for _ in range(50):
            client.health()
        # A request thread closes its connection just after it answers.
        deadline = time.monotonic() + 5
        while _live_connections() != before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _live_connections() == before


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
class TestDaemonProcesses:
    @pytest.mark.parametrize(
        "signum", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"]
    )
    def test_no_process_outlives_the_daemon(self, tmp_path, signum):
        src = os.path.dirname(os.path.dirname(os.path.abspath(api.__file__)))
        log_path = tmp_path / "serve.log"
        with open(log_path, "wb") as log:
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--workers", "2",
                 "--port", "0", "--cache-dir", str(tmp_path / "state")],
                stdout=log, stderr=subprocess.STDOUT,
                env=dict(os.environ, PYTHONPATH=src),
            )
        try:
            assert _until(lambda: "listening on" in log_path.read_text(), 60)
            url = re.search(r"listening on (http://\S+)", log_path.read_text())[1]
            client = ServiceClient(url)
            job_id = client.submit([_spec(0.002), _spec(0.002, "cda")])
            assert client.wait(job_id, timeout=120)["state"] == "done"
            # The simulation processes, and what started them, run now.
            started = _descendants(daemon.pid)
            assert len(started) >= 2
            daemon.send_signal(signum)
            daemon.wait(timeout=30)
            assert _until(lambda: not any(map(_running, started)), 5), [
                pid for pid in started if _running(pid)
            ]
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
