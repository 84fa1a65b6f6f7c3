"""End-to-end tests of the experiment service over real HTTP.

Boots the full stack in-process -- SqliteStore + JobQueue + WorkerPool +
ThreadingHTTPServer on an ephemeral port -- and drives it through
:class:`~repro.service.client.ServiceClient` exactly like an external
process would: submit, poll, fetch results, cancel.  The load-bearing
assertion is bit-identity: a job's summary rows must equal a direct
``api.run_specs`` run of the same specs, byte for byte.
"""

from __future__ import annotations

import json
import threading

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


@pytest.fixture
def service(tmp_path):
    """A live daemon on an ephemeral port; yields a connected client."""
    store = SqliteStore(str(tmp_path / "service.sqlite3"))
    queue = JobQueue(store)
    pool = WorkerPool(store, workers=2, queue=queue, poll_interval=0.02)
    server = make_server(ServiceContext(store, queue, pool), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    pool.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client
    finally:
        server.shutdown()
        server.server_close()
        pool.stop()
        store.close()
        thread.join(timeout=5)


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
