"""Tracer mechanics, recorders, exports, and span coverage end-to-end.

The coverage test is the acceptance criterion of the observability layer:
one in-process exercise of the stack (batch engine with a warm cache +
the HTTP service with a real job) must record spans for every hot
boundary family -- setup, kernel, cache, chunk flush, queue, HTTP -- so
``repro trace report`` actually shows where the time goes.  Spans recorded
in pool processes -- the batch engine's and the service's -- come back to
the parent's tracer, whatever its recorder and the start method.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.exec.batch import ExperimentBatch
from repro.exec.cache import open_caches
from repro.obs.tracing import (
    JsonlRecorder,
    RingRecorder,
    SpanRecord,
    Tracer,
    chrome_trace_document,
    current_tracer,
    install_tracer,
    load_span_records,
    span,
    trace_report,
    uninstall_tracer,
)
from repro.service.client import ServiceClient
from repro.service.http import ServiceContext, make_server
from repro.service.queue import JobQueue
from repro.service.store import SqliteStore
from repro.service.workers import WorkerPool
from repro.spec import ExperimentSpec, PlacementSpec, SimSpec, TrafficSpec


@pytest.fixture
def tracer():
    installed = install_tracer(Tracer(RingRecorder()))
    try:
        yield installed
    finally:
        uninstall_tracer()


def _spec(rate: float = 0.002) -> ExperimentSpec:
    return ExperimentSpec(
        placement=PlacementSpec(
            name="trace-tiny", mesh=(2, 2, 2), columns=((0, 0), (1, 1))
        ),
        traffic=TrafficSpec(pattern="uniform", injection_rate=rate),
        sim=SimSpec(warmup_cycles=10, measurement_cycles=40, drain_cycles=30),
    )


class TestTracerMechanics:
    def test_span_nesting_records_depth_and_order(self, tracer):
        with span("outer", kind="test"):
            with span("inner"):
                pass
        records = tracer.spans()
        # Inner spans close (and record) first.
        assert [r.name for r in records] == ["inner", "outer"]
        assert records[0].depth == 1
        assert records[1].depth == 0
        assert records[1].args == {"kind": "test"}
        assert all(r.dur_us >= 0 for r in records)

    def test_span_is_a_noop_without_a_tracer(self):
        assert current_tracer() is None
        with span("ignored") as record:
            assert record is None

    def test_span_records_error_type(self, tracer):
        with pytest.raises(RuntimeError):
            with span("failing"):
                raise RuntimeError("boom")
        (record,) = tracer.spans()
        assert record.args["error"] == "RuntimeError"

    def test_ring_recorder_is_bounded(self):
        tracer = Tracer(RingRecorder(capacity=3))
        install_tracer(tracer)
        try:
            for index in range(10):
                with span(f"s{index}"):
                    pass
        finally:
            uninstall_tracer()
        assert [r.name for r in tracer.spans()] == ["s7", "s8", "s9"]

    def test_jsonl_recorder_round_trips(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(JsonlRecorder(path))
        install_tracer(tracer)
        try:
            with span("alpha", key="k1"):
                with span("beta"):
                    pass
        finally:
            uninstall_tracer()
            tracer.close()
        loaded = load_span_records(path)
        assert [r.name for r in loaded] == ["beta", "alpha"]
        assert loaded[1].args == {"key": "k1"}
        assert tracer.spans() == loaded  # a closed log still reads back
        # A record survives dict round-tripping losslessly.
        for record in loaded:
            assert SpanRecord.from_dict(record.to_dict()).to_dict() == record.to_dict()

    def test_malformed_jsonl_line_is_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok", "ts_us": 0, "dur_us": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_span_records(str(path))


def _traced_batch(recorder, workers: int = 1, executor=None):
    """The spans a traced 4-spec batch leaves in ``recorder``."""
    tracer = install_tracer(Tracer(recorder))
    try:
        ExperimentBatch(
            [_spec(rate) for rate in (0.001, 0.002, 0.003, 0.004)],
            workers=workers,
            executor=executor,
        ).run()
    finally:
        uninstall_tracer()
        tracer.close()
    return recorder.spans()


class TestWorkerSpans:
    @pytest.mark.parametrize("kind", ["ring", "jsonl"])
    def test_pool_spans_reach_the_parents_recorder(self, tmp_path, kind):
        def recorder(name):
            if kind == "ring":
                return RingRecorder()
            return JsonlRecorder(str(tmp_path / f"{name}.jsonl"))

        serial = _traced_batch(recorder("serial"), workers=1)
        pooled = _traced_batch(recorder("pooled"), workers=2)
        # The same spans as a serial run, each recorded exactly once ...
        assert Counter(r.name for r in pooled) == Counter(r.name for r in serial)
        worker = [r for r in pooled if r.pid != os.getpid()]
        assert Counter(r.name for r in worker) == {
            "setup.network": 4, "kernel.run": 4,
        }
        # ... on the parent's timeline: the chunk flush follows its tasks.
        [flush] = [r for r in pooled if r.name == "chunk.flush"]
        assert all(0 <= r.ts_us and r.ts_us + r.dur_us <= flush.ts_us for r in worker)

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_workers_stamp_their_own_pid(self, tmp_path, method):
        # Under every start method a worker's spans reach the parent's log,
        # each with the pid of the process that recorded it, or the Chrome
        # export draws every worker on one lane.
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as executor:
            records = _traced_batch(
                JsonlRecorder(str(tmp_path / "trace.jsonl")), executor=executor
            )
        kernel = [r for r in records if r.name == "kernel.run"]
        assert len(kernel) == 4
        assert os.getpid() not in {record.pid for record in kernel}

    def test_worker_pool_spans_come_from_its_processes(self, tmp_path, tracer):
        store = SqliteStore(str(tmp_path / "pool.sqlite3"))
        queue = JobQueue(store)
        queue.submit([_spec(rate) for rate in (0.001, 0.002, 0.003)])
        pool = WorkerPool(store, workers=2, queue=queue, poll_interval=0.02)
        pool.start()
        try:
            assert pool.drain(timeout=120)
        finally:
            pool.stop()
            store.close()
        kernel = [r for r in tracer.spans() if r.name == "kernel.run"]
        assert len(kernel) == queue.counts()["done"] == 3
        assert os.getpid() not in {record.pid for record in kernel}


class TestExports:
    def _records(self):
        return [
            SpanRecord(name="kernel.run", ts_us=10, dur_us=100, pid=1, tid=2),
            SpanRecord(name="setup.network", ts_us=0, dur_us=10, pid=1, tid=2),
            SpanRecord(name="kernel.run", ts_us=200, dur_us=300, pid=1, tid=3),
        ]

    def test_chrome_trace_document_shape(self):
        document = chrome_trace_document(self._records())
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        assert all(event["ph"] == "X" for event in events)
        # Sorted by (pid, tid, ts) so perfetto nests by containment.
        assert [(e["tid"], e["ts"]) for e in events] == [(2, 0), (2, 10), (3, 200)]
        json.dumps(document)  # must be pure-JSON serializable

    def test_trace_report_rows(self):
        rows = trace_report(self._records())
        assert [row["name"] for row in rows] == ["kernel.run", "setup.network"]
        kernel = rows[0]
        assert kernel["count"] == 2
        assert kernel["total_us"] == 400
        assert kernel["p50_us"] == 100
        assert kernel["p95_us"] == 300
        assert kernel["max_us"] == 300


class TestSpanCoverage:
    def test_stack_exercise_covers_every_boundary_family(self, tmp_path, tracer):
        # Batch engine against a cache directory: setup/kernel/cache/flush.
        result_cache, design_cache = open_caches(str(tmp_path / "cache"))
        batch = ExperimentBatch(
            [_spec(0.001), _spec(0.002)],
            result_cache=result_cache,
            design_cache=design_cache,
            chunk_size=1,
        )
        batch.run()

        # The HTTP service with one real job: http/queue (+ the engine
        # spans of the one-worker pool, which simulates on its thread).
        store = SqliteStore(str(tmp_path / "service.sqlite3"))
        queue = JobQueue(store)
        pool = WorkerPool(store, workers=1, queue=queue, poll_interval=0.02)
        server = make_server(ServiceContext(store, queue, pool), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        pool.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}"
            )
            job_id = client.submit([_spec(0.003)])
            client.wait(job_id, timeout=120)
        finally:
            server.shutdown()
            server.server_close()
            pool.stop()
            store.close()
            thread.join(timeout=5)

        names = {record.name for record in tracer.spans()}
        required = {
            "setup.network", "kernel.run", "cache.get", "cache.put",
            "chunk.flush", "queue.claim", "queue.complete", "http.request",
        }
        assert required <= names, f"missing spans: {sorted(required - names)}"
        # And the report surfaces them: >= 6 distinct span names across
        # setup / kernel / cache / queue / http (the acceptance bar).
        report_names = {row["name"] for row in trace_report(tracer.spans())}
        assert len(report_names & required) >= 6
