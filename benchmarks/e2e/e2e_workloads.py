"""Workloads of the end-to-end benchmark and the loop that drives them.

A workload is an endless stream of *jobs* derived from the run's seed: a
job is one submission a user makes and waits for -- one
:class:`~repro.exec.batch.ExperimentBatch` over a cold cache directory for
the three batch workloads, one ``POST /api/jobs`` to a ``repro serve``
daemon for ``service_jobs``.  :func:`drive` submits jobs one after another
(a closed loop with one client) until the time budget is spent, and every
fifth job is resubmitted verbatim to time the warm read path (warm cache
for a batch, the dedup path for the daemon).

Everything here calls the program through its public entry points only;
the spans of the traced pass come from :mod:`e2e_layers`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import (
    DEFAULT_BACKEND,
    ExperimentBatch,
    ExperimentSpec,
    PlacementSpec,
    PolicySpec,
    ProbeSpec,
    ServiceClient,
    ServiceError,
    SimSpec,
    TrafficSpec,
    available_applications,
    open_caches,
    run,
    run_specs,
)
from repro.traffic.applications import application_spec

POLICIES = ("elevator_first", "cda", "adele")

#: Worker processes of each batch, or daemon worker threads, in timed
#: passes (the traced pass is serial).
WORKERS = 2

#: Seconds a spawned daemon may take to answer ``/api/health``.
DAEMON_READY_S = 60.0
#: Seconds between job-status polls of the service client.
POLL_S = 0.02
#: Every this many jobs, the job just finished is resubmitted verbatim.
RESUBMIT_EVERY = 5
#: Specs re-run through the ``reference`` kernel per run.
ORACLE_SAMPLE = 2
#: Service jobs whose daemon rows are checked against a direct run.
DIRECT_SAMPLE_JOBS = 8

#: The self-test's stand-ins: a 2x2x2 mesh and short windows, so every
#: workload runs end to end in a fraction of a second.
TINY_PLACEMENT = PlacementSpec(name="e2e-tiny", mesh=(2, 2, 2), columns=((0, 0), (1, 1)))
TINY_CYCLES = (20, 60, 40)
TINY_RATE_SCALE = 10.0

Row = Tuple[str, Dict[str, Any]]


def spec_seed(seed: int, n: int) -> int:
    """The simulation seed of the ``n``-th seeded item of a run."""
    return (seed * 100_003 + n) % 2 ** 31


def _spec(placement, policy, pattern, rate, seed, cycles,
          backend=DEFAULT_BACKEND, bit_exact=False) -> ExperimentSpec:
    if isinstance(placement, str):
        placement = PlacementSpec(name=placement)
    warmup, measure, drain = cycles
    return ExperimentSpec(
        placement=placement,
        policy=PolicySpec(name=policy),
        traffic=TrafficSpec(pattern=pattern, injection_rate=rate),
        sim=SimSpec(
            warmup_cycles=warmup,
            measurement_cycles=measure,
            drain_cycles=drain,
            seed=seed,
            backend=backend,
            bit_exact=bit_exact,
        ),
    )


# ---------------------------------------------------------------------- #
# Job streams
# ---------------------------------------------------------------------- #
def paper_apps_job(seed: int, index: int, tiny: bool = False) -> List[ExperimentSpec]:
    """One seed of the Fig. 7 grid: 6 apps x PS1-PS3 x 3 policies = 54 specs."""
    apps = ("fft",) if tiny else tuple(available_applications())
    placements = (TINY_PLACEMENT,) if tiny else ("PS1", "PS2", "PS3")
    cycles = TINY_CYCLES if tiny else (200, 800, 500)
    rate = 0.005 * (TINY_RATE_SCALE if tiny else 1.0)
    return [
        _spec(placement, policy, app, rate * application_spec(app).load_factor,
              spec_seed(seed, index), cycles)
        for app in apps
        for placement in placements
        for policy in POLICIES
    ]


def pm_knee_job(seed: int, index: int, tiny: bool = False) -> List[ExperimentSpec]:
    """One seed of the Fig. 4 PM sweep: 3 rates around the knee x 3 policies."""
    placement = TINY_PLACEMENT if tiny else "PM"
    cycles = TINY_CYCLES if tiny else (200, 600, 400)
    scale = TINY_RATE_SCALE if tiny else 1.0
    return [
        _spec(placement, policy, "uniform", rate * scale, spec_seed(seed, index), cycles,
              backend="vectorized", bit_exact=True)
        for rate in (0.004, 0.006, 0.010)
        for policy in POLICIES
    ]


def seed_replicas_job(seed: int, index: int, tiny: bool = False) -> List[ExperimentSpec]:
    """16 seeds of the PS2 confidence-interval sweep: 96 specs, 6 groups."""
    seeds = 2 if tiny else 16
    placement = TINY_PLACEMENT if tiny else "PS2"
    cycles = TINY_CYCLES if tiny else (300, 1500, 800)
    scale = TINY_RATE_SCALE if tiny else 1.0
    return [
        _spec(placement, policy, "uniform", rate * scale,
              spec_seed(seed, index * seeds + k), cycles,
              backend="vectorized", bit_exact=True)
        for policy in POLICIES
        for rate in (0.0005, 0.001)
        for k in range(seeds)
    ]


def _service_fresh(seed: int, index: int, tiny: bool) -> List[ExperimentSpec]:
    # Two policies per job, rotating, so every policy's kernel is exercised.
    placement = TINY_PLACEMENT if tiny else "PS1"
    cycles = TINY_CYCLES if tiny else (100, 400, 300)
    rate = 0.003 * (TINY_RATE_SCALE if tiny else 1.0)
    return [
        _spec(placement, POLICIES[(index + k) % len(POLICIES)], "uniform", rate,
              spec_seed(seed, index), cycles)
        for k in range(2)
    ]


def service_job(seed: int, index: int, tiny: bool = False) -> List[ExperimentSpec]:
    """Two fresh PS1 specs plus the previous job's two (warm reads)."""
    specs = _service_fresh(seed, index, tiny)
    if index > 0:
        specs += _service_fresh(seed, index - 1, tiny)
    return specs


@dataclass(frozen=True)
class Workload:
    """How one workload is run; the reasons for each are in BENCHMARK.json.

    Attributes:
        jobs: ``(seed, job index, tiny) -> specs`` of one job.
        service: Submit jobs to a ``repro serve`` daemon instead of running
            them as batches.
        hashed_jobs: The first jobs whose rows make ``results_sha256``;
            a run always completes at least this many.
        oracle_lowest_rate: Draw the reference sample from the specs with
            the lowest injection rate only (they run fastest on ``reference``).
    """

    name: str
    jobs: Callable[[int, int, bool], List[ExperimentSpec]]
    service: bool = False
    chunk_size: Optional[int] = None
    replica_batch: Optional[int] = None
    hashed_jobs: int = 1
    oracle_lowest_rate: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("paper_apps", paper_apps_job, chunk_size=18),
        Workload("pm_knee", pm_knee_job, oracle_lowest_rate=True),
        Workload("seed_replicas", seed_replicas_job, replica_batch=16),
        Workload("service_jobs", service_job, service=True, hashed_jobs=20),
    )
}


def hashed_jobs(workload: Workload, tiny: bool) -> int:
    """Jobs a run always finishes; a tiny service run needs two to run all
    three policies."""
    return 2 if tiny and workload.service else workload.hashed_jobs


# ---------------------------------------------------------------------- #
# Clients: one job in, its rows out
# ---------------------------------------------------------------------- #
class BatchJobs:
    """Runs each job as one cold-cache :class:`ExperimentBatch`."""

    def __init__(self, workload: Workload, workdir: str, workers: int) -> None:
        self.workload = workload
        self.workdir = workdir
        self.workers = workers
        self.busy_s = 0.0

    def _batch(self, index: int, specs: List[ExperimentSpec]) -> ExperimentBatch:
        # The same construction as ``api.run_specs`` with a cache directory.
        cache_dir = os.path.join(self.workdir, f"job-{index}")
        result_cache, design_cache = open_caches(cache_dir)
        return ExperimentBatch(
            specs,
            workers=self.workers,
            result_cache=result_cache,
            design_cache=design_cache,
            chunk_size=self.workload.chunk_size,
            manifest_dir=cache_dir,
            replica_batch=self.workload.replica_batch,
        )

    def run_job(self, index: int, specs: List[ExperimentSpec]) -> Tuple[List[Row], int]:
        batch = self._batch(index, specs)
        outcomes = batch.run()
        self.busy_s += batch.last_setup_s + batch.last_kernel_s
        return [(o.key, o.summary) for o in outcomes], batch.last_executed

    def resubmit(self, index: int, specs: List[ExperimentSpec]) -> List[Row]:
        batch = self._batch(index, specs)
        outcomes = batch.run()
        if batch.last_executed:
            raise RuntimeError(f"warm resubmit of job {index} simulated "
                               f"{batch.last_executed} spec(s)")
        return [(o.key, o.summary) for o in outcomes]

    def parallel_efficiency(self, wall_s: float) -> float:
        return self.busy_s / (self.workers * wall_s)

    def close(self) -> None:
        pass


def child_env(hash_seed: Optional[int] = None) -> Dict[str, str]:
    """Environment of every process the benchmark starts."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONUNBUFFERED"] = "1"
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


class Daemon:
    """A ``repro serve --port 0`` subprocess, ready once ``/api/health`` is 200.

    Its output goes to a log file: a pipe nobody drains would block it.
    """

    def __init__(self, state_dir: str, workers: int, env: Dict[str, str]) -> None:
        os.makedirs(state_dir, exist_ok=True)
        self.log_path = os.path.join(state_dir, "serve.log")
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", str(workers),
             "--port", "0", "--cache-dir", state_dir],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
        )
        try:
            self.url = self._await_ready(time.monotonic() + DAEMON_READY_S)
        except BaseException:
            self.close()
            raise

    def _log_text(self) -> str:
        with open(self.log_path, "r", errors="replace") as handle:
            return handle.read()

    def _await_ready(self, deadline: float) -> str:
        url = None
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}: "
                                   f"{self._log_text()[-2000:]}")
            if url is None:
                match = re.search(r"listening on (http://\S+)", self._log_text())
                url = match.group(1) if match else None
            if url is not None:
                try:
                    ServiceClient(url, timeout=5.0).health()
                    return url
                except ServiceError:
                    pass
            time.sleep(0.002)
        raise TimeoutError("repro serve did not become healthy in time")

    def close(self) -> None:
        # The state directory is thrown away, so there is nothing to drain;
        # a graceful stop would only add the HTTP server's 0.5 s poll.
        self.process.kill()
        self.process.wait()
        self._log.close()


class InProcessDaemon:
    """The daemon's queue, worker pool and HTTP server inside this process.

    The traced pass uses it so the wrapped engine entry points see the
    worker thread's calls; it is assembled exactly as ``serve`` does.
    """

    def __init__(self, state_dir: str, workers: int) -> None:
        from repro.service.http import ServiceContext, make_server
        from repro.service.queue import JobQueue
        from repro.service.store import DEFAULT_DB_FILENAME, SqliteStore
        from repro.service.workers import WorkerPool

        os.makedirs(state_dir, exist_ok=True)
        self.store = SqliteStore(os.path.join(state_dir, DEFAULT_DB_FILENAME))
        queue = JobQueue(self.store)
        self.pool = WorkerPool(self.store, workers=workers, queue=queue)
        self.server = make_server(ServiceContext(self.store, queue, self.pool), port=0)
        self.pool.start()
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=15)
        self.pool.stop()
        self.store.close()


def _metric_sums(text: str, names: Tuple[str, ...]) -> float:
    """Sum of the given series of a Prometheus exposition, labels ignored."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        series, _, value = line.rpartition(" ")
        if series.split("{", 1)[0] in names:
            total += float(value)
    return total


_BUSY_SERIES = ("repro_task_setup_seconds_sum", "repro_task_kernel_seconds_sum")


class ServiceJobs:
    """Submits each job to a daemon and waits for its rows (one client)."""

    def __init__(self, daemon, workers: int) -> None:
        self.daemon = daemon
        self.workers = workers
        self.client = ServiceClient(daemon.url, timeout=30.0)
        self.job_ids: Dict[int, int] = {}
        self._busy_start = _metric_sums(self.client.metrics(), _BUSY_SERIES)

    def _rows(self, job_id: int) -> List[Row]:
        return [(doc["key"], doc["summary"]) for doc in self.client.result_documents(job_id)]

    def run_job(self, index: int, specs: List[ExperimentSpec]) -> Tuple[List[Row], int]:
        receipt = self.client.submit_receipt(specs)
        if not receipt["created"]:
            raise RuntimeError(f"job {index} was deduplicated on first submission")
        status = self.client.wait(receipt["job_id"], timeout=60.0, poll_interval=POLL_S)
        if status["state"] != "done":
            raise RuntimeError(f"job {index} ended {status['state']}: {status.get('error')}")
        self.job_ids[index] = receipt["job_id"]
        return self._rows(receipt["job_id"]), receipt["num_tasks"] - receipt["counts"]["done"]

    def resubmit(self, index: int, specs: List[ExperimentSpec]) -> List[Row]:
        receipt = self.client.submit_receipt(specs)
        if receipt["created"] or receipt["job_id"] != self.job_ids[index]:
            raise RuntimeError(f"resubmission of job {index} was not deduplicated")
        return self._rows(receipt["job_id"])

    def parallel_efficiency(self, wall_s: float) -> float:
        busy = _metric_sums(self.client.metrics(), _BUSY_SERIES) - self._busy_start
        return busy / (self.workers * wall_s)

    def close(self) -> None:
        self.daemon.close()


def open_jobs(workload: Workload, workdir: str, workers: int, in_process: bool = False):
    """The client a workload's jobs go through (close it when done)."""
    if not workload.service:
        return BatchJobs(workload, workdir, workers)
    state_dir = os.path.join(workdir, "service")
    if in_process:
        daemon = InProcessDaemon(state_dir, workers)
    else:
        daemon = Daemon(state_dir, workers, child_env())
    try:
        return ServiceJobs(daemon, workers)
    except BaseException:
        daemon.close()
        raise


# ---------------------------------------------------------------------- #
# The closed loop
# ---------------------------------------------------------------------- #
def rows_digest(rows: List[Row]) -> str:
    blob = json.dumps([[key, summary] for key, summary in rows], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def drive(workload: Workload, jobs, seed: int, seconds: float,
          tiny: bool = False) -> Dict[str, Any]:
    """Submit jobs until ``seconds`` are spent, stopping at a job boundary.

    The loop stops at whichever boundary lies closest to the budget, and
    never before the hashed jobs are done.  A failed job ends the loop.
    """
    latencies: List[float] = []
    cold_specs: List[int] = []
    resubmit_latencies: List[float] = []
    history: List[Tuple[List[ExperimentSpec], List[Row]]] = []
    errors: List[str] = []
    attempted = 0
    minimum = hashed_jobs(workload, tiny)
    start = time.perf_counter()
    index = 0
    while True:
        specs = workload.jobs(seed, index, tiny)
        attempted += 1
        began = time.perf_counter()
        try:
            rows, cold = jobs.run_job(index, specs)
        except Exception as error:
            errors.append(f"job {index}: {type(error).__name__}: {error}")
            break
        latencies.append(time.perf_counter() - began)
        cold_specs.append(cold)
        history.append((specs, rows))
        if index % RESUBMIT_EVERY == 0:
            attempted += 1
            began = time.perf_counter()
            try:
                again = jobs.resubmit(index, specs)
            except Exception as error:
                errors.append(f"resubmit {index}: {type(error).__name__}: {error}")
                break
            resubmit_latencies.append(time.perf_counter() - began)
            if again != rows:
                errors.append(f"resubmit {index}: rows differ from the first run")
        index += 1
        elapsed = time.perf_counter() - start
        if index >= minimum and elapsed + elapsed / index / 2 >= seconds:
            break
    loop_s = time.perf_counter() - start
    hashed = [row for _, rows in history[:minimum] for row in rows]
    return {
        "loop_s": loop_s,
        "jobs": len(latencies),
        "job_cold_specs": cold_specs,
        "job_latencies_s": latencies,
        "resubmit_latencies_s": resubmit_latencies,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "results_sha256": rows_digest(hashed),
        "history": history,
        "hashed_jobs": minimum,
    }


# ---------------------------------------------------------------------- #
# Correctness oracle
# ---------------------------------------------------------------------- #
IDLE_PROBE = ProbeSpec(interval=1, channels=("in_flight_flits", "injection_backlog"),
                       max_samples=1 << 16)


def reference_summary(spec: ExperimentSpec):
    """One spec on the ``reference`` kernel, probed every cycle."""
    result = run(spec.with_(backend="reference", bit_exact=False), probe=IDLE_PROBE)
    return result.summary(), result.probe


def _same(left: Dict[str, Any], right: Dict[str, Any]) -> bool:
    return json.dumps(left, sort_keys=True) == json.dumps(right, sort_keys=True)


def check_oracle(workload: Workload, loop: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Re-run a seed-chosen sample of the hashed jobs' specs on ``reference``.

    The sample's probe series also give the share of idle simulated cycles
    (nothing buffered, nothing waiting to inject).  For the daemon, the
    rows of a sample of jobs are also compared with a direct
    ``api.run_specs`` of the same specs.
    """
    rng = random.Random(seed)
    candidates: Dict[str, Tuple[ExperimentSpec, Dict[str, Any]]] = {}
    for specs, rows in loop["history"][:loop["hashed_jobs"]]:
        for spec, (key, summary) in zip(specs, rows):
            candidates[key] = (spec, summary)
    if workload.oracle_lowest_rate and candidates:
        lowest = min(spec.traffic.injection_rate for spec, _ in candidates.values())
        candidates = {key: item for key, item in candidates.items()
                      if item[0].traffic.injection_rate == lowest}
    errors: List[str] = []
    attempted = 0
    idle = samples = 0
    for key in rng.sample(sorted(candidates), min(ORACLE_SAMPLE, len(candidates))):
        spec, summary = candidates[key]
        attempted += 1
        expected, series = reference_summary(spec)
        if not _same(summary, expected):
            errors.append(f"reference mismatch for {key[:12]}")
        flits = series.values["in_flight_flits"]
        backlog = series.values["injection_backlog"]
        idle += sum(1 for f, b in zip(flits, backlog) if f == 0 and b == 0)
        samples += len(flits)
    if workload.service and loop["history"]:
        chosen = rng.sample(range(len(loop["history"])),
                            min(DIRECT_SAMPLE_JOBS, len(loop["history"])))
        daemon_rows = {}
        specs = []
        for index in sorted(chosen):
            job_specs, rows = loop["history"][index]
            specs += job_specs[:2]
            daemon_rows.update(rows[:2])
        for outcome in run_specs(specs, workers=1):
            attempted += 1
            if not _same(daemon_rows.get(outcome.key) or {}, outcome.summary):
                errors.append(f"daemon row differs from run_specs for {outcome.key[:12]}")
    return {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "idle_cycle_share": idle / samples if samples else 0.0,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process and every child it waited for."""
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def policy_means(loop: Dict[str, Any], column: str) -> Dict[str, float]:
    """Mean of one summary column per policy over every finished spec."""
    values: Dict[str, List[float]] = {}
    for specs, rows in loop["history"]:
        for spec, (_, summary) in zip(specs, rows):
            value = summary.get(column)
            if isinstance(value, (int, float)) and value == value and abs(value) != float("inf"):
                values.setdefault(spec.policy.name, []).append(value)
    return {policy: sum(v) / len(v) for policy, v in values.items()}


def traffic_digest(spec: ExperimentSpec) -> str:
    """Content hash of the traffic matrix a spec's pattern builds."""
    pattern = spec.traffic.build(spec.placement.resolve(), seed=spec.sim.seed)
    blob = repr(sorted(pattern.traffic_matrix().items()))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
