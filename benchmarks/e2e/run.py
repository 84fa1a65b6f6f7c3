#!/usr/bin/env python3
"""The end-to-end benchmark of record: one workload, one seed, one run.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload paper_apps --seed 1 --seconds 20
    python3 benchmarks/e2e/run.py --workload pm_knee --seed 1 --trace --out run.json
    python3 benchmarks/e2e/run.py --seed 1          # all four workloads

Each workload runs in a fresh child process with ``PYTHONHASHSEED``
derived from ``--seed``.  Untraced, the run measures set-up time (median of
seven cold starts around the loop), drives the workload's closed loop of
jobs for ``--seconds`` and prints the end-to-end metrics of BENCHMARK.json.  With
``--trace`` it spends half the budget on an untraced parallel pass and half
on a serial traced pass, and prints the per-layer metrics instead.  Either
way a sample of the results is checked against the ``reference`` kernel.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any operation failed.  ``--out FILE`` also writes the full run document
(and, traced, ``FILE.trace.json`` in Chrome trace format), which
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: Cold starts whose median is ``setup_s``.
SETUP_REPEATS = 7
#: A whole run must end within this many seconds.
RUN_LIMIT_S = 170.0

#: Per-layer metrics only the service path has; they are reported in the
#: run document but not gated, because they read 0 on the other workloads.
SERVICE_ONLY_UNITS = {
    "service.http_requests": "count",
    "service.http_s": "s",
    "service.residual_s": "s",
}


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile, the convention of ``repro.sim.stats``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_FILE, "r") as handle:
        return json.load(handle)


def environment() -> Dict[str, Any]:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        sha = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
    }


# ---------------------------------------------------------------------- #
# Child processes
# ---------------------------------------------------------------------- #
def _exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so ``finally`` blocks stop what we started."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def _stop(process: subprocess.Popen) -> None:
    """SIGTERM (the child cleans up after itself), SIGKILL if it lingers."""
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()


def _run_process(command: List[str], env: Dict[str, str], timeout: float) -> None:
    """Run a child to completion; on overrun or interruption, terminate it.

    A watchdog thread enforces the timeout, because ``Popen.wait(timeout)``
    polls in 50 ms steps and set-up times are measured around this call.
    The child shares our process group, so a signal to the group reaches
    its pool workers and daemon too.
    """
    label = " ".join(command[2:6])
    began = time.monotonic()
    process = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, _stop, (process,))
    watchdog.start()
    try:
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            _stop(process)
            process.wait()
    if code != 0 and time.monotonic() - began >= timeout:
        raise RuntimeError(f"{label} exceeded {timeout:.0f} s")
    if code != 0:
        raise RuntimeError(f"{label} exited with {code}")


def _script(*args: Any) -> List[str]:
    return [sys.executable, str(HERE / "run.py"), *[str(arg) for arg in args]]


def measure_setup(name: str, seed: int, env: Dict[str, str], workdir: Path,
                  attempts: range, tiny: bool) -> List[float]:
    """Cold-start seconds: a fresh interpreter importing ``repro.api`` and
    building the first job's specs and cache keys, or a daemon spawned
    until its first healthy ``/api/health``."""
    from e2e_workloads import WORKERS, WORKLOADS, Daemon

    workload = WORKLOADS[name]
    samples = []
    for attempt in attempts:
        began = time.perf_counter()
        if workload.service:
            daemon = Daemon(str(workdir / f"setup-{attempt}"), WORKERS, env)
            samples.append(time.perf_counter() - began)
            daemon.close()
        else:
            _run_process(_script("--setup-probe", "--workload", name, "--seed", seed,
                                 *(["--tiny"] if tiny else [])), env, 60.0)
            samples.append(time.perf_counter() - began)
    return samples


def run_child(mode: str, name: str, seed: int, seconds: float, workdir: Path,
              tiny: bool, chrome_trace: Optional[str] = None) -> Dict[str, Any]:
    """The body of a child process: one timed or traced pass."""
    if mode == "timed":
        return timed_child(name, seed, seconds, str(workdir), tiny)
    return traced_child(name, seed, seconds, str(workdir), tiny, chrome_trace)


def spawn_child(mode: str, name: str, seed: int, seconds: float, workdir: Path,
                tiny: bool, chrome_trace: Optional[str], env: Dict[str, str],
                deadline: float) -> Dict[str, Any]:
    """:func:`run_child` in a fresh interpreter with the run's environment."""
    result = workdir / f"{mode}.json"
    command = _script("--child", mode, "--workload", name, "--seed", seed,
                      "--seconds", seconds, "--workdir", workdir / mode,
                      "--result", result, *(["--tiny"] if tiny else []),
                      *(["--chrome-trace", chrome_trace] if chrome_trace else []))
    _run_process(command, env, max(1.0, deadline - time.monotonic()))
    with open(result, "r") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 setup_repeats: int = SETUP_REPEATS, chrome_trace: Optional[str] = None,
                 in_process: bool = False) -> Dict[str, Any]:
    """One run of one workload; returns the full run document.

    ``in_process`` runs the passes in this interpreter instead of fresh
    children, which lets the self-test stay fast and patch the oracle.
    """
    from e2e_workloads import child_env

    deadline = time.monotonic() + RUN_LIMIT_S
    hash_seed = seed % 2 ** 32
    env = child_env(hash_seed)
    workdir = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def child(mode: str, budget: float, chrome: Optional[str] = None) -> Dict[str, Any]:
        if in_process:
            return json.loads(json.dumps(
                run_child(mode, name, seed, budget, workdir / mode, tiny, chrome)))
        return spawn_child(mode, name, seed, budget, workdir, tiny, chrome, env, deadline)

    document: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "pythonhashseed": hash_seed,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(),
    }
    try:
        if trace:
            timed = child("timed", seconds / 2)
            traced = child("traced", seconds / 2, chrome_trace)
            parts = [timed, traced]
            computed = dict(traced["layers"],
                            **{"exec.parallel_efficiency": timed["parallel_efficiency"]})
            if timed["results_sha256"] != traced["results_sha256"]:
                traced["errors"].append("serial traced rows differ from the parallel run")
                traced["failed"] += 1
            document["results_sha256"] = timed["results_sha256"]
        else:
            # Cold starts on both sides of the loop, so that one slow spell
            # of a shared host does not set all of them.
            before = (setup_repeats + 1) // 2
            setup = measure_setup(name, seed, env, workdir, range(before), tiny)
            timed = child("timed", seconds)
            setup += measure_setup(name, seed, env, workdir,
                                   range(before, setup_repeats), tiny)
            parts = [timed]
            latencies = timed["job_latencies_s"]
            computed = {
                "specs_per_s": statistics.median(
                    cold / latency for cold, latency in zip(timed["job_cold_specs"], latencies)),
                "jobs_per_s": timed["jobs"] / timed["loop_s"],
                "job_p50_s": percentile(latencies, 50),
                "job_p90_s": percentile(latencies, 90),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": timed["peak_rss_mb"],
            }
            document["setup_samples_s"] = setup
            document["results_sha256"] = timed["results_sha256"]
        document["children"] = parts
        document["attempted"] = sum(part["attempted"] for part in parts)
        document["failed"] = sum(part["failed"] for part in parts)
        document["errors"] = [error for part in parts for error in part["errors"]]
        kind = "per_layer" if trace else "end_to_end"
        document["metrics"] = {
            entry["name"]: {"value": computed[entry["name"]], "unit": entry["unit"]}
            for entry in load_benchmark()[kind]
        }
        document["service_metrics"] = {
            metric: {"value": computed[metric], "unit": unit}
            for metric, unit in SERVICE_ONLY_UNITS.items() if metric in computed
        }
    except Exception as error:
        document.setdefault("attempted", 1)
        document["failed"] = document.get("failed", 0) + 1
        document.setdefault("errors", []).append(f"{type(error).__name__}: {error}")
        document.setdefault("metrics", {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document["correct"] = document["failed"] == 0
    document["error_ratio"] = document["failed"] / max(1, document["attempted"])
    return document


def result_line(document: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON object printed as the last line of standard output."""
    return {
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": document["metrics"],
    }


def print_document(document: Dict[str, Any]) -> None:
    name = document["workload"]
    rows = dict(document["metrics"], **document.get("service_metrics", {}))
    for metric, entry in rows.items():
        print(f"{name:14s} {metric:44s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{name:14s} {'error_ratio':44s} {document['error_ratio']:>16.6g} "
          f"({document['failed']}/{document['attempted']})")
    if document.get("results_sha256"):
        print(f"{name:14s} {'results_sha256':44s} {document['results_sha256']}")
    for error in document.get("errors", []):
        print(f"{name:14s} error: {error}", file=sys.stderr)


# ---------------------------------------------------------------------- #
# Child entry points
# ---------------------------------------------------------------------- #
def timed_child(name: str, seed: int, seconds: float, workdir: str,
                tiny: bool) -> Dict[str, Any]:
    from e2e_workloads import WORKERS, WORKLOADS, check_oracle, drive, open_jobs, peak_rss_mb

    workload = WORKLOADS[name]
    jobs = open_jobs(workload, workdir, WORKERS)
    try:
        loop = drive(workload, jobs, seed, seconds, tiny)
        loop["parallel_efficiency"] = jobs.parallel_efficiency(loop["loop_s"])
    finally:
        jobs.close()
    loop["peak_rss_mb"] = peak_rss_mb()
    return _with_oracle(loop, check_oracle(workload, loop, seed))


def traced_child(name: str, seed: int, seconds: float, workdir: str, tiny: bool,
                 chrome_trace: Optional[str] = None) -> Dict[str, Any]:
    from e2e_layers import (
        LayerTracer, current_tid, empty_span_cost_s, engine_busy_s, layer_metrics,
    )
    from e2e_workloads import WORKLOADS, check_oracle, drive, open_jobs, policy_means
    from repro.api import chrome_trace_document

    workload = WORKLOADS[name]
    span_cost = empty_span_cost_s()
    jobs = open_jobs(workload, workdir, 1, in_process=True)
    try:
        with LayerTracer() as layers:
            loop = drive(workload, jobs, seed, seconds, tiny)
            spans = layers.spans()
    finally:
        jobs.close()
    metrics = layer_metrics(spans, loop["loop_s"], current_tid(), span_cost)
    metrics["resubmit_p50_s"] = statistics.median(loop["resubmit_latencies_s"])
    # Job time outside the engine: HTTP, queue and claim polling.  Client
    # HTTP time is not subtracted, because request threads share the
    # daemon's interpreter with the worker and so overlap engine time.
    metrics["service.residual_s"] = (
        sum(loop["job_latencies_s"]) - engine_busy_s(spans) if workload.service else 0.0
    )
    latency = policy_means(loop, "average_latency")
    energy = policy_means(loop, "energy_per_flit")
    metrics["routing.adele_vs_elevator_first_latency_pct"] = _pct(
        latency, "adele", "elevator_first")
    metrics["routing.adele_vs_cda_latency_pct"] = _pct(latency, "adele", "cda")
    metrics["energy.adele_vs_elevator_first_pct"] = _pct(energy, "adele", "elevator_first")
    metrics["traffic.cross_process_identical"] = cross_process_identical(name, seed, tiny)
    if chrome_trace:
        with open(chrome_trace, "w") as handle:
            json.dump(chrome_trace_document(spans), handle)
    oracle = check_oracle(workload, loop, seed)
    metrics["sim.idle_cycle_share"] = oracle["idle_cycle_share"]
    loop["layers"] = metrics
    return _with_oracle(loop, oracle)


def cross_process_identical(name: str, seed: int, tiny: bool) -> float:
    """1.0 when two interpreters with different ``PYTHONHASHSEED`` build the
    same traffic matrix for the workload's first spec, else 0.0."""
    from e2e_workloads import child_env

    hash_seed = int(os.environ.get("PYTHONHASHSEED", "0"))
    command = _script("--traffic-digest", "--workload", name, "--seed", seed,
                      *(["--tiny"] if tiny else []))
    processes = [
        subprocess.Popen(command, env=child_env((hash_seed + offset) % 2 ** 32),
                         stdout=subprocess.PIPE, text=True)
        for offset in (0, 1)
    ]
    digests = {process.communicate(timeout=60)[0].strip() for process in processes}
    if any(process.returncode for process in processes):
        raise RuntimeError("traffic digest process failed")
    return float(len(digests) == 1)


def _pct(means: Dict[str, float], policy: str, baseline: str) -> float:
    if policy not in means or not means.get(baseline):
        return 0.0
    return (means[policy] - means[baseline]) / means[baseline] * 100.0


def _with_oracle(loop: Dict[str, Any], oracle: Dict[str, Any]) -> Dict[str, Any]:
    loop.pop("history")
    loop["oracle"] = oracle
    loop["attempted"] += oracle["attempted"]
    loop["failed"] += oracle["failed"]
    loop["errors"] += oracle["errors"]
    return loop


# ---------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--out", default=None, help="write the full run document here")
    # Internal: the child processes the run starts, and the self-test's sizes.
    parser.add_argument("--child", choices=("timed", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--chrome-trace", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traffic-digest", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: {SRC / 'repro'} is missing; run the benchmark from a "
              "checkout of the whole repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _exit_on_sigterm()
    from e2e_workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}")

    if args.setup_probe:
        from repro.api import config_key, key_extra_for

        extra = key_extra_for(None)
        for spec in WORKLOADS[names[0]].jobs(args.seed, 0, args.tiny):
            config_key(spec, extra=extra)
        return 0
    if args.traffic_digest:
        from e2e_workloads import traffic_digest

        print(traffic_digest(WORKLOADS[names[0]].jobs(args.seed, 0, args.tiny)[0]))
        return 0
    if args.child:
        result = run_child(args.child, names[0], args.seed, args.seconds, Path(args.workdir),
                           args.tiny, args.chrome_trace)
        with open(args.result, "w") as handle:
            json.dump(result, handle)
        return 0

    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    documents = []
    for name in names:
        chrome = None
        if args.out and args.trace:
            chrome = f"{args.out}.{name}.trace.json" if len(names) > 1 else f"{args.out}.trace.json"
        document = run_workload(name, args.seed, seconds, bool(args.trace),
                                tiny=args.tiny, chrome_trace=chrome)
        documents.append(document)
        print_document(document)
        print(json.dumps(result_line(document)), flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(documents[0] if len(documents) == 1 else documents, handle, indent=1)
    return exit_status(documents)


def exit_status(documents: List[Dict[str, Any]]) -> int:
    """0 when every operation of every run succeeded, else 1."""
    return 0 if all(document["correct"] for document in documents) else 1


if __name__ == "__main__":
    sys.exit(main())
