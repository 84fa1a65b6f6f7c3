"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the AdEle paper.  Runs
are kept short enough for the whole suite to finish in minutes on a laptop;
the *shape* of the results (who wins, by roughly what factor) is what the
reproduction targets, not absolute cycle counts.

Each bench writes its reproduction rows both to stdout and to
``benchmarks/results/<name>.txt`` so they survive pytest's output capture.

Execution routes through the parallel experiment engine (:mod:`repro.exec`):
set ``REPRO_BENCH_WORKERS=N`` to fan simulations out over N processes and
``REPRO_BENCH_CACHE=DIR`` to persist summary rows and AdEle offline designs
in that directory's SQLite store so repeated bench runs skip finished work.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence

import pytest

from repro.exec.batch import ExperimentBatch, ExperimentOutcome
from repro.exec.cache import close_caches, open_caches
from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Engine knobs shared by every bench (see module docstring).
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE") or None

#: Caches shared by every bench of a pytest run: memory-only by default, the
#: directory's store when ``REPRO_BENCH_CACHE`` is set (shared across bench
#: files and re-runs).
RESULT_CACHE, DESIGN_CACHE = open_caches(_CACHE_DIR)


def pytest_sessionfinish(session, exitstatus) -> None:
    """Close the shared caches' store once every bench has run."""
    close_caches(RESULT_CACHE, DESIGN_CACHE)


def run_grid(specs: Sequence[ExperimentSpec]) -> List[ExperimentOutcome]:
    """Run a spec grid through the shared experiment engine."""
    batch = ExperimentBatch(
        specs,
        workers=WORKERS,
        result_cache=RESULT_CACHE,
        design_cache=DESIGN_CACHE,
    )
    return batch.run()


def make_spec(
    placement: str,
    policy: str = "adele",
    traffic: str = "uniform",
    rate: float = 0.004,
    seed: int = 1,
    cycles: Optional[dict] = None,
) -> ExperimentSpec:
    """One bench experiment as a typed spec (cycles: the *_MESH_CYCLES dicts)."""
    return ExperimentSpec(
        placement=PlacementSpec(name=placement),
        policy=PolicySpec(name=policy),
        traffic=TrafficSpec(pattern=traffic, injection_rate=rate),
        sim=SimSpec(seed=seed, **(cycles or {})),
    )

#: Simulation windows per mesh scale, chosen so the full benchmark suite
#: completes in minutes while still spanning several thousand packets.
SMALL_MESH_CYCLES = {"warmup_cycles": 300, "measurement_cycles": 1000, "drain_cycles": 600}
LARGE_MESH_CYCLES = {"warmup_cycles": 200, "measurement_cycles": 600, "drain_cycles": 400}

#: Injection-rate grids (packets/node/cycle) mirroring the x-axes of Fig. 4.
RATES_PS = [0.001, 0.003, 0.005]
RATES_PM = [0.001, 0.003, 0.004]

#: The three policies every figure compares, in the paper's order.
POLICIES = ["elevator_first", "cda", "adele"]


def record_rows(name: str, rows: Iterable[str]) -> None:
    """Print reproduction rows and persist them under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    lines = list(rows)
    text = "\n".join(lines)
    print(f"\n=== {name} ===")
    print(text)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")


@pytest.fixture(scope="session")
def results_dir() -> str:
    """Directory where benchmark reproduction rows are stored."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR
