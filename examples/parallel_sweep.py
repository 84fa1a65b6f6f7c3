"""Parallel, cached experiment sweeps with ``repro.exec``.

Runs a Fig. 4-style latency sweep (three policies, several injection rates
on PS1) through :class:`~repro.exec.batch.ExperimentBatch`, fanning the grid
out over worker processes and persisting every summary row -- plus AdEle's
offline design -- in a cache directory's SQLite store.  Run it twice: the second invocation
performs zero new simulations and replays bit-identical results from the
cache.

The same workflow is available from the shell:

    python -m repro sweep --placement PS1 --workers 4 \
        --cache-dir .repro-cache --rates 0.001,0.003,0.005

Run with:  python examples/parallel_sweep.py
"""

from __future__ import annotations

import os
import time

from repro import ExperimentBatch
from repro.api import (
    ExperimentSpec,
    PlacementSpec,
    SimSpec,
    TrafficSpec,
    close_caches,
    open_caches,
)

CACHE_DIR = os.path.join(os.path.dirname(__file__), ".repro-cache")
POLICIES = ("elevator_first", "cda", "adele")
RATES = (0.001, 0.003, 0.005)


def main() -> None:
    base = ExperimentSpec(
        placement=PlacementSpec(name="PS1"),
        traffic=TrafficSpec(pattern="uniform"),
        sim=SimSpec(warmup_cycles=300, measurement_cycles=1000, drain_cycles=600),
    )
    specs = [
        base.with_(policy=policy, injection_rate=rate)
        for policy in POLICIES
        for rate in RATES
    ]
    result_cache, design_cache = open_caches(CACHE_DIR)
    try:
        batch = ExperimentBatch(
            specs,
            workers=4,
            result_cache=result_cache,
            design_cache=design_cache,
            base_seed=1,  # per-task seeds derive from the config hash + 1
        )
        start = time.perf_counter()
        outcomes = batch.run()
        elapsed = time.perf_counter() - start
    finally:
        close_caches(result_cache, design_cache)
    print(
        f"{batch.last_executed} simulated, {batch.last_cached} from cache "
        f"in {elapsed:.1f}s (cache: {CACHE_DIR})"
    )
    for policy in POLICIES:
        points = "  ".join(
            f"{o.spec.traffic.injection_rate:.4f}:{o.summary['average_latency']:7.1f}"
            for o in outcomes
            if o.spec.policy.name == policy
        )
        print(f"{policy:15s} {points}")
    print("\nRe-run this script: everything will be served from the warm cache.")


if __name__ == "__main__":
    main()
