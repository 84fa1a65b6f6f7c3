"""Replica-batching throughput benchmark (specs/second, grouped vs solo).

Standalone script (like ``bench_perf_sweep.py``) establishing the payoff
of the batched replica path:

* **Sequential baseline** -- a 16-seed replica grid (one structural spec,
  per-spec seeds) through :class:`~repro.exec.batch.ExperimentBatch` on
  the ``vectorized`` backend, one kernel invocation per spec, cold cache.
* **Batched run** -- the same grid with ``replica_batch=16``: all 16
  seed-replicas coalesce into a single multi-replica kernel pass over one
  flat array (plus the warm-worker setup memo sharing route tables).
* **Bit-identity check** -- the grouped run's cache must be byte-identical
  to the sequential baseline's (grouping is pure scheduling; the bench
  fails hard if any byte differs).

Everything lands in ``benchmarks/results/BENCH_perf_replicas.json``.

Run directly (tiny windows for a smoke, defaults for a real number)::

    PYTHONPATH=src python benchmarks/bench_perf_replicas.py
    PYTHONPATH=src python benchmarks/bench_perf_replicas.py \
        --seeds 8 --measure 150

``--require-speedup X`` exits 1 unless batched specs/s >= X * sequential;
CI passes ``1``: grouping must never be slower than solo runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time
from typing import Dict, List

from repro.exec.batch import ExperimentBatch, clear_setup_memo
from repro.exec.cache import ResultCache
from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULT_FILE = os.path.join(RESULTS_DIR, "BENCH_perf_replicas.json")

MESH = (3, 3, 2)
ELEVATOR_COLUMNS = ((0, 0), (2, 2))
POLICY = "elevator_first"
INJECTION_RATE = 0.004


def build_grid(args: argparse.Namespace) -> List[ExperimentSpec]:
    # Per-spec seeds, deliberately NOT a base_seed: derived seeds collapse
    # seed-only grids into one deduplicated task, which is exactly the
    # workload replica batching does *not* target.  The multi-seed
    # confidence-interval sweep keeps every seed as its own spec.
    return [
        ExperimentSpec(
            placement=PlacementSpec(
                name="bench-replicas", mesh=MESH, columns=ELEVATOR_COLUMNS
            ),
            policy=PolicySpec(name=POLICY),
            traffic=TrafficSpec(pattern="uniform", injection_rate=INJECTION_RATE),
            sim=SimSpec(
                warmup_cycles=args.warmup,
                measurement_cycles=args.measure,
                drain_cycles=args.drain,
                seed=100 + seed_index,
                backend="vectorized",
            ),
        )
        for seed_index in range(args.seeds)
    ]


def _cache_files(directory: str) -> List[str]:
    return sorted(
        name for name in os.listdir(directory)
        if not name.startswith("manifest-")
    )


def _run(
    grid: List[ExperimentSpec], cache_dir: str, replica_batch: int
) -> Dict[str, float]:
    """One cold run of the grid; replica_batch=1 is the sequential path."""
    clear_setup_memo()
    batch = ExperimentBatch(
        grid,
        result_cache=ResultCache(cache_dir),
        replica_batch=replica_batch if replica_batch > 1 else None,
    )
    start = time.perf_counter()
    batch.run()
    elapsed = time.perf_counter() - start
    return {
        "replica_batch": replica_batch,
        "executed": batch.last_executed,
        "replica_groups": batch.last_replica_groups,
        "setup_seconds": batch.last_setup_s,
        "kernel_seconds": batch.last_kernel_s,
        "memo_hits": batch.last_memo_hits,
        "memo_misses": batch.last_memo_misses,
        "seconds": elapsed,
        "specs_per_second": len(grid) / elapsed,
    }


def bench(args: argparse.Namespace) -> Dict:
    grid = build_grid(args)
    workdir = tempfile.mkdtemp(prefix="bench-replicas-")
    try:
        # ---------------- sequential baseline ---------------- #
        solo_dir = os.path.join(workdir, "solo")
        sequential = _run(grid, solo_dir, replica_batch=1)

        # ---------------- batched run ---------------- #
        grouped_dir = os.path.join(workdir, "grouped")
        batched = _run(grid, grouped_dir, replica_batch=args.seeds)
        speedup = batched["specs_per_second"] / sequential["specs_per_second"]

        # ---------------- bit identity ---------------- #
        solo_files = _cache_files(solo_dir)
        identical = _cache_files(grouped_dir) == solo_files
        if identical:
            for name in solo_files:
                with open(os.path.join(solo_dir, name), "rb") as a, \
                        open(os.path.join(grouped_dir, name), "rb") as b:
                    if a.read() != b.read():
                        identical = False
                        break
        if not identical:
            raise SystemExit(
                "BENCH FAILURE: grouped replica cache is not byte-identical "
                "to the sequential baseline cache"
            )

        return {
            "benchmark": "perf_replicas",
            "grid_specs": len(grid),
            "mesh": list(MESH),
            "policy": POLICY,
            "injection_rate": INJECTION_RATE,
            "cycles": {
                "warmup": args.warmup,
                "measure": args.measure,
                "drain": args.drain,
            },
            "cpu_count": os.cpu_count() or 1,
            "sequential": sequential,
            "batched": batched,
            "speedup_vs_sequential": speedup,
            "bit_identical": identical,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16,
                        help="seed replicas of the one structural spec")
    parser.add_argument("--warmup", type=int, default=100)
    parser.add_argument("--measure", type=int, default=400)
    parser.add_argument("--drain", type=int, default=300)
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X",
                        help="exit 1 unless batched specs/s >= X * sequential")
    parser.add_argument("--output", default=RESULT_FILE)
    args = parser.parse_args()

    document = bench(args)
    os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    sequential = document["sequential"]
    batched = document["batched"]
    print(f"grid: {document['grid_specs']} seed replicas, "
          f"mesh {tuple(document['mesh'])}, cpu_count={document['cpu_count']}")
    print(f"sequential: {sequential['specs_per_second']:.2f} specs/s "
          f"({sequential['seconds']:.2f}s, "
          f"kernel {sequential['kernel_seconds']:.2f}s)")
    print(f"batched ({batched['replica_groups']} group(s), "
          f"width {batched['replica_batch']}): "
          f"{batched['specs_per_second']:.2f} specs/s "
          f"({batched['seconds']:.2f}s, kernel {batched['kernel_seconds']:.2f}s)")
    print(f"speedup: {document['speedup_vs_sequential']:.2f}x  "
          f"bit_identical: {document['bit_identical']}")
    print(f"wrote {args.output}")

    if args.require_speedup is not None:
        if document["speedup_vs_sequential"] < args.require_speedup:
            print(f"FAIL: speedup {document['speedup_vs_sequential']:.2f}x < "
                  f"required {args.require_speedup}x")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
