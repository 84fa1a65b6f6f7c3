"""Offline-stage micro-benchmark: AMOSA evaluation modes and table build.

The companion of ``bench_perf_kernel.py`` for the *offline* stage, in two
sections:

* AMOSA iterations/second: the same search runs twice on the 4x4x3
  benchmark mesh -- once with the full-recompute
  :class:`~repro.core.objectives.ObjectiveEvaluator` (each candidate pays
  O(N * |A|)) and once with the incremental
  :class:`~repro.core.objectives.DeltaObjectiveEvaluator` (each
  perturbation pays O(changed-router + E)).  The two runs must produce
  **bit-identical Pareto archives** (the evaluators' exactly-rounded-sum
  contract means the annealing trajectories cannot diverge).
* Distance-table build: best-of-N ``ObjectiveEvaluator`` construction on
  the paper's ``PM`` placement (8x8x4, 8 elevators), unweighted and
  traffic-weighted.  The tables must equal, bit for bit, those of the
  scalar ``distance_via`` loop, which is timed once beside them.

The record, with the host's ``cpu_count`` and Python and numpy versions,
goes to ``benchmarks/results/BENCH_perf_offline.json``.

Run it directly (tiny schedule for a CI smoke, defaults for a real number)::

    PYTHONPATH=src python benchmarks/bench_perf_offline.py
    PYTHONPATH=src python benchmarks/bench_perf_offline.py \
        --iterations 10 --repeats 1

Expected shape: the incremental evaluator yields >= 5x AMOSA iteration
throughput at the default settings (the gap grows with mesh size, since the
full evaluator scales with router count and the incremental one does not),
and the PM tables build in well under 0.1 s, against seconds for the
scalar loop.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Dict

import numpy

from repro.core.amosa import AmosaConfig, AmosaOptimizer
from repro.core.objectives import ObjectiveEvaluator
from repro.core.subset_search import ElevatorSubsetProblem
from repro.topology.elevators import ElevatorPlacement, standard_placement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.patterns import UniformTraffic

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULT_FILE = os.path.join(RESULTS_DIR, "BENCH_perf_offline.json")

MESH = (4, 4, 3)
#: The four corner columns -- the canonical symmetric layout for the bench
#: mesh (the kernel bench uses the same corner style).  Symmetry lets the
#: search converge to the perfectly balanced ideal point, so the archive is
#: small and the timing isolates evaluation cost.
ELEVATOR_COLUMNS = ((0, 0), (3, 3), (0, 3), (3, 0))
MAX_SUBSET_SIZE = 4
MODES = ("full", "incremental")
#: Placement of the table-build section, and its two Eq. 5 weightings.
TABLE_PLACEMENT = "PM"
TABLE_MODES = (("unweighted", False), ("traffic_weighted", True))


def make_config(args: argparse.Namespace) -> AmosaConfig:
    return AmosaConfig(
        initial_temperature=50.0,
        final_temperature=0.05,
        cooling_rate=0.85,
        iterations_per_temperature=args.iterations,
        hard_limit=20,
        soft_limit=40,
        initial_solutions=10,
        seed=args.seed,
    )


def make_problem(incremental: bool) -> ElevatorSubsetProblem:
    mesh = Mesh3D(*MESH)
    placement = ElevatorPlacement(mesh, list(ELEVATOR_COLUMNS), name="bench-4x4x3")
    traffic = UniformTraffic(mesh).traffic_matrix()
    return ElevatorSubsetProblem(
        placement, traffic, max_subset_size=MAX_SUBSET_SIZE, incremental=incremental
    )


def time_modes(config: AmosaConfig, args: argparse.Namespace) -> Dict[str, Dict]:
    """Best-of-N wall-clock timing of both evaluation modes.

    Repeats are interleaved (full, incremental, full, incremental, ...) so
    transient machine load hits both arms equally instead of biasing one.
    """
    problems = {
        mode: make_problem(incremental=(mode == "incremental")) for mode in MODES
    }
    seed_sets = {}
    for mode, problem in problems.items():
        # The same heuristic seeding optimize_elevator_subsets uses.
        seeds = [problem.nearest_elevator_solution(), problem.full_subset_solution()]
        for k in range(2, min(problem.max_subset_size, problem.num_elevators) + 1):
            seeds.append(problem.nearest_k_solution(k))
        seed_sets[mode] = seeds
    best = {mode: float("inf") for mode in MODES}
    results = {}
    for _ in range(args.repeats):
        for mode in MODES:
            start = time.perf_counter()
            results[mode] = AmosaOptimizer(problems[mode], config=config).run(
                seeds=seed_sets[mode]
            )
            best[mode] = min(best[mode], time.perf_counter() - start)
    iterations = config.total_iterations()
    return {
        mode: {
            "mode": mode,
            "seconds": best[mode],
            "iterations": iterations,
            "iterations_per_second": (
                iterations / best[mode] if best[mode] > 0 else float("inf")
            ),
            "evaluations": results[mode].evaluations,
            "accepted_moves": results[mode].accepted_moves,
            "archive_size": len(results[mode].archive),
            "pareto_front": sorted(results[mode].pareto_objectives()),
            # Full archive fingerprint (objectives + per-router subsets, in
            # archive order) -- the bit-identity check compares these, not
            # just the front objectives.
            "archive": [
                {
                    "objectives": list(entry.objectives),
                    "subsets": {
                        str(node): list(subset)
                        for node, subset in sorted(entry.solution.subsets().items())
                    },
                }
                for entry in results[mode].archive
            ],
        }
        for mode in MODES
    }


def brute_force_tables(placement, traffic, weighted):
    """The Eq. 4/5 tables from one scalar ``distance_via`` call per
    (source, destination, elevator): the result the numpy build must match."""
    mesh = placement.mesh
    distance_sum = {}
    distance_weight = {}
    for src in mesh.nodes():
        sums = [0.0] * placement.num_elevators
        weight_total = 0.0
        for dst in mesh.nodes():
            if dst == src or mesh.same_layer(src, dst):
                continue
            weight = 1.0
            if weighted:
                weight = traffic.get((src, dst), 0.0)
                if weight == 0.0:
                    continue
            weight_total += weight
            for elevator in placement.elevators:
                sums[elevator.index] += weight * placement.distance_via(
                    src, dst, elevator
                )
        distance_sum[src] = sums
        distance_weight[src] = weight_total
    return distance_sum, distance_weight


def time_table_build(args: argparse.Namespace) -> Dict:
    """Best-of-N evaluator construction on PM, checked against the scalar loop.

    The check compares ``repr`` strings, which pins every float's bits and
    its Python ``float`` type.
    """
    placement = standard_placement(TABLE_PLACEMENT)
    traffic = UniformTraffic(placement.mesh).traffic_matrix()
    cells = []
    for mode, weighted in TABLE_MODES:
        best = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            evaluator = ObjectiveEvaluator(
                placement, traffic, weight_distance_by_traffic=weighted
            )
            best = min(best, time.perf_counter() - start)
        start = time.perf_counter()
        expected = brute_force_tables(placement, traffic, weighted)
        loop_seconds = time.perf_counter() - start
        if repr((evaluator.distance_sum, evaluator._distance_weight)) != repr(expected):
            raise SystemExit(
                f"{mode} distance tables differ from the scalar distance_via loop"
            )
        cells.append(
            {
                "mode": mode,
                "seconds": best,
                "scalar_loop_seconds": loop_seconds,
                "speedup_vs_scalar_loop": loop_seconds / best if best > 0 else float("inf"),
            }
        )
        print(
            f"tables {mode:<16} {best:.4f}s   (scalar loop {loop_seconds:.3f}s, "
            f"{cells[-1]['speedup_vs_scalar_loop']:.1f}x, bit-identical)"
        )
    return {
        "placement": TABLE_PLACEMENT,
        "mesh": list(placement.mesh.shape),
        "num_elevators": placement.num_elevators,
        "repeats": args.repeats,
        "results": cells,
        "tables_bit_identical": True,
    }


def run_benchmark(args: argparse.Namespace) -> Dict:
    config = make_config(args)
    cells = time_modes(config, args)
    full, incremental = cells["full"], cells["incremental"]
    # Bit-identity contract: identical trajectories all the way down --
    # same evaluation/acceptance counts and the same archive (objectives
    # AND per-router subsets, in order), not merely the same front shape.
    for field in ("evaluations", "accepted_moves", "archive_size", "archive"):
        if full[field] != incremental[field]:
            raise SystemExit(
                f"evaluation modes diverged in {field!r} (bit-identity "
                f"contract broken): {full[field]!r} != {incremental[field]!r}"
            )
    speedup = (
        full["seconds"] / incremental["seconds"]
        if incremental["seconds"] > 0
        else float("inf")
    )
    print(
        f"full        {full['iterations_per_second']:>10.0f} iterations/s"
        f"   ({full['seconds']:.3f}s, archive {full['archive_size']})"
    )
    print(
        f"incremental {incremental['iterations_per_second']:>10.0f} iterations/s"
        f"   ({incremental['seconds']:.3f}s, archive {incremental['archive_size']})"
    )
    print(f"speedup {speedup:.2f}x (bit-identical archives)")
    table_build = time_table_build(args)
    return {
        "benchmark": "perf_offline",
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "table_build": table_build,
        "mesh": list(MESH),
        "elevator_columns": [list(c) for c in ELEVATOR_COLUMNS],
        "max_subset_size": MAX_SUBSET_SIZE,
        "optimizer": "amosa",
        "amosa": {
            "initial_temperature": config.initial_temperature,
            "final_temperature": config.final_temperature,
            "cooling_rate": config.cooling_rate,
            "iterations_per_temperature": config.iterations_per_temperature,
            "hard_limit": config.hard_limit,
            "soft_limit": config.soft_limit,
            "initial_solutions": config.initial_solutions,
            "seed": config.seed,
        },
        "repeats": args.repeats,
        "results": list(cells.values()),
        "speedup": speedup,
        "archives_bit_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--iterations", type=int, default=40, metavar="N",
        help="AMOSA iterations per temperature level",
    )
    parser.add_argument("--seed", type=int, default=7, help="annealing seed")
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--out", default=RESULT_FILE, metavar="FILE",
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="X",
        help="exit non-zero unless the incremental evaluator reaches "
             "X-fold iteration throughput",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.iterations < 1:
        parser.error("--iterations must be >= 1")

    record = run_benchmark(args)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"speedup {record['speedup']:.2f}x -> {args.out}")

    if args.require_speedup is not None and record["speedup"] < args.require_speedup:
        print(
            f"FAIL: speedup {record['speedup']:.2f}x below required "
            f"{args.require_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
