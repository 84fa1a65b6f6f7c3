"""Front-quality benchmark: hypervolume + coverage across offline optimizers.

The perf benches track optimizer *throughput* (iterations/second); this one
tracks front *quality* at comparable evaluation budgets, closing the "only
throughput is tracked" gap: ``amosa`` runs first and its exact evaluation
count becomes the budget handed to ``random-search``; ``greedy-swap`` has no
budget knob (it terminates when no single-router move improves), so its
actual count is reported alongside.  For every optimizer pair the script
computes

* **hypervolume** (2D, minimization) against a shared reference point set
  5% beyond the worst objective values over the union of all fronts, and
* **coverage** ``C(A, B)`` -- the fraction of B's front weakly dominated by
  a point of A (Zitzler's C-metric).

Run it directly (tiny budget for a CI smoke, defaults for a real number)::

    PYTHONPATH=src python benchmarks/bench_optimizer_quality.py
    PYTHONPATH=src python benchmarks/bench_optimizer_quality.py \
        --iterations 10 --max-subset-size 2

Results land in ``benchmarks/results/BENCH_optimizer_quality.json``.
Expected shape: AMOSA's hypervolume is at least random search's at the same
budget (asserted), and its front covers most of the random front.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List, Sequence, Tuple

from repro.analysis.runner import design_for
from repro.core.pipeline import AdEleDesign
from repro.spec import DesignSpec
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULT_FILE = os.path.join(RESULTS_DIR, "BENCH_optimizer_quality.json")

Point = Tuple[float, float]


def nondominated(points: Sequence[Point]) -> List[Point]:
    """The non-dominated subset, sorted by the first objective."""
    front: List[Point] = []
    best_y = float("inf")
    for x, y in sorted(set(points)):
        if y < best_y:
            front.append((x, y))
            best_y = y
    return front


def hypervolume_2d(points: Sequence[Point], ref: Point) -> float:
    """Dominated hypervolume of a 2-objective minimization front."""
    area = 0.0
    prev_y = ref[1]
    for x, y in nondominated(points):
        if x >= ref[0] or y >= prev_y:
            continue
        area += (ref[0] - x) * (prev_y - y)
        prev_y = y
    return area


def dominates(a: Point, b: Point) -> bool:
    """Weak Pareto dominance (minimization)."""
    return a[0] <= b[0] and a[1] <= b[1] and a != b


def coverage(front_a: Sequence[Point], front_b: Sequence[Point]) -> float:
    """Zitzler's C(A, B): share of B weakly dominated by (or equal to) A."""
    if not front_b:
        return 0.0
    covered = sum(
        1
        for b in front_b
        if any(a == b or dominates(a, b) for a in front_a)
    )
    return covered / len(front_b)


def run_benchmark(args: argparse.Namespace) -> Dict:
    placement = ElevatorPlacement(
        Mesh3D(*args.mesh), [tuple(c) for c in args.columns], name="quality-bench"
    )

    fronts: Dict[str, List[Point]] = {}
    evaluations: Dict[str, int] = {}

    def run(optimizer: str, options: Dict) -> AdEleDesign:
        spec = DesignSpec(
            optimizer=optimizer, options=options, max_subset_size=args.max_subset_size
        )
        return design_for(spec, placement)

    # AMOSA first: its exact evaluation count becomes the shared budget.
    amosa = run(
        "amosa", {"iterations_per_temperature": args.iterations, "seed": args.seed}
    )
    fronts["amosa"] = [tuple(p) for p in amosa.pareto_points()]
    evaluations["amosa"] = amosa.result.evaluations
    budget = amosa.result.evaluations

    random_design = run("random-search", {"evaluations": budget, "seed": args.seed})
    fronts["random-search"] = [tuple(p) for p in random_design.pareto_points()]
    evaluations["random-search"] = random_design.result.evaluations

    greedy = run("greedy-swap", {"seed": args.seed})
    fronts["greedy-swap"] = [tuple(p) for p in greedy.pareto_points()]
    evaluations["greedy-swap"] = greedy.result.evaluations

    union = [p for front in fronts.values() for p in front]
    ref = (
        1.05 * max(p[0] for p in union) + 1e-9,
        1.05 * max(p[1] for p in union) + 1e-9,
    )

    rows = []
    for name, front in fronts.items():
        rows.append(
            {
                "optimizer": name,
                "evaluations": evaluations[name],
                "budget_matched": name != "greedy-swap",
                "front": [list(p) for p in sorted(front)],
                "hypervolume": hypervolume_2d(front, ref),
                "coverage": {
                    other: coverage(front, fronts[other])
                    for other in fronts
                    if other != name
                },
            }
        )

    print(f"reference point: ({ref[0]:.6g}, {ref[1]:.6g})")
    for row in rows:
        budget_note = "" if row["budget_matched"] else " (own budget)"
        print(
            f"{row['optimizer']:14s} evals={row['evaluations']:6d}{budget_note:14s} "
            f"front={len(row['front']):3d}  hypervolume={row['hypervolume']:.6g}  "
            + "  ".join(
                f"C(vs {other})={value:.2f}"
                for other, value in sorted(row["coverage"].items())
            )
        )

    hv = {row["optimizer"]: row["hypervolume"] for row in rows}
    # At real budgets the structured search must beat random sampling; tiny
    # smoke budgets (CI) can catch AMOSA before it has annealed, so the
    # check only binds once the budget is meaningful.
    if budget >= 1000:
        assert hv["amosa"] >= hv["random-search"] - 1e-12, (
            "AMOSA lost to random search at an equal evaluation budget: "
            f"{hv['amosa']:.6g} < {hv['random-search']:.6g}"
        )
    else:
        print(f"(budget {budget} < 1000: quality assertion skipped)")

    return {
        "mesh": list(args.mesh),
        "columns": [list(c) for c in args.columns],
        "max_subset_size": args.max_subset_size,
        "seed": args.seed,
        "amosa_iterations_per_temperature": args.iterations,
        "shared_budget": budget,
        "reference_point": list(ref),
        "rows": rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mesh", nargs=3, type=int, default=(4, 4, 4))
    parser.add_argument(
        "--columns", default="1,1;2,2;3,0",
        help='elevator columns, e.g. "1,1;2,2;3,0"',
    )
    parser.add_argument("--max-subset-size", type=int, default=3)
    parser.add_argument(
        "--iterations", type=int, default=40,
        help="AMOSA iterations per temperature level (scales the budget)",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    args.mesh = tuple(args.mesh)
    args.columns = [
        tuple(int(v) for v in part.split(","))
        for part in args.columns.split(";")
        if part.strip()
    ]

    payload = run_benchmark(args)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(RESULT_FILE, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {RESULT_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
