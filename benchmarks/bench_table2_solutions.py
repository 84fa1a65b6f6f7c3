"""Table II -- performance of selected solutions from the Fig. 3 front.

The paper simulates six solutions (S0..S5) spread along the PM Pareto front
plus the Elevator-First baseline and reports average latency (cycles) and
energy per flit (nJ).  The qualitative shape: moving along the front toward
lower utilization variance lowers latency at a modest energy increase, and
the chosen solution beats Elevator-First on latency by a large factor.

The PM network (8x8x4) is expensive to simulate in pure Python, so the
representative count and the measurement window are reduced; the rows
printed have the same columns as Table II.
"""

from __future__ import annotations

from conftest import LARGE_MESH_CYCLES, make_spec, record_rows

from repro.analysis.runner import build_packet_source, design_for
from repro.energy.model import EnergyModel
from repro.routing.elevator_first import ElevatorFirstPolicy
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.spec import DesignSpec
from repro.topology.elevators import standard_placement

#: Injection rate used to compare the selected solutions (moderate load on PM).
TABLE2_RATE = 0.004
#: How many representative solutions to simulate (paper: 6, S0..S5).
NUM_SOLUTIONS = 4


def _simulate(placement, policy, seed=0):
    spec = make_spec(
        "PM", traffic="uniform", rate=TABLE2_RATE, seed=seed,
        cycles=LARGE_MESH_CYCLES,
    )
    network = Network(placement, policy)
    source = build_packet_source(spec, placement)
    simulator = Simulator(
        network, source, spec.sim.warmup_cycles, spec.sim.measurement_cycles,
        spec.sim.drain_cycles, EnergyModel(),
    )
    return simulator.run()


def _run_table2():
    placement = standard_placement("PM")
    design = design_for(DesignSpec(), placement)
    rows = ["solution   util_var  avg_dist  latency_cycles  energy_nj_per_flit"]
    results = {}

    baseline = _simulate(placement, ElevatorFirstPolicy(placement))
    results["ElevFirst"] = baseline
    rows.append(
        f"ElevFirst  {design.baseline_objectives[0]:8.3f}  {design.baseline_objectives[1]:8.3f}"
        f"  {baseline.average_latency:14.1f}  {baseline.energy_per_flit * 1e9:18.3f}"
    )

    # Sample the representatives across the whole front (both the variance-
    # optimized and the distance-optimized ends), as the paper's S0..S5 do.
    ordered_all = sorted(design.representatives, key=lambda e: e.objectives[0])
    if len(ordered_all) <= NUM_SOLUTIONS:
        ordered = ordered_all
    else:
        step = (len(ordered_all) - 1) / (NUM_SOLUTIONS - 1)
        ordered = [ordered_all[round(i * step)] for i in range(NUM_SOLUTIONS)]
    knee = design.knee()
    if knee not in ordered:
        ordered.insert(len(ordered) // 2, knee)
    for index, entry in enumerate(ordered):
        policy = design.to_policy(entry=entry, seed=1)
        result = _simulate(placement, policy, seed=1)
        results[f"S{index}"] = result
        rows.append(
            f"S{index}         {entry.objectives[0]:8.3f}  {entry.objectives[1]:8.3f}"
            f"  {result.average_latency:14.1f}  {result.energy_per_flit * 1e9:18.3f}"
        )
    return results, rows


def test_table2_selected_solutions(benchmark):
    results, rows = benchmark.pedantic(_run_table2, rounds=1, iterations=1)
    record_rows("table2_solutions", rows)

    baseline = results["ElevFirst"]
    optimized = [value for key, value in results.items() if key != "ElevFirst"]
    # Table II shape: at least one optimized solution matches or improves the
    # Elevator-First latency (the paper's best solution improves it ~3x; our
    # shorter PM windows keep the comparison but with noise head-room).
    best = min(result.average_latency for result in optimized)
    assert best <= baseline.average_latency * 1.1
    # Energy stays within a modest overhead band (paper: <= ~4 % for S5;
    # allow head-room because our energy model and windows are smaller).
    best_result = min(optimized, key=lambda result: result.average_latency)
    assert best_result.energy_per_flit <= baseline.energy_per_flit * 1.35
