"""Quickstart: simulate a PC-3DNoC and compare elevator-selection policies.

Builds the paper's PS1 configuration (4x4x4 mesh, three elevators), runs
AdEle's offline optimization, then simulates Elevator-First, CDA and AdEle
under uniform traffic at a moderate injection rate and prints a comparison
table (latency, energy per flit, normalized to Elevator-First).

Run with:  python examples/quickstart.py

For batched / parallel / disk-cached execution of whole experiment grids,
see examples/parallel_sweep.py and the ``python -m repro`` CLI.
"""

from __future__ import annotations

from repro import standard_placement
from repro.analysis.comparison import format_table, policy_comparison_table
from repro.api import (
    DesignSpec,
    ExperimentSpec,
    PlacementSpec,
    SimSpec,
    TrafficSpec,
    design_for,
    run,
)


def main() -> None:
    placement = standard_placement("PS1")
    print(f"Placement {placement.name}: mesh {placement.mesh.shape}, "
          f"{placement.num_elevators} elevators at {placement.columns()}")

    # Offline stage: AMOSA finds per-router elevator subsets (cached for the
    # AdEle runs below, which resolve the same default DesignSpec).  This is
    # the paper's Fig. 1 offline box.
    design = design_for(DesignSpec(), placement)
    print(f"Offline optimization: {len(design.result.archive)} Pareto points, "
          f"selected solution objectives = "
          f"(variance={design.selected.objectives[0]:.3f}, "
          f"distance={design.selected.objectives[1]:.3f})")

    # Online stage: simulate each policy under the same workload.
    base = ExperimentSpec(
        placement=PlacementSpec(name="PS1"),
        traffic=TrafficSpec(pattern="uniform", injection_rate=0.004),
        sim=SimSpec(warmup_cycles=300, measurement_cycles=1500,
                    drain_cycles=800, seed=1),
    )
    results = {}
    for policy in ("elevator_first", "cda", "adele"):
        print(f"Simulating {policy} ...")
        results[policy] = run(base.with_(policy=policy))

    table = policy_comparison_table(results, baseline="elevator_first")
    print()
    print(format_table(table))
    print()
    for policy, result in results.items():
        print(f"{policy:15s} delivered {result.delivered_packets} packets, "
              f"throughput {result.throughput:.4f} flits/node/cycle, "
              f"energy {result.energy_per_flit * 1e9:.3f} nJ/flit")


if __name__ == "__main__":
    main()
