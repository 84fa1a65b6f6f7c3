"""Explore AdEle's offline latency/energy trade-off (paper Fig. 3 / Table II).

Runs the AMOSA elevator-subset optimization for a chosen placement, prints
the Pareto front (utilization variance vs. average distance), the S0..Sk
representative solutions, and then simulates a latency-leaning, a knee and
an energy-leaning solution to show the designer's trade-off in action.

Run with:  python examples/pareto_tradeoff.py [placement]
           (placement defaults to PS2; PS1-PS3 are fast, PM is larger)
"""

from __future__ import annotations

import sys

from repro import standard_placement
from repro.analysis.runner import build_packet_source
from repro.api import (
    DesignSpec,
    ExperimentSpec,
    PlacementSpec,
    SimSpec,
    TrafficSpec,
    design_for,
)
from repro.energy.model import EnergyModel
from repro.sim.engine import Simulator
from repro.sim.network import Network


def simulate_entry(design, entry, placement, injection_rate=0.004, seed=1):
    """Simulate one archive entry's subsets under uniform traffic."""
    policy = design.to_policy(entry=entry, seed=seed)
    network = Network(placement, policy)
    spec = ExperimentSpec(
        placement=PlacementSpec.from_placement(placement),
        traffic=TrafficSpec(pattern="uniform", injection_rate=injection_rate),
        sim=SimSpec(warmup_cycles=300, measurement_cycles=1500,
                    drain_cycles=800, seed=seed),
    )
    source = build_packet_source(spec, placement)
    simulator = Simulator(network, source, spec.sim.warmup_cycles,
                          spec.sim.measurement_cycles, spec.sim.drain_cycles,
                          EnergyModel())
    return simulator.run()


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "PS2"
    placement = standard_placement(name)
    print(f"Running AMOSA offline optimization for {name} "
          f"({placement.num_elevators} elevators) ...")
    design = design_for(DesignSpec(), placement)

    print("\nPareto front (utilization variance, average distance):")
    for variance, distance in sorted(design.pareto_points()):
        print(f"  variance={variance:8.3f}  distance={distance:7.3f}")
    print(f"Elevator-First reference point: variance={design.baseline_objectives[0]:.3f}, "
          f"distance={design.baseline_objectives[1]:.3f}")

    print("\nRepresentative solutions (S0..Sk):")
    for index, entry in enumerate(sorted(design.representatives,
                                         key=lambda e: e.objectives[0])):
        print(f"  S{index}: variance={entry.objectives[0]:8.3f}  "
              f"distance={entry.objectives[1]:7.3f}  "
              f"avg subset size={entry.solution.average_subset_size():.2f}")

    print("\nSimulating three trade-off choices under uniform traffic:")
    choices = {
        "latency-leaning": design.latency_leaning(),
        "knee (default)": design.knee(),
        "energy-leaning": design.energy_leaning(),
    }
    for label, entry in choices.items():
        result = simulate_entry(design, entry, placement)
        print(f"  {label:16s} latency={result.average_latency:7.1f} cycles  "
              f"energy={result.energy_per_flit * 1e9:6.3f} nJ/flit")


if __name__ == "__main__":
    main()
