"""Designing a custom PC-3DNoC with the library's building blocks.

Walks through the workflow a downstream user would follow for their own
chip: pick a mesh, place the elevators and score the placement by its
average inter-layer distance, run AdEle's offline optimization against the
traffic they expect (here: a hotspot pattern standing in for a
memory-controller-heavy workload), and compare the resulting AdEle
configuration against the baselines under that traffic.

Run with:  python examples/custom_topology.py
"""

from __future__ import annotations

from repro import ElevatorPlacement, Mesh3D, optimize_elevator_subsets, run_experiment
from repro.api import ExperimentSpec, PlacementSpec, SimSpec, TrafficSpec
from repro.topology.elevators import average_distance_of_placement
from repro.traffic.patterns import HotspotTraffic


def main() -> None:
    # 1. The chip: a 6x6x3 stack with a budget of five TSV bundles.
    mesh = Mesh3D(6, 6, 3)
    print(f"Mesh {mesh.shape}: {mesh.num_nodes} routers, budget of 5 elevators")

    # 2. Place the elevators in a quincunx: four spread columns plus one
    #    near the centre keep the average inter-layer distance low.
    placement = ElevatorPlacement(
        mesh, [(1, 1), (4, 1), (1, 4), (4, 4), (2, 2)], name="CUSTOM"
    )
    print(f"Elevator columns: {placement.columns()}")
    print(f"Average inter-layer distance: "
          f"{average_distance_of_placement(placement):.3f} hops")

    # 3. The expected workload: 30 % of traffic targets two memory
    #    controllers on the bottom layer.
    controllers = [mesh.node_id_xyz(0, 0, 0), mesh.node_id_xyz(5, 5, 0)]
    traffic = HotspotTraffic(mesh, hotspots=controllers, hotspot_fraction=0.3, seed=3)

    # 4. Offline AdEle optimization against that traffic matrix.  An
    #    explicit matrix goes to the uncached core (the default offline
    #    stage, searched against this matrix instead of uniform traffic).
    design = optimize_elevator_subsets(placement, traffic=traffic.traffic_matrix())
    print(f"AdEle offline design: {len(design.result.archive)} Pareto points, "
          f"selected variance={design.selected.objectives[0]:.3f}, "
          f"distance={design.selected.objectives[1]:.3f}")

    # 5. Compare the policies under the hotspot workload.  The AdEle network
    #    deploys the hotspot-optimized subsets built above.
    base = ExperimentSpec(
        placement=PlacementSpec.from_placement(placement),
        traffic=TrafficSpec(
            pattern="hotspot", injection_rate=0.004,
            options={"hotspots": controllers, "hotspot_fraction": 0.3},
        ),
        sim=SimSpec(warmup_cycles=300, measurement_cycles=1200,
                    drain_cycles=800, seed=5),
    )
    from repro.analysis.runner import build_network, build_policy

    print("\npolicy            latency (cycles)   energy (nJ/flit)   delivery")
    for policy_name in ("elevator_first", "cda", "adele"):
        spec = base.with_(policy=policy_name)
        if policy_name == "adele":
            network = build_network(spec, placement=placement,
                                    policy=design.to_policy(seed=spec.sim.seed))
        else:
            network = build_network(spec, placement=placement,
                                    policy=build_policy(spec, placement))
        result = run_experiment(spec, network=network)
        print(f"{policy_name:15s} {result.average_latency:17.1f} "
              f"{result.energy_per_flit * 1e9:18.3f} "
              f"{result.stats.delivery_ratio * 100:9.1f}%")


if __name__ == "__main__":
    main()
