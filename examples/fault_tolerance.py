"""Fault-tolerance extension (paper Section V), as first-class scenarios.

The paper notes AdEle "can be easily adjusted to consider faults, which is
of great interest in PC-3DNoCs".  This example expresses faults as typed
:class:`~repro.scenario.events.ElevatorFault` events on the experiment spec
-- fully cacheable, bit-identical across simulation kernels, no mutated
placement objects:

1. a *cold fault* (elevator e0 failed from cycle 0) shows Elevator-First,
   CDA and AdEle all keep delivering traffic over the remaining elevators,
   and what that costs in latency;
2. a *mid-run fault + repair* shows the per-phase measurement windows:
   latency before the fault, while e0 is down, and after the repair.

Run with:  python examples/fault_tolerance.py
"""

from __future__ import annotations

from repro.api import (
    ElevatorFault,
    ElevatorRepair,
    ExperimentSpec,
    PlacementSpec,
    ScenarioSpec,
    SimSpec,
    TrafficSpec,
    run,
)

POLICIES = ("elevator_first", "cda", "adele")

BASE = ExperimentSpec(
    placement=PlacementSpec(
        name="FAULTDEMO",
        mesh=(4, 4, 4),
        columns=((1, 1), (2, 2), (3, 0), (0, 3)),
    ),
    traffic=TrafficSpec(pattern="uniform", injection_rate=0.003),
    sim=SimSpec(warmup_cycles=300, measurement_cycles=1500,
                drain_cycles=800, seed=7),
)

#: Elevator e0 at column (1, 1) is down for the whole run.
COLD_FAULT = ScenarioSpec(events=(ElevatorFault(cycle=0, elevator=0),))

#: e0 fails one third into the measurement window and is repaired later.
MID_RUN = ScenarioSpec(events=(
    ElevatorFault(cycle=800, elevator=0, label="e0 down"),
    ElevatorRepair(cycle=1300, elevator=0, label="e0 repaired"),
))


def run_all(scenario, label: str) -> dict:
    results = {}
    for policy in POLICIES:
        spec = BASE.with_(policy=policy, scenario=scenario)
        result = run(spec)
        results[policy] = result
        print(f"  [{label}] {policy:15s} latency={result.average_latency:7.1f} cycles  "
              f"delivery={result.stats.delivery_ratio * 100:5.1f}%  "
              f"energy={result.energy_per_flit * 1e9:6.3f} nJ/flit")
    return results


def main() -> None:
    print("Healthy network (4 elevators):")
    healthy = run_all(None, "healthy")

    print("\nElevator e0 at column (1, 1) faulty from cycle 0 ...")
    faulty = run_all(COLD_FAULT, "1 fault")

    print("\nLatency cost of the fault (faulty / healthy):")
    for policy in POLICIES:
        ratio = faulty[policy].average_latency / healthy[policy].average_latency
        print(f"  {policy:15s} {ratio:5.2f}x")
    print("\nNo packet was routed through the faulty elevator:")
    for policy in POLICIES:
        assignments = faulty[policy].stats.elevator_assignments
        print(f"  {policy:15s} elevator usage counts: {dict(sorted(assignments.items()))}")

    print("\nMid-run fault at cycle 800, repair at cycle 1300 (adele):")
    result = run(BASE.with_(policy="adele", scenario=MID_RUN))
    for phase in result.stats.phases:
        end = "..." if phase.end_cycle is None else phase.end_cycle
        latency = (
            f"{phase.average_latency:7.1f}"
            if phase.packets_delivered
            else "    n/a"
        )
        print(f"  {phase.label:14s} [{phase.start_cycle:4d},{end:>4}) "
              f"delivered={phase.packets_delivered:4d} latency={latency} cycles  "
              f"delivery={phase.delivery_ratio * 100:5.1f}%")


if __name__ == "__main__":
    main()
