"""Fault-tolerance study (paper Section V) as a cached, parallel scenario sweep.

Reproduces the fault experiment -- Elevator-First, CDA and AdEle on a 4x4x4
mesh with four elevators, healthy vs. faulty -- through the scenario
subsystem: faults are typed :class:`~repro.scenario.events.ElevatorFault`
events on cacheable specs, fanned out over workers by the batch engine with
deterministically derived seeds.  Three scenarios per policy:

* ``healthy``    -- no scenario, the static baseline;
* ``cold-fault`` -- elevator e0 failed from cycle 0 (the classic study);
* ``mid-fault``  -- e0 fails mid-measurement and is repaired later, with
  per-phase latency/energy/delivery windows showing the transient.

Run it directly (tiny windows for a CI smoke, defaults for a real number)::

    PYTHONPATH=src python benchmarks/bench_scenario_fault.py
    PYTHONPATH=src python benchmarks/bench_scenario_fault.py \
        --warmup 50 --measure 300 --drain 200

Results land in ``benchmarks/results/BENCH_scenario_fault.json``.  Workers
and caching follow the engine flags (``--workers`` / ``--cache-dir``,
defaulting to ``REPRO_BENCH_WORKERS`` / ``REPRO_BENCH_CACHE``).
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List

from repro.exec.batch import ExperimentBatch
from repro.exec.cache import open_caches
from repro.scenario import ElevatorFault, ElevatorRepair, ScenarioSpec
from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULT_FILE = os.path.join(RESULTS_DIR, "BENCH_scenario_fault.json")

POLICIES = ("elevator_first", "cda", "adele")


def make_scenarios(args: argparse.Namespace) -> Dict[str, ScenarioSpec]:
    measure_end = args.warmup + args.measure
    fault_at = args.warmup + args.measure // 3
    repair_at = args.warmup + (2 * args.measure) // 3
    assert repair_at < measure_end
    return {
        "healthy": None,
        "cold-fault": ScenarioSpec(events=(ElevatorFault(cycle=0, elevator=0),)),
        "mid-fault": ScenarioSpec(events=(
            ElevatorFault(cycle=fault_at, elevator=0, label="e0 down"),
            ElevatorRepair(cycle=repair_at, elevator=0, label="e0 repaired"),
        )),
    }


def make_spec(policy: str, scenario, args: argparse.Namespace) -> ExperimentSpec:
    return ExperimentSpec(
        placement=PlacementSpec(
            name="FAULTDEMO",
            mesh=(4, 4, 4),
            columns=((1, 1), (2, 2), (3, 0), (0, 3)),
        ),
        policy=PolicySpec(name=policy),
        traffic=TrafficSpec(pattern="uniform", injection_rate=args.rate),
        sim=SimSpec(
            warmup_cycles=args.warmup,
            measurement_cycles=args.measure,
            drain_cycles=args.drain,
        ),
        scenario=scenario,
    )


def run_benchmark(args: argparse.Namespace) -> Dict:
    scenarios = make_scenarios(args)
    grid = [
        (policy, name, make_spec(policy, scenario, args))
        for policy in POLICIES
        for name, scenario in scenarios.items()
    ]
    result_cache, design_cache = open_caches(args.cache_dir)
    batch = ExperimentBatch(
        [spec for _, _, spec in grid],
        workers=args.workers,
        result_cache=result_cache,
        design_cache=design_cache,
        base_seed=args.seed,
    )
    outcomes = batch.run()
    print(
        f"[repro.exec] {batch.last_executed} simulated, "
        f"{batch.last_cached} served from cache ({batch.workers} workers)"
    )

    rows: List[Dict] = []
    by_key: Dict[tuple, Dict] = {}
    for (policy, scenario_name, _), outcome in zip(grid, outcomes):
        row = {
            "policy": policy,
            "scenario": scenario_name,
            "summary": outcome.summary,
            "from_cache": outcome.from_cache,
        }
        rows.append(row)
        by_key[(policy, scenario_name)] = outcome.summary

    for policy in POLICIES:
        healthy = by_key[(policy, "healthy")]
        cold = by_key[(policy, "cold-fault")]
        assert cold["delivery_ratio"] > 0.5, (
            f"{policy} stopped delivering under a cold fault"
        )
        ratio = cold["average_latency"] / healthy["average_latency"]
        print(
            f"{policy:15s} healthy={healthy['average_latency']:7.1f}  "
            f"cold-fault={cold['average_latency']:7.1f}  ({ratio:4.2f}x)  "
            f"mid-fault delivery={by_key[(policy, 'mid-fault')]['delivery_ratio'] * 100:5.1f}%"
        )
        for phase in by_key[(policy, "mid-fault")].get("phases", []):
            latency = phase["average_latency"]
            latency_text = "inf" if latency == float("inf") else f"{latency:.1f}"
            print(
                f"    {phase['label']:14s} [{phase['start_cycle']},{phase['end_cycle']}) "
                f"delivered={phase['packets_delivered']:4d} latency={latency_text}"
            )

    return {
        "mesh": [4, 4, 4],
        "elevators": [[1, 1], [2, 2], [3, 0], [0, 3]],
        "injection_rate": args.rate,
        "cycles": {
            "warmup": args.warmup, "measure": args.measure, "drain": args.drain,
        },
        "base_seed": args.seed,
        "workers": args.workers,
        "rows": rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--warmup", type=int, default=300)
    parser.add_argument("--measure", type=int, default=1500)
    parser.add_argument("--drain", type=int, default=800)
    parser.add_argument("--rate", type=float, default=0.003)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--workers", type=int,
        default=int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
    )
    parser.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_BENCH_CACHE") or None,
    )
    args = parser.parse_args()

    payload = run_benchmark(args)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(RESULT_FILE, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {RESULT_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
