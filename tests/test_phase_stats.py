"""PhaseStats windows and engine bit-identity.

The satellite contract of the scenario subsystem's statistics layer:

* an empty window reports infinite latency and full delivery;
* a phase boundary exactly at warm-up end produces an empty-but-present
  baseline window;
* a scenario-attached batch is bit-identical serial vs. 4 workers vs. a
  warm disk cache.
"""

from __future__ import annotations

import math

import pytest

from repro.exec.batch import ExperimentBatch
from repro.exec.cache import open_caches
from repro.scenario import (
    BASELINE_PHASE_LABEL,
    ElevatorFault,
    ElevatorRepair,
    ScenarioSpec,
)
from repro.analysis.runner import run_experiment
from repro.sim.stats import PhaseStats
from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec


def _spec(**overrides) -> ExperimentSpec:
    spec = ExperimentSpec(
        placement=PlacementSpec(name="phase-test", mesh=(3, 3, 2),
                                columns=((0, 0), (2, 2))),
        policy=PolicySpec(name="elevator_first"),
        traffic=TrafficSpec(pattern="uniform", injection_rate=0.02),
        sim=SimSpec(
            warmup_cycles=30, measurement_cycles=150, drain_cycles=200, seed=11
        ),
    )
    return spec.with_(**overrides) if overrides else spec


class TestPhaseWindows:
    def test_empty_window_reports_no_traffic(self):
        phase = PhaseStats(label="x", start_cycle=0, end_cycle=10)
        assert phase.packets_created == 0
        assert phase.latencies == []
        assert phase.average_latency == math.inf
        assert phase.delivery_ratio == 1.0
        assert phase.cycles == 10

    def test_boundary_exactly_at_warmup_end(self):
        # The baseline window [0, warmup) exists but is empty: every record
        # gate excludes pre-measurement events, and the first event fires
        # exactly when measurement starts.
        spec = _spec(scenario=ScenarioSpec(events=(
            ElevatorFault(cycle=30, elevator=0, label="measured"),
        )))
        result = run_experiment(spec)
        baseline, measured = result.stats.phases
        assert baseline.label == BASELINE_PHASE_LABEL
        assert (baseline.start_cycle, baseline.end_cycle) == (0, 30)
        assert baseline.packets_created == 0
        assert baseline.packets_delivered == 0
        assert baseline.latencies == []
        assert measured.start_cycle == 30
        assert measured.packets_created == result.stats.packets_created
        assert measured.packets_delivered == result.stats.packets_delivered

    def test_phase_counters_partition_whole_run_totals(self):
        spec = _spec(scenario=ScenarioSpec(events=(
            ElevatorFault(cycle=80, elevator=0, label="a"),
            ElevatorRepair(cycle=120, elevator=0),
        )))
        result = run_experiment(spec)
        stats = result.stats
        for field in (
            "packets_created",
            "packets_delivered",
            "flits_injected",
            "flits_delivered",
            "total_latency",
            "horizontal_link_traversals",
            "vertical_link_traversals",
        ):
            total = getattr(stats, field)
            partitioned = sum(getattr(phase, field) for phase in stats.phases)
            assert partitioned == pytest.approx(total), field
        assert sum(p.router_traversals for p in stats.phases) == sum(
            stats.router_traversals.values()
        )
        assert sum(p.energy_j for p in stats.phases) == pytest.approx(
            result.total_energy
        )


class TestBatchBitIdentity:
    def test_serial_equals_workers_equals_warm_cache(self, tmp_path):
        scenario = ScenarioSpec(events=(
            ElevatorFault(cycle=60, elevator=0),
            ElevatorRepair(cycle=100, elevator=0),
        ))
        specs = [
            _spec(policy=policy, scenario=scenario, injection_rate=rate)
            for policy in ("elevator_first", "adele")
            for rate in (0.01, 0.02)
        ]

        serial = ExperimentBatch(specs, workers=1, base_seed=3).run()
        parallel = ExperimentBatch(specs, workers=4, base_seed=3).run()
        cache_dir = str(tmp_path / "cache")
        cold = ExperimentBatch(
            specs, workers=2, base_seed=3, result_cache=open_caches(cache_dir)[0]
        ).run()
        warm_batch = ExperimentBatch(
            specs, workers=1, base_seed=3, result_cache=open_caches(cache_dir)[0]
        )
        warm = warm_batch.run()

        rows = [[outcome.summary for outcome in run]
                for run in (serial, parallel, cold, warm)]
        assert rows[0] == rows[1] == rows[2] == rows[3]
        assert warm_batch.last_executed == 0
        assert all(outcome.from_cache for outcome in warm)
        # Phase rows survived the disk round trip bit for bit.
        assert all("phases" in row for row in rows[0])
