"""Drain/saturation edge cases guarding the parallel runner's aggregation.

The batch engine serializes ``SimulationResult.summary()`` rows to JSON and
replays them from cache, so degenerate runs -- zero packets created, or a
network that never drains -- must produce well-defined values (``inf``
latency, delivery ratios) that survive the round trip unchanged.
"""

from __future__ import annotations

import math

from repro.analysis.runner import run_experiment
from repro.exec.batch import ExperimentBatch, run_batch
from repro.exec.cache import open_caches
from repro.sim.engine import SimulationResult
from repro.sim.stats import SimulationStats
from repro.spec import ExperimentSpec, PlacementSpec
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D


def _tiny_spec(**overrides) -> ExperimentSpec:
    placement = ElevatorPlacement(Mesh3D(2, 2, 2), [(0, 0)], name="edge-tiny")
    defaults = dict(
        policy="elevator_first",
        traffic="uniform",
        injection_rate=0.05,
        warmup_cycles=10,
        measurement_cycles=100,
        drain_cycles=100,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentSpec(placement=PlacementSpec.from_placement(placement)).with_(
        **defaults
    )


def _result_with(stats: SimulationStats) -> SimulationResult:
    return SimulationResult(
        stats=stats,
        warmup_cycles=0,
        measurement_cycles=10,
        drain_cycles_used=0,
        num_nodes=8,
        average_latency=stats.average_latency,
        throughput=0.0,
    )


class TestZeroTraffic:
    def test_delivery_ratio_is_one_when_nothing_was_created(self):
        stats = SimulationStats()
        assert stats.packets_created == 0
        assert stats.delivery_ratio == 1.0
        result = _result_with(stats)
        assert result.saturated is False
        assert math.isinf(result.average_latency)

    def test_zero_injection_rate_run(self):
        result = run_experiment(_tiny_spec(injection_rate=0.0))
        assert result.stats.packets_created == 0
        assert result.stats.delivery_ratio == 1.0
        assert result.saturated is False
        assert math.isinf(result.average_latency)
        assert result.throughput == 0.0

    def test_zero_injection_summary_survives_the_batch_and_cache(self, tmp_path):
        spec = _tiny_spec(injection_rate=0.0)
        outcomes = run_batch([spec], result_cache=open_caches(str(tmp_path))[0])
        summary = outcomes[0].summary
        assert summary["packets_created"] == 0.0
        assert summary["delivery_ratio"] == 1.0
        assert math.isinf(summary["average_latency"])

        warm = ExperimentBatch([spec], result_cache=open_caches(str(tmp_path))[0])
        warm_outcomes = warm.run()
        assert warm.last_executed == 0
        assert warm_outcomes[0].summary == summary
        assert math.isinf(warm_outcomes[0].summary["average_latency"])


class TestNeverDrains:
    def test_saturated_flag_when_most_packets_never_arrive(self):
        stats = SimulationStats()
        stats.packets_created = 10
        stats.packets_delivered = 2
        assert stats.delivery_ratio == 0.2
        assert _result_with(stats).saturated is True

    def test_undelivered_packets_have_defined_metrics(self):
        stats = SimulationStats()
        stats.packets_created = 5
        assert stats.packets_delivered == 0
        assert stats.delivery_ratio == 0.0
        assert math.isinf(stats.average_latency)
        assert stats.average_hops == 0.0

    def test_oversaturated_network_with_no_drain_budget(self):
        # Far past saturation and drain_cycles=0: the network cannot drain,
        # so most measured packets never arrive -- the saturation heuristic
        # must trip and every summary value must stay finite or inf, not NaN.
        spec = _tiny_spec(
            injection_rate=0.5,
            buffer_depth=1,
            measurement_cycles=150,
            drain_cycles=0,
        )
        result = run_experiment(spec)
        assert result.drain_cycles_used == 0
        assert result.stats.packets_created > 0
        assert result.stats.delivery_ratio < 0.5
        assert result.saturated is True
        summary = result.summary()
        assert all(not math.isnan(value) for value in summary.values())

    def test_saturated_summary_round_trips_through_the_cache(self, tmp_path):
        spec = _tiny_spec(
            injection_rate=0.5,
            buffer_depth=1,
            measurement_cycles=150,
            drain_cycles=0,
        )
        cold = run_batch([spec], result_cache=open_caches(str(tmp_path))[0])
        warm = run_batch([spec], result_cache=open_caches(str(tmp_path))[0])
        assert warm[0].from_cache
        assert warm[0].summary == cold[0].summary
        assert warm[0].summary["delivery_ratio"] < 0.5
