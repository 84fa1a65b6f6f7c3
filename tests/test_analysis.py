"""Unit tests for the experiment harness (runner, sweep, load, comparison)."""

from dataclasses import asdict

import pytest

from repro.analysis.comparison import (
    average_improvement,
    format_table,
    normalize_to_baseline,
    policy_comparison_table,
    relative_improvement,
)
from repro.analysis.load import elevator_load_distribution
from repro.analysis.runner import (
    build_network,
    build_packet_source,
    build_policy,
    build_traffic,
    design_for,
    run_experiment,
)
from repro.analysis.sweep import LatencyCurve, latency_sweep, saturation_rate, zero_load_latency
from repro.core.amosa import AmosaConfig
from repro.core.optimizers import AmosaSearch
from repro.routing.adele import AdElePolicy, AdEleRoundRobinPolicy
from repro.routing.cda import CDAPolicy
from repro.routing.elevator_first import ElevatorFirstPolicy
from repro.sim.engine import SimulationResult
from repro.sim.stats import SimulationStats
from repro.spec import DesignSpec, ExperimentSpec, PlacementSpec
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.applications import ApplicationTraffic
from repro.traffic.patterns import ShuffleTraffic, UniformTraffic

TINY_AMOSA = AmosaConfig(
    initial_temperature=5.0,
    final_temperature=0.5,
    cooling_rate=0.6,
    iterations_per_temperature=10,
    hard_limit=6,
    soft_limit=12,
    initial_solutions=3,
    seed=2,
)


@pytest.fixture
def tiny_spec():
    mesh = Mesh3D(2, 2, 2)
    placement = ElevatorPlacement(mesh, [(0, 0), (1, 1)], name="TINY")
    return ExperimentSpec(placement=PlacementSpec.from_placement(placement)).with_(
        policy="elevator_first",
        traffic="uniform",
        injection_rate=0.05,
        warmup_cycles=20,
        measurement_cycles=150,
        drain_cycles=200,
        seed=3,
    )


class TestRunnerBuilders:
    def test_resolve_placement_by_name(self):
        spec = ExperimentSpec().with_(placement="PS2")
        assert spec.placement.resolve().num_elevators == 4

    def test_resolve_placement_object_override(self, tiny_spec):
        assert tiny_spec.placement.resolve().name == "TINY"

    def test_build_traffic_patterns(self, tiny_spec):
        placement = tiny_spec.placement.resolve()
        assert isinstance(build_traffic(tiny_spec, placement), UniformTraffic)
        assert isinstance(
            build_traffic(tiny_spec.with_(traffic="shuffle"), placement), ShuffleTraffic
        )
        assert isinstance(
            build_traffic(tiny_spec.with_(traffic="fft"), placement), ApplicationTraffic
        )
        assert isinstance(
            build_traffic(tiny_spec.with_(traffic="fluid."), placement), ApplicationTraffic
        )

    @pytest.mark.parametrize(
        "policy,cls",
        [
            ("elevator_first", ElevatorFirstPolicy),
            ("cda", CDAPolicy),
        ],
    )
    def test_build_policy_baselines(self, tiny_spec, policy, cls):
        placement = tiny_spec.placement.resolve()
        assert isinstance(build_policy(tiny_spec.with_(policy=policy), placement), cls)

    def test_build_policy_adele_uses_offline_design(self, tiny_spec, monkeypatch):
        monkeypatch.setattr(AmosaSearch, "config_defaults", TINY_AMOSA)
        placement = tiny_spec.placement.resolve()
        policy = build_policy(tiny_spec.with_(policy="adele"), placement)
        assert isinstance(policy, AdElePolicy)
        rr = build_policy(tiny_spec.with_(policy="adele_rr"), placement)
        assert isinstance(rr, AdEleRoundRobinPolicy)

    def test_adele_design_cache(self, tiny_spec):
        placement = tiny_spec.placement.resolve()
        spec = DesignSpec(max_subset_size=2, options=asdict(TINY_AMOSA))
        first = design_for(spec, placement)
        second = design_for(spec, placement)
        assert first is second

    def test_build_network_and_source(self, tiny_spec):
        placement = tiny_spec.placement.resolve()
        network = build_network(tiny_spec, placement=placement)
        assert network.mesh is placement.mesh
        source = build_packet_source(tiny_spec, placement)
        assert source.injection_rate == pytest.approx(0.05)
        assert not hasattr(source, "packet_probability")

    def test_with_copies_config(self, tiny_spec):
        changed = tiny_spec.with_(injection_rate=0.1)
        assert changed.traffic.injection_rate == 0.1
        assert tiny_spec.traffic.injection_rate == 0.05


class TestRunExperiment:
    def test_end_to_end_run(self, tiny_spec):
        result = run_experiment(tiny_spec)
        assert result.delivered_packets > 0
        assert result.average_latency > 0
        assert result.energy_per_flit is not None
        assert result.policy_name == "elevator_first"

    def test_network_reuse_resets_state(self, tiny_spec):
        placement = tiny_spec.placement.resolve()
        network = build_network(tiny_spec, placement=placement)
        first = run_experiment(tiny_spec, network=network)
        second = run_experiment(tiny_spec, network=network)
        assert first.delivered_packets == second.delivered_packets
        assert first.average_latency == pytest.approx(second.average_latency)


class TestSweep:
    def test_latency_curve_accessors(self):
        curve = LatencyCurve(policy="x")
        stats = SimulationStats()
        result = SimulationResult(
            stats=stats, warmup_cycles=0, measurement_cycles=10, drain_cycles_used=0,
            num_nodes=4, average_latency=12.0, throughput=0.1,
        )
        curve.add(0.001, result)
        assert curve.rates() == [0.001]
        assert curve.latencies() == [12.0]
        assert curve.latency_at(0.001) == 12.0
        with pytest.raises(KeyError):
            curve.latency_at(0.5)

    def test_zero_load_and_saturation(self):
        curve = LatencyCurve(policy="x")
        for rate, latency in [(0.001, 10.0), (0.002, 12.0), (0.003, 150.0)]:
            stats = SimulationStats()
            result = SimulationResult(
                stats=stats, warmup_cycles=0, measurement_cycles=10,
                drain_cycles_used=0, num_nodes=4, average_latency=latency,
                throughput=0.0,
            )
            curve.add(rate, result)
        assert zero_load_latency(curve) == 10.0
        assert saturation_rate(curve) == 0.003
        assert saturation_rate(curve, factor=20.0) == 0.003  # never reaches 200 -> max rate

    def test_saturation_validation(self):
        with pytest.raises(ValueError):
            saturation_rate(LatencyCurve(policy="x"))
        curve = LatencyCurve(policy="x")
        stats = SimulationStats()
        curve.add(0.001, SimulationResult(
            stats=stats, warmup_cycles=0, measurement_cycles=1, drain_cycles_used=0,
            num_nodes=1, average_latency=1.0, throughput=0.0))
        with pytest.raises(ValueError):
            saturation_rate(curve, factor=1.0)

    def test_latency_sweep_runs_all_policies(self, tiny_spec):
        curves = latency_sweep(tiny_spec, ["elevator_first", "cda"], [0.02, 0.05])
        assert set(curves) == {"elevator_first", "cda"}
        for curve in curves.values():
            assert len(curve.points) == 2
            assert all(latency > 0 for latency in curve.latencies())

    def test_latency_sweep_requires_rates(self, tiny_spec):
        with pytest.raises(ValueError):
            latency_sweep(tiny_spec, ["cda"], [])


class TestLoadDistribution:
    def test_elevator_load_distribution(self, tiny_spec):
        placement = tiny_spec.placement.resolve()
        network = build_network(tiny_spec, placement=placement)
        result = run_experiment(tiny_spec, network=network)
        distribution = elevator_load_distribution(network, result)
        assert set(distribution.loads) == {0, 1}
        assert distribution.max_load >= distribution.min_load
        assert distribution.ordered_loads() == [
            distribution.loads[0], distribution.loads[1]
        ]
        assert distribution.imbalance >= 1.0 or distribution.imbalance == float("inf")


class TestComparison:
    def test_normalize_to_baseline(self):
        normalized = normalize_to_baseline({"a": 10.0, "b": 5.0}, "a")
        assert normalized == {"a": 1.0, "b": 0.5}
        with pytest.raises(KeyError):
            normalize_to_baseline({"a": 1.0}, "missing")
        with pytest.raises(ValueError):
            normalize_to_baseline({"a": 0.0}, "a")

    def test_relative_improvement(self):
        assert relative_improvement(100.0, 89.1) == pytest.approx(0.109)
        with pytest.raises(ValueError):
            relative_improvement(0.0, 1.0)

    def test_average_improvement(self):
        assert average_improvement([100, 200], [90, 150]) == pytest.approx(
            (0.1 + 0.25) / 2
        )
        with pytest.raises(ValueError):
            average_improvement([1], [1, 2])
        with pytest.raises(ValueError):
            average_improvement([], [])

    def test_policy_comparison_table(self, tiny_spec):
        results = {}
        for policy in ("elevator_first", "cda"):
            results[policy] = run_experiment(tiny_spec.with_(policy=policy))
        table = policy_comparison_table(results, baseline="elevator_first")
        assert table["elevator_first"]["average_latency_norm"] == pytest.approx(1.0)
        assert "average_latency" in table["cda"]
        text = format_table(table)
        assert "policy" in text and "cda" in text
