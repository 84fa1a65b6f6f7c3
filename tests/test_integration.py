"""Integration tests: end-to-end behaviour the paper's evaluation relies on.

These run small but complete simulations (offline optimization + online
policy + simulator + energy model) and check the qualitative properties the
paper reports, at scales small enough for CI.
"""

from dataclasses import asdict

import pytest

from repro.analysis.comparison import relative_improvement
from repro.analysis.load import elevator_load_distribution
from repro.analysis.runner import (
    build_network,
    build_packet_source,
    design_for,
    run_experiment,
)
from repro.core.amosa import AmosaConfig
from repro.core.optimizers import AmosaSearch
from repro.energy.model import EnergyModel
from repro.routing.adele import AdElePolicy
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.spec import (
    ADELE_POLICY_NAMES,
    DesignSpec,
    ExperimentSpec,
    PlacementSpec,
    PolicySpec,
)
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D

TINY_AMOSA = AmosaConfig(
    initial_temperature=10.0,
    final_temperature=0.5,
    cooling_rate=0.7,
    iterations_per_temperature=20,
    hard_limit=8,
    soft_limit=16,
    initial_solutions=5,
    seed=4,
)


def _policy(name: str) -> PolicySpec:
    """An arena policy: AdEle variants keep the arena's subset-size cap of 2."""
    options = {"max_subset_size": 2} if name in ADELE_POLICY_NAMES else {}
    return PolicySpec(name=name, options=options)


@pytest.fixture
def arena():
    """A 3x3x2 PC-3DNoC with two elevators and a ready-made spec."""
    mesh = Mesh3D(3, 3, 2)
    placement = ElevatorPlacement(mesh, [(0, 0), (2, 1)], name="ARENA")
    spec = ExperimentSpec(
        placement=PlacementSpec.from_placement(placement), policy=_policy("adele")
    ).with_(
        traffic="uniform",
        injection_rate=0.03,
        warmup_cycles=100,
        measurement_cycles=600,
        drain_cycles=400,
        seed=11,
    )
    return placement, spec


class TestEndToEndDelivery:
    def test_all_packets_delivered_below_saturation(self, arena):
        placement, spec = arena
        result = run_experiment(
            spec.with_(policy=_policy("elevator_first"), injection_rate=0.01)
        )
        assert result.stats.delivery_ratio == pytest.approx(1.0)
        assert result.stats.packets_created > 10

    def test_every_policy_delivers_traffic(self, arena, monkeypatch):
        monkeypatch.setattr(AmosaSearch, "config_defaults", TINY_AMOSA)
        placement, spec = arena
        for policy in ("elevator_first", "cda", "adele", "adele_rr", "minimal"):
            result = run_experiment(spec.with_(policy=_policy(policy), injection_rate=0.02))
            assert result.delivered_packets > 0, policy
            assert result.average_latency < 500, policy

    def test_latency_grows_with_injection_rate(self, arena):
        placement, spec = arena
        low = run_experiment(spec.with_(policy=_policy("elevator_first"), injection_rate=0.005))
        high = run_experiment(spec.with_(policy=_policy("elevator_first"), injection_rate=0.06))
        assert high.average_latency > low.average_latency

    def test_results_reproducible_for_fixed_seed(self, arena):
        placement, spec = arena
        a = run_experiment(spec.with_(policy=_policy("cda")))
        b = run_experiment(spec.with_(policy=_policy("cda")))
        assert a.average_latency == pytest.approx(b.average_latency)
        assert a.stats.packets_created == b.stats.packets_created


class TestPaperQualitativeShapes:
    def test_adaptive_policies_beat_elevator_first_under_load(self, arena, monkeypatch):
        """Fig. 4 shape: congestion-aware selection beats nearest-elevator."""
        monkeypatch.setattr(AmosaSearch, "config_defaults", TINY_AMOSA)
        placement, spec = arena
        loaded = spec.with_(injection_rate=0.06, measurement_cycles=800)
        baseline = run_experiment(loaded.with_(policy=_policy("elevator_first")))
        cda = run_experiment(loaded.with_(policy=_policy("cda")))
        adele = run_experiment(loaded.with_(policy=_policy("adele")))
        assert cda.average_latency < baseline.average_latency
        assert adele.average_latency < baseline.average_latency

    def test_adele_balances_elevator_load_better(self, arena, monkeypatch):
        """Fig. 5 shape: AdEle's max-elevator load is lower than ElevFirst's."""
        monkeypatch.setattr(AmosaSearch, "config_defaults", TINY_AMOSA)
        placement, spec = arena
        loaded = spec.with_(injection_rate=0.05, measurement_cycles=800)

        def load_for(policy_name):
            cfg = loaded.with_(policy=_policy(policy_name))
            network = build_network(cfg, placement=placement)
            result = run_experiment(cfg, network=network)
            return elevator_load_distribution(network, result)

        baseline = load_for("elevator_first")
        adele = load_for("adele")
        assert adele.max_load <= baseline.max_load * 1.05

    def test_minimal_override_saves_energy_at_low_load(self, arena, monkeypatch):
        """Fig. 6 shape: at low injection AdEle's energy is not above ElevFirst's."""
        monkeypatch.setattr(AmosaSearch, "config_defaults", TINY_AMOSA)
        placement, spec = arena
        quiet = spec.with_(injection_rate=0.004, measurement_cycles=900)
        baseline = run_experiment(quiet.with_(policy=_policy("elevator_first")))
        adele = run_experiment(quiet.with_(policy=_policy("adele")))
        assert adele.energy_per_flit is not None and baseline.energy_per_flit is not None
        assert adele.energy_per_flit <= baseline.energy_per_flit * 1.1

    def test_offline_design_reduces_utilization_variance(self, arena):
        """Fig. 3 shape: the selected solution dominates Elevator-First on variance."""
        placement, _spec = arena
        design = design_for(
            DesignSpec(max_subset_size=2, options=asdict(TINY_AMOSA)), placement
        )
        assert design.selected.objectives[0] <= design.baseline_objectives[0]

    def test_relative_improvement_metric_sanity(self):
        assert 0.0 < relative_improvement(100.0, 89.1) < 0.2


class TestFaultToleranceExtension:
    def test_traffic_survives_elevator_fault(self, arena):
        """Section V: AdEle 'can be easily adjusted to consider faults'."""
        placement, spec = arena
        placement.mark_faulty(0)
        try:
            policy = AdElePolicy(placement, low_traffic_threshold=None, seed=1)
            network = Network(placement, policy)
            source = build_packet_source(spec.with_(injection_rate=0.01), placement)
            result = Simulator(network, source, 50, 400, 600, EnergyModel()).run()
            assert result.delivered_packets > 0
            assert result.stats.delivery_ratio > 0.9
            # No packet may have used the faulty elevator.
            assert 0 not in result.stats.elevator_assignments
        finally:
            placement.clear_faults()

    def test_elevator_first_reroutes_around_fault(self, arena):
        placement, spec = arena
        placement.mark_faulty(0)
        try:
            # The faulty placement object must be the one simulated.
            light = spec.with_(policy=_policy("elevator_first"), injection_rate=0.01)
            network = build_network(light, placement=placement)
            result = run_experiment(light, network=network)
            assert result.stats.delivery_ratio == pytest.approx(1.0)
        finally:
            placement.clear_faults()


class TestLargerConfigurationSmoke:
    def test_ps1_short_run_all_policies(self, monkeypatch):
        """A short 4x4x4 PS1 run exercises the paper's actual topology."""
        monkeypatch.setattr(AmosaSearch, "config_defaults", TINY_AMOSA)
        spec = ExperimentSpec().with_(
            placement="PS1", traffic="uniform", injection_rate=0.003,
            warmup_cycles=50, measurement_cycles=300, drain_cycles=300, seed=5,
        )
        latencies = {}
        for policy in ("elevator_first", "cda", "adele"):
            result = run_experiment(spec.with_(policy=policy))
            assert result.delivered_packets > 0
            latencies[policy] = result.average_latency
        assert all(latency < 400 for latency in latencies.values())

    def test_application_traffic_runs(self, monkeypatch):
        spec = ExperimentSpec().with_(
            placement="PS2", policy="cda", traffic="fft", injection_rate=0.004,
            warmup_cycles=50, measurement_cycles=300, drain_cycles=300, seed=6,
        )
        result = run_experiment(spec)
        assert result.delivered_packets > 0
