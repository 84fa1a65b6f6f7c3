"""The scenario subsystem: events, specs, dispatch, cross-backend identity.

The acceptance bar of the subsystem is the cross-backend matrix: every
registered scenario event kind must run *bit-identically* on the
``reference`` and ``optimized`` kernels -- whole-run statistics, per-phase
windows and delivered flits -- including an elevator fault under AdEle.  A
spec without a scenario must keep a byte-identical ``config_key`` (pinned
against the pre-scenario hash), so no disk-cache entry is ever invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.analysis.runner import run_experiment
from repro import api
from repro.exec.cache import canonical_config, config_key, derive_seed
from repro.registry import UnknownComponentError
from repro.scenario import (
    SCENARIO_EVENT_REGISTRY,
    BASELINE_PHASE_LABEL,
    ElevatorFault,
    ElevatorRepair,
    RateRamp,
    ScenarioEvent,
    ScenarioRuntime,
    ScenarioSpec,
    StatsMarker,
    TrafficPhase,
    event_from_dict,
)
from repro.sim.router import Port
from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.generator import TracePacketSource
from repro.traffic.trace import TrafficTrace

#: config_key of the default ExperimentSpec as of the PR *before* the
#: scenario subsystem existed.  A scenario-free spec must keep this hash
#: byte for byte, or every previously cached result would be orphaned.
PRE_SCENARIO_DEFAULT_KEY = (
    "73968651440348308442bc2dc53756c892f589696bfd8a6f8ded9b4b7ff6d8d3"
)


def _placement() -> ElevatorPlacement:
    return ElevatorPlacement(Mesh3D(3, 3, 2), [(0, 0), (2, 2)], name="scenario-test")


def _spec(policy: str = "elevator_first", **overrides) -> ExperimentSpec:
    spec = ExperimentSpec(
        placement=PlacementSpec.from_placement(_placement()),
        policy=PolicySpec(name=policy),
        traffic=TrafficSpec(pattern="uniform", injection_rate=0.02),
        sim=SimSpec(
            warmup_cycles=30, measurement_cycles=150, drain_cycles=200, seed=11
        ),
    )
    return spec.with_(**overrides) if overrides else spec


# ---------------------------------------------------------------------- #
# Events and spec serialization
# ---------------------------------------------------------------------- #
class TestEvents:
    def test_registered_kinds(self):
        kinds = SCENARIO_EVENT_REGISTRY.names()
        assert {
            "elevator-fault",
            "elevator-repair",
            "rate-ramp",
            "stats-marker",
            "traffic-phase",
        } <= set(kinds)

    @pytest.mark.parametrize(
        "event",
        [
            TrafficPhase(cycle=5, pattern="shuffle", injection_rate=0.01),
            TrafficPhase(cycle=0, injection_rate=0.02, label="surge"),
            TrafficPhase(cycle=3, pattern="hotspot", options={"hotspot_fraction": 0.3}),
            RateRamp(cycle=10, end_cycle=40, end_rate=0.05, start_rate=0.01),
            ElevatorFault(cycle=7, elevator=1),
            ElevatorRepair(cycle=9, elevator=1, label="fixed"),
            StatsMarker(cycle=2, label="window-a"),
        ],
    )
    def test_event_round_trip(self, event):
        data = event.to_dict()
        rebuilt = event_from_dict(data)
        assert rebuilt == event
        assert rebuilt.to_dict() == data

    def test_event_validation(self):
        with pytest.raises(ValueError):
            TrafficPhase(cycle=1)  # changes nothing
        with pytest.raises(ValueError):
            TrafficPhase(cycle=-1, injection_rate=0.1)
        with pytest.raises(ValueError):
            TrafficPhase(cycle=1, injection_rate=-0.5)
        with pytest.raises(ValueError):
            TrafficPhase(cycle=1, injection_rate=0.1, options={"x": 1})
        with pytest.raises(ValueError):
            RateRamp(cycle=10, end_cycle=10, end_rate=0.1)
        with pytest.raises(ValueError):
            StatsMarker(cycle=1, label="")
        with pytest.raises(ValueError):
            ElevatorFault(cycle=1, elevator=-2)

    def test_unknown_kind_raises_value_error(self):
        with pytest.raises(UnknownComponentError):
            event_from_dict({"kind": "earthquake", "cycle": 3})
        with pytest.raises(ValueError):
            event_from_dict({"cycle": 3})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            event_from_dict({"kind": "stats-marker", "cycle": 1, "label": "x", "oops": 2})

    def test_custom_event_registration(self):
        @SCENARIO_EVENT_REGISTRY.register("test-noop", description="noop")
        @dataclass(frozen=True)
        class NoopEvent(ScenarioEvent):
            kind: ClassVar[str] = "test-noop"

        try:
            rebuilt = event_from_dict({"kind": "test-noop", "cycle": 4})
            assert isinstance(rebuilt, NoopEvent) and rebuilt.cycle == 4
        finally:
            SCENARIO_EVENT_REGISTRY.unregister("test-noop")


class TestScenarioSpec:
    def test_orders_validated(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ScenarioSpec(events=(StatsMarker(cycle=10, label="a"),
                                 StatsMarker(cycle=5, label="b")))
        with pytest.raises(ValueError, match="ScenarioEvent"):
            ScenarioSpec(events=("not-an-event",))

    def test_round_trip_through_experiment_spec(self):
        scenario = ScenarioSpec(events=(
            StatsMarker(cycle=5, label="early"),
            ElevatorFault(cycle=40, elevator=0),
            TrafficPhase(cycle=60, pattern="shuffle", injection_rate=0.03),
        ))
        spec = _spec(scenario=scenario)
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.scenario == scenario

    def test_last_cycle_covers_ramp_end(self):
        scenario = ScenarioSpec(events=(
            RateRamp(cycle=10, end_cycle=90, end_rate=0.01),
        ))
        assert scenario.last_cycle() == 90


# ---------------------------------------------------------------------- #
# Cache-key stability (acceptance criterion)
# ---------------------------------------------------------------------- #
class TestKeyStability:
    def test_scenario_free_key_is_byte_identical_to_pre_scenario_hash(self):
        assert config_key(ExperimentSpec()) == PRE_SCENARIO_DEFAULT_KEY
        assert "scenario" not in canonical_config(ExperimentSpec())

    def test_scenario_changes_key_and_seed(self):
        plain = _spec()
        scenario = plain.with_(scenario=ScenarioSpec(events=(
            ElevatorFault(cycle=10, elevator=0),
        )))
        assert config_key(plain) != config_key(scenario)
        assert derive_seed(plain, 1) != derive_seed(scenario, 1)

    def test_empty_scenario_is_distinct_from_none(self):
        # An empty timeline still opens the baseline phase window, so its
        # summary rows differ from a scenario-free run -- it must not share
        # a cache entry.
        plain = _spec()
        empty = plain.with_(scenario=ScenarioSpec())
        assert config_key(plain) != config_key(empty)

    def test_event_pattern_aliases_collapse(self):
        a = _spec(scenario=ScenarioSpec(events=(
            TrafficPhase(cycle=10, pattern="bit_complement"),
        )))
        b = _spec(scenario=ScenarioSpec(events=(
            TrafficPhase(cycle=10, pattern="complement"),
        )))
        assert config_key(a) == config_key(b)


# ---------------------------------------------------------------------- #
# Cross-backend matrix (acceptance criterion)
# ---------------------------------------------------------------------- #
#: Kernels in the scenario cross-backend identity matrix.
MATRIX_BACKENDS = ["reference", "optimized"]

#: One scenario per registered event kind.  The completeness check below
#: fails if a new kind is registered without a matrix entry.
MATRIX_SCENARIOS = {
    "stats-marker": ("elevator_first", ScenarioSpec(events=(
        StatsMarker(cycle=30, label="measured"),
        StatsMarker(cycle=100, label="late"),
    ))),
    "traffic-phase": ("elevator_first", ScenarioSpec(events=(
        TrafficPhase(cycle=80, pattern="shuffle", injection_rate=0.04),
    ))),
    "rate-ramp": ("cda", ScenarioSpec(events=(
        RateRamp(cycle=50, end_cycle=120, end_rate=0.05),
    ))),
    "elevator-fault": ("adele", ScenarioSpec(events=(
        ElevatorFault(cycle=70, elevator=0),
    ))),
    "elevator-repair": ("adele", ScenarioSpec(events=(
        ElevatorFault(cycle=60, elevator=0),
        ElevatorRepair(cycle=120, elevator=0),
    ))),
}


def _full_comparison(result) -> dict:
    stats = result.stats
    return {
        "summary": result.summary(),
        "drain": result.drain_cycles_used,
        "latencies": stats.latencies,
        "latency_samples_seen": stats.latency_samples_seen,
        "router_traversals": stats.router_traversals,
        "elevator_assignments": stats.elevator_assignments,
        "phases": [phase.to_summary() for phase in stats.phases],
        "phase_latencies": [phase.latencies for phase in stats.phases],
    }


class TestCrossBackendMatrix:
    def test_matrix_covers_every_registered_kind(self):
        bundled = {
            name
            for name in SCENARIO_EVENT_REGISTRY.names()
            if not name.startswith("test-")
        }
        assert bundled == set(MATRIX_SCENARIOS), (
            "every registered scenario event kind needs a cross-backend "
            "matrix entry"
        )

    @pytest.mark.parametrize("kind", sorted(MATRIX_SCENARIOS))
    def test_event_kind_is_bit_identical_across_kernels(self, kind):
        policy, scenario = MATRIX_SCENARIOS[kind]
        spec = _spec(policy=policy, scenario=scenario)
        reference = run_experiment(spec.with_(backend="reference"))
        for backend in MATRIX_BACKENDS[1:]:
            other = run_experiment(spec.with_(backend=backend))
            assert _full_comparison(reference) == _full_comparison(other), backend
        # The scenario actually produced phase windows (baseline + events).
        assert len(reference.stats.phases) == len(scenario.events) + 1
        assert reference.stats.phases[0].label == BASELINE_PHASE_LABEL

    def test_combined_timeline_bit_identical_under_adele(self):
        scenario = ScenarioSpec(events=(
            StatsMarker(cycle=10, label="early"),
            ElevatorFault(cycle=60, elevator=0),
            TrafficPhase(cycle=100, pattern="shuffle", injection_rate=0.03),
            ElevatorRepair(cycle=130, elevator=0),
            RateRamp(cycle=140, end_cycle=170, end_rate=0.005),
        ))
        spec = _spec(policy="adele", scenario=scenario)
        reference = run_experiment(spec.with_(backend="reference"))
        for backend in MATRIX_BACKENDS[1:]:
            other = run_experiment(spec.with_(backend=backend))
            assert _full_comparison(reference) == _full_comparison(other), backend

    def test_fault_excludes_elevator_from_new_assignments(self):
        spec = _spec(policy="adele", scenario=ScenarioSpec(events=(
            ElevatorFault(cycle=0, elevator=0),
        )))
        result = run_experiment(spec)
        assert 0 not in result.stats.elevator_assignments
        assert result.stats.packets_delivered > 0


# ---------------------------------------------------------------------- #
# Runtime semantics
# ---------------------------------------------------------------------- #
class TestRuntime:
    def _network_and_source(self, policy_name: str = "elevator_first"):
        from repro.analysis.runner import build_network, build_packet_source

        spec = _spec(policy=policy_name)
        placement = spec.placement.resolve()
        network = build_network(spec, placement=placement)
        source = build_packet_source(spec, placement)
        return network, source

    def test_events_past_injection_window_rejected(self):
        network, source = self._network_and_source()
        scenario = ScenarioSpec(events=(StatsMarker(cycle=500, label="late"),))
        with pytest.raises(ValueError, match="drain"):
            ScenarioRuntime(scenario, network, source, injection_end=180)

    def test_bad_elevator_index_fails_at_construction(self):
        network, source = self._network_and_source()
        scenario = ScenarioSpec(events=(ElevatorFault(cycle=10, elevator=9),))
        with pytest.raises(ValueError, match="out of range"):
            ScenarioRuntime(scenario, network, source, injection_end=180)

    def test_traffic_events_need_bernoulli_source(self):
        network, _ = self._network_and_source()
        trace = TrafficTrace([])
        scenario = ScenarioSpec(events=(
            TrafficPhase(cycle=5, injection_rate=0.1),
        ))
        with pytest.raises(ValueError, match="Bernoulli"):
            ScenarioRuntime(scenario, network, TracePacketSource(trace))

    def test_finalize_restores_faults_links_and_traffic(self):
        network, source = self._network_and_source()
        placement = network.placement
        scenario = ScenarioSpec(events=(
            ElevatorFault(cycle=10, elevator=0),
            TrafficPhase(cycle=20, pattern="shuffle", injection_rate=0.2),
        ))
        original_pattern = source.pattern
        runtime = ScenarioRuntime(scenario, network, source, injection_end=180)
        runtime.begin()
        runtime.advance(25)
        assert placement.is_faulty(0)
        assert network.severed_elevators() == {0}
        bottom = placement.elevator_node(placement.elevator_by_index(0), 0)
        assert network.neighbor(bottom, Port.UP) is None
        assert source.packet_probability == pytest.approx(0.2)

        runtime.finalize(180)
        assert not placement.is_faulty(0)
        assert network.severed_elevators() == set()
        assert network.neighbor(bottom, Port.UP) is not None
        assert source.pattern is original_pattern
        assert source.packet_probability == pytest.approx(0.02)
        # The last phase window was closed at the final cycle.
        assert network.stats.phases[-1].end_cycle == 180

    def test_failing_last_healthy_elevator_rejected(self):
        network, _ = self._network_and_source()
        network.fail_elevator(0)
        with pytest.raises(ValueError, match="no healthy elevator"):
            network.fail_elevator(1)
        # The rejected fault left nothing behind: e1 stays healthy/linked.
        assert not network.placement.is_faulty(1)
        assert network.severed_elevators() == {0}

    def test_pattern_only_phase_keeps_ramp_running(self):
        network, source = self._network_and_source()
        scenario = ScenarioSpec(events=(
            RateRamp(cycle=10, end_cycle=30, end_rate=0.22, start_rate=0.02),
            TrafficPhase(cycle=20, pattern="shuffle"),
        ))
        runtime = ScenarioRuntime(scenario, network, source, injection_end=180)
        runtime.begin()
        runtime.advance(20)
        assert source.packet_probability == pytest.approx(0.12)
        runtime.advance(30)
        assert source.packet_probability == pytest.approx(0.22)

    def test_explicit_rate_phase_cancels_ramp(self):
        network, source = self._network_and_source()
        scenario = ScenarioSpec(events=(
            RateRamp(cycle=10, end_cycle=30, end_rate=0.22, start_rate=0.02),
            TrafficPhase(cycle=20, injection_rate=0.05),
        ))
        runtime = ScenarioRuntime(scenario, network, source, injection_end=180)
        runtime.begin()
        runtime.advance(25)
        assert source.packet_probability == pytest.approx(0.05)
        runtime.advance(30)
        assert source.packet_probability == pytest.approx(0.05)

    def test_restore_with_preexisting_fault_repaired_midrun(self):
        # The pre-run world has e0 faulty (old-style mark_faulty before
        # network construction); the scenario repairs e0 and faults e1.
        # Restoration must repair the scenario fault *first* -- re-marking
        # e0 while e1 was still down would trip the last-healthy-elevator
        # guard -- and must return exactly the pre-run state: e0 marked
        # faulty but (as before the run) fully linked.
        from repro.analysis.runner import build_network, build_packet_source

        spec = _spec()
        placement = spec.placement.resolve()
        placement.mark_faulty(0)
        network = build_network(spec, placement=placement)
        source = build_packet_source(spec, placement)
        scenario = ScenarioSpec(events=(
            ElevatorRepair(cycle=20, elevator=0),
            ElevatorFault(cycle=40, elevator=1),
        ))
        runtime = ScenarioRuntime(scenario, network, source, injection_end=180)
        runtime.begin()
        runtime.advance(50)
        assert not placement.is_faulty(0) and placement.is_faulty(1)
        runtime.finalize(180)
        assert placement.is_faulty(0) and not placement.is_faulty(1)
        assert network.severed_elevators() == set()

    def test_ramp_interpolates_linearly(self):
        network, source = self._network_and_source()
        scenario = ScenarioSpec(events=(
            RateRamp(cycle=10, end_cycle=20, end_rate=0.12, start_rate=0.02),
        ))
        runtime = ScenarioRuntime(scenario, network, source, injection_end=180)
        runtime.begin()
        runtime.advance(10)
        assert source.packet_probability == pytest.approx(0.02)
        runtime.advance(15)
        assert source.packet_probability == pytest.approx(0.07)
        runtime.advance(20)
        assert source.packet_probability == pytest.approx(0.12)

    def test_ramp_boundary_pins_start_rate_at_ramp_cycle(self):
        # Regression: at exactly ramp.cycle the rate must be the ramp's
        # start rate (no interpolation step yet), distinct from the base
        # injection rate it overrides.
        network, source = self._network_and_source()
        scenario = ScenarioSpec(events=(
            RateRamp(cycle=10, end_cycle=20, end_rate=0.14, start_rate=0.04),
        ))
        runtime = ScenarioRuntime(scenario, network, source, injection_end=180)
        runtime.begin()
        runtime.advance(10)
        assert source.packet_probability == pytest.approx(0.04)
        runtime.advance(11)
        assert source.packet_probability == pytest.approx(0.05)

    def test_overlapping_ramps_chain_at_the_interpolated_rate(self):
        # Regression: a second ramp starting mid-flight used to read the
        # *stale* pre-ramp rate as its implicit start rate.  The outgoing
        # ramp is now advanced to the handover cycle first, so the new ramp
        # departs from the rate actually in effect.
        network, source = self._network_and_source()
        scenario = ScenarioSpec(events=(
            RateRamp(cycle=10, end_cycle=30, end_rate=0.22, start_rate=0.02),
            RateRamp(cycle=20, end_cycle=40, end_rate=0.30),
        ))
        runtime = ScenarioRuntime(scenario, network, source, injection_end=180)
        runtime.begin()
        runtime.advance(20)
        # Handover: the first ramp's value at cycle 20 is 0.12.
        assert source.packet_probability == pytest.approx(0.12)
        runtime.advance(30)
        assert source.packet_probability == pytest.approx(0.21)
        runtime.advance(40)
        assert source.packet_probability == pytest.approx(0.30)

    def test_adele_rebuild_preserves_learned_costs(self):
        from repro.routing.adele import AdElePolicy
        from repro.sim.network import Network

        placement = _placement()
        policy = AdElePolicy(
            placement,
            subsets={node: [0, 1] for node in placement.mesh.nodes()},
        )
        network = Network(placement, policy)
        node = 3
        policy.notify_source_latency(node, 1, 2.5)
        cost_before = policy.cost(node, 1)
        assert cost_before > 0.0
        network.fail_elevator(0)
        assert policy.subset_indices(node) == [1]
        assert policy.cost(node, 1) == cost_before
        network.repair_elevator(0)
        assert 0 in policy.subset_indices(node)
        assert policy.cost(node, 1) == cost_before

    def test_network_reset_restores_links(self):
        network, _ = self._network_and_source()
        network.fail_elevator(0)
        assert network.severed_elevators() == {0}
        network.reset()
        assert network.severed_elevators() == set()


# ---------------------------------------------------------------------- #
# Scenarios through api.run
# ---------------------------------------------------------------------- #
class TestRunScenarioApi:
    def test_argument_overrides_spec(self):
        spec = _spec(scenario=ScenarioSpec(events=(
            StatsMarker(cycle=40, label="early"),
        )))
        scenario = ScenarioSpec(events=(StatsMarker(cycle=50, label="mid"),))
        result = api.run(spec.with_(scenario=scenario))
        assert [phase.label for phase in result.stats.phases] == [
            BASELINE_PHASE_LABEL,
            "mid",
        ]
        assert result.summary()["phases"][1]["label"] == "mid"


# ---------------------------------------------------------------------- #
# Shared placements must not leak scenario fault state
# ---------------------------------------------------------------------- #
class TestSharedPlacementIsolation:
    def test_back_to_back_runs_identical(self):
        spec = _spec(policy="adele", scenario=ScenarioSpec(events=(
            ElevatorFault(cycle=60, elevator=0),
        )))
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert _full_comparison(first) == _full_comparison(second)

    def test_scenario_then_plain_run_matches_plain_baseline(self):
        plain = _spec(policy="elevator_first")
        baseline = run_experiment(plain)
        run_experiment(plain.with_(scenario=ScenarioSpec(events=(
            ElevatorFault(cycle=60, elevator=0),
        ))))
        after = run_experiment(plain)
        assert _full_comparison(baseline) == _full_comparison(after)

    def test_direct_network_reuse_with_scenario(self):
        # run_experiment(network=...) resets the network between runs; a
        # scenario on the first run must not contaminate the second.
        from repro.analysis.runner import build_network

        plain = _spec(policy="elevator_first")
        scenario_spec = plain.with_(scenario=ScenarioSpec(events=(
            ElevatorFault(cycle=60, elevator=0),
        )))
        placement = plain.placement.resolve()
        network = build_network(plain, placement=placement)
        run_experiment(scenario_spec, network=network)
        reused = run_experiment(plain, network=network)
        fresh = run_experiment(plain)
        assert _full_comparison(reused) == _full_comparison(fresh)
