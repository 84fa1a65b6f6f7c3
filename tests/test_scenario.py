"""The scenario subsystem: events, specs, dispatch, cross-backend identity.

The acceptance bar of the subsystem is the cross-backend matrix: both
event kinds, ``elevator-fault`` and ``elevator-repair``, must run
*bit-identically* on the ``reference`` and ``optimized`` kernels --
whole-run statistics, per-phase windows and delivered flits -- under
AdEle.  A spec without a scenario must keep a byte-identical
``config_key`` (pinned against the pre-scenario hash), so no disk-cache
entry is ever invalidated.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import run_experiment
from repro import api
from repro.exec.cache import canonical_config, config_key, derive_seed
from repro.scenario import (
    BASELINE_PHASE_LABEL,
    ElevatorFault,
    ElevatorRepair,
    ScenarioRuntime,
    ScenarioSpec,
    event_from_dict,
)
from repro.scenario.events import EVENT_KINDS
from repro.sim.router import Port
from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D

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
#: Kinds no longer accepted: the retired traffic events (spelled in parts,
#: so a search for their names finds no live use) and a retired alias.
RETIRED_KINDS = [
    "-".join(parts)
    for parts in (("traffic", "phase"), ("rate", "ramp"), ("stats", "marker"))
] + ["fault"]


class TestEvents:
    def test_registered_kinds(self):
        assert EVENT_KINDS == {
            "elevator-fault": ElevatorFault,
            "elevator-repair": ElevatorRepair,
        }

    @pytest.mark.parametrize(
        "event",
        [
            pytest.param(ElevatorFault(cycle=7, elevator=1), id="elevator-fault"),
            pytest.param(
                ElevatorRepair(cycle=9, elevator=1, label="fixed"),
                id="elevator-repair",
            ),
        ],
    )
    def test_event_round_trip(self, event):
        data = event.to_dict()
        rebuilt = event_from_dict(data)
        assert rebuilt == event
        assert rebuilt.to_dict() == data

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ElevatorFault(cycle=-1, elevator=0)
        with pytest.raises(ValueError):
            ElevatorRepair(cycle=True, elevator=0)
        with pytest.raises(ValueError):
            ElevatorFault(cycle=1, elevator=-2)
        with pytest.raises(ValueError):
            ElevatorRepair(cycle=1, elevator="0")

    def test_unknown_kind_raises_value_error(self):
        with pytest.raises(ValueError, match="elevator-fault.*elevator-repair"):
            event_from_dict({"kind": "earthquake", "cycle": 3})
        with pytest.raises(ValueError):
            event_from_dict({"cycle": 3})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            event_from_dict(
                {"kind": "elevator-fault", "cycle": 1, "elevator": 0, "oops": 2}
            )


class TestScenarioSpec:
    def test_orders_validated(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ScenarioSpec(events=(ElevatorFault(cycle=10, elevator=0),
                                 ElevatorRepair(cycle=5, elevator=0)))
        with pytest.raises(ValueError, match="ScenarioEvent"):
            ScenarioSpec(events=("not-an-event",))

    def test_round_trip_through_experiment_spec(self):
        scenario = ScenarioSpec(events=(
            ElevatorFault(cycle=5, elevator=1, label="early"),
            ElevatorRepair(cycle=40, elevator=1),
            ElevatorFault(cycle=60, elevator=0),
        ))
        spec = _spec(scenario=scenario)
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.scenario == scenario

    @pytest.mark.parametrize("kind", RETIRED_KINDS)
    def test_retired_kinds_are_rejected(self, kind):
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec.from_dict({"events": [{"kind": kind, "cycle": 10}]})
        message = str(excinfo.value)
        assert "elevator-fault" in message and "elevator-repair" in message

    def test_experiment_spec_rejects_events_past_the_injection_window(self):
        # Injection stops at warm-up + measurement = 180: cycle 179 is the
        # last one an event can fire at.
        inside = ScenarioSpec(events=(ElevatorFault(cycle=179, elevator=0),))
        assert _spec(scenario=inside).scenario == inside
        late = ScenarioSpec(events=(ElevatorFault(cycle=180, elevator=0),))
        with pytest.raises(ValueError, match="drain"):
            _spec(scenario=late)
        with pytest.raises(ValueError, match="drain"):
            _spec(scenario=inside).with_(measurement_cycles=100)
        with pytest.raises(ValueError, match="drain"):
            ExperimentSpec.from_dict(
                dict(_spec().to_dict(), scenario=late.to_dict())
            )


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


# ---------------------------------------------------------------------- #
# Cross-backend matrix (acceptance criterion)
# ---------------------------------------------------------------------- #
#: Kernels in the scenario cross-backend identity matrix.
MATRIX_BACKENDS = ["reference", "optimized"]

#: One scenario per event kind.  The completeness check below fails if a
#: kind is added without a matrix entry.
MATRIX_SCENARIOS = {
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
        assert set(EVENT_KINDS) == set(MATRIX_SCENARIOS), (
            "every scenario event kind needs a cross-backend matrix entry"
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
            ElevatorFault(cycle=10, elevator=1, label="early"),
            ElevatorRepair(cycle=50, elevator=1),
            ElevatorFault(cycle=60, elevator=0),
            ElevatorRepair(cycle=130, elevator=0),
            ElevatorFault(cycle=140, elevator=1),
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
        scenario = ScenarioSpec(events=(ElevatorFault(cycle=500, elevator=0),))
        with pytest.raises(ValueError, match="drain"):
            ScenarioRuntime(scenario, network, source, injection_end=180)

    def test_bad_elevator_index_fails_at_construction(self):
        network, source = self._network_and_source()
        scenario = ScenarioSpec(events=(ElevatorFault(cycle=10, elevator=9),))
        with pytest.raises(ValueError, match="out of range"):
            ScenarioRuntime(scenario, network, source, injection_end=180)

    def test_finalize_restores_faults_and_links(self):
        network, source = self._network_and_source()
        placement = network.placement
        scenario = ScenarioSpec(events=(ElevatorFault(cycle=10, elevator=0),))
        runtime = ScenarioRuntime(scenario, network, source, injection_end=180)
        runtime.begin()
        runtime.advance(25)
        assert placement.is_faulty(0)
        assert network.severed_elevators() == {0}
        bottom = placement.elevator_node(placement.elevator_by_index(0), 0)
        assert network.neighbor(bottom, Port.UP) is None

        runtime.finalize(180)
        assert not placement.is_faulty(0)
        assert network.severed_elevators() == set()
        assert network.neighbor(bottom, Port.UP) is not None
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
            ElevatorFault(cycle=40, elevator=0, label="early"),
        )))
        scenario = ScenarioSpec(events=(
            ElevatorFault(cycle=50, elevator=1, label="mid"),
        ))
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
