"""Pluggable simulation kernels: registry, equivalence, active-set invariants.

The backend contract is strict: every registered kernel must produce
*bit-identical* results -- statistics counters, latency samples, drain
accounting -- for the same network, packet source and seed.  These tests pin
that contract down with a cross-backend matrix over policies, traffic
patterns and injection rates (including saturation), hypothesis-generated
random specs, and direct checks of the active-set bookkeeping the optimized
kernel relies on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.runner import run_experiment
from repro.exec.cache import config_key
from repro.registry import UnknownComponentError
from repro.routing import make_policy
from repro.routing.base import PrecomputedRoutes, compute_output_port
from repro.scenario import ElevatorFault, ElevatorRepair, ScenarioSpec
from repro.sim.backends import (
    BACKEND_REGISTRY,
    DEFAULT_BACKEND,
    SimulatorBackend,
    available_backends,
    resolve_backend,
)
from repro.sim.backends.optimized import OptimizedBackend
from repro.sim.backends.reference import ReferenceBackend
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.stats import SimulationStats
from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.generator import BernoulliPacketSource, TracePacketSource
from repro.traffic.patterns import UniformTraffic
from repro.traffic.trace import TraceEvent, TrafficTrace

#: Backends under the bit-identity contract.
ALL_BACKENDS = ["reference", "optimized"]


def _placement(shape=(3, 3, 2), columns=((0, 0), (2, 2))) -> ElevatorPlacement:
    return ElevatorPlacement(Mesh3D(*shape), list(columns), name="backend-test")


def _spec(backend: str, **overrides) -> ExperimentSpec:
    placement = _placement()
    spec = ExperimentSpec(
        placement=PlacementSpec.from_placement(placement),
        policy=PolicySpec(name="elevator_first"),
        traffic=TrafficSpec(pattern="uniform", injection_rate=0.02),
        sim=SimSpec(
            warmup_cycles=30,
            measurement_cycles=150,
            drain_cycles=200,
            seed=11,
            backend=backend,
        ),
    )
    return spec.with_(**overrides) if overrides else spec


def _full_stats_fields(stats: SimulationStats) -> dict:
    """Every comparable stats field (excludes only the reservoir RNG)."""
    return {
        "packets_created": stats.packets_created,
        "packets_delivered": stats.packets_delivered,
        "flits_injected": stats.flits_injected,
        "flits_delivered": stats.flits_delivered,
        "total_latency": stats.total_latency,
        "total_network_latency": stats.total_network_latency,
        "total_hops": stats.total_hops,
        "total_vertical_hops": stats.total_vertical_hops,
        "router_traversals": stats.router_traversals,
        "horizontal_link_traversals": stats.horizontal_link_traversals,
        "vertical_link_traversals": stats.vertical_link_traversals,
        "elevator_assignments": stats.elevator_assignments,
        "latencies": stats.latencies,
        "latency_samples_seen": stats.latency_samples_seen,
    }


class TestRegistry:
    def test_bundled_backends_registered(self):
        assert "reference" in BACKEND_REGISTRY
        assert "optimized" in BACKEND_REGISTRY
        assert available_backends() == ["optimized", "reference"]

    def test_vectorized_spelling_is_the_default_kernel(self):
        spec = _spec("vectorized")
        assert run_experiment(spec).backend_name == "optimized"
        assert config_key(spec) == config_key(spec.with_(backend=DEFAULT_BACKEND))

    def test_default_is_optimized(self):
        assert DEFAULT_BACKEND == "optimized"
        assert resolve_backend(None).name == "optimized"

    def test_resolve_accepts_name_alias_instance_and_class(self):
        assert isinstance(resolve_backend("reference"), ReferenceBackend)
        assert isinstance(resolve_backend("active-set"), OptimizedBackend)
        instance = ReferenceBackend()
        assert resolve_backend(instance) is instance
        assert isinstance(resolve_backend(OptimizedBackend), OptimizedBackend)

    def test_unknown_backend_raises_value_error(self):
        with pytest.raises(UnknownComponentError):
            resolve_backend("warp-drive")
        with pytest.raises(ValueError):
            resolve_backend("warp-drive")

    def test_simulator_resolves_backend_by_name(self):
        placement = _placement()
        network = Network(placement, make_policy("elevator_first", placement))
        source = BernoulliPacketSource(UniformTraffic(placement.mesh), 0.0)
        sim = Simulator(network, source, 10, 20, 10, backend="reference")
        assert isinstance(sim.backend, ReferenceBackend)
        assert sim.run().backend_name == "reference"

    def test_custom_backend_registration_roundtrip(self):
        @BACKEND_REGISTRY.register("test-noop", description="for tests")
        class NoopBackend(SimulatorBackend):
            name = "test-noop"

            def execute(self, network, packet_source, *, warmup_cycles,
                        measurement_cycles, drain_cycles):
                return 0

        try:
            assert isinstance(resolve_backend("test-noop"), NoopBackend)
        finally:
            BACKEND_REGISTRY.unregister("test-noop")


class TestPrecomputedRoutes:
    def test_exhaustively_matches_compute_output_port(self):
        mesh = Mesh3D(3, 3, 3)
        routes = PrecomputedRoutes(mesh)
        columns = [(x, y) for x in range(3) for y in range(3)]
        for current in range(mesh.num_nodes):
            for destination in range(mesh.num_nodes):
                if current == destination:
                    continue
                if mesh.same_layer(current, destination):
                    assert routes.port_for(current, destination, None) == (
                        compute_output_port(mesh, current, destination, None)
                    )
                else:
                    for column in columns:
                        assert routes.port_for(current, destination, column) == (
                            compute_output_port(mesh, current, destination, column)
                        )

    def test_interlayer_without_elevator_raises(self):
        mesh = Mesh3D(2, 2, 2)
        routes = PrecomputedRoutes(mesh)
        up = mesh.node_id_xyz(0, 0, 1)
        with pytest.raises(ValueError):
            routes.port_for(0, up, None)


class TestCrossBackendEquivalence:
    """reference == optimized, bit for bit, over a policy x traffic x rate
    matrix that spans empty, flowing and saturated networks."""

    @pytest.mark.parametrize("policy", ["elevator_first", "cda", "minimal"])
    @pytest.mark.parametrize("rate", [0.0, 0.01, 0.08])
    def test_summary_and_stats_identical(self, policy, rate):
        results = {
            backend: run_experiment(
                _spec(backend, policy=policy, injection_rate=rate)
            )
            for backend in ALL_BACKENDS
        }
        ref = results["reference"]
        for backend in ALL_BACKENDS[1:]:
            other = results[backend]
            assert ref.summary() == other.summary(), backend
            assert ref.drain_cycles_used == other.drain_cycles_used, backend
            assert _full_stats_fields(ref.stats) == (
                _full_stats_fields(other.stats)
            ), backend

    @pytest.mark.parametrize("pattern", ["shuffle", "hotspot", "transpose"])
    def test_patterns_identical(self, pattern):
        results = [
            run_experiment(_spec(backend, traffic=pattern))
            for backend in ALL_BACKENDS
        ]
        for other in results[1:]:
            assert results[0].summary() == other.summary()
            assert _full_stats_fields(results[0].stats) == (
                _full_stats_fields(other.stats)
            )

    def test_trace_source_identical(self):
        placement = _placement()
        mesh = placement.mesh
        events = [
            TraceEvent(cycle=c, source=s, destination=(s + 5) % mesh.num_nodes, length=4)
            for c in (0, 1, 1, 7)
            for s in (0, 3)
        ]
        trace = TrafficTrace(events)
        results = []
        for backend in ALL_BACKENDS:
            network = Network(placement, make_policy("elevator_first", placement))
            sim = Simulator(
                network, TracePacketSource(trace), 5, 40, 100, backend=backend
            )
            results.append(sim.run())
        for other in results[1:]:
            assert results[0].summary() == other.summary()
            assert results[0].drain_cycles_used == other.drain_cycles_used

    def test_second_run_on_saturated_network_identical(self):
        """The optimized kernel syncs allocation state back into the
        routers, so re-running a network left mid-wormhole (saturated,
        drain exhausted) behaves exactly like the reference kernel."""
        results = {}
        for backend in ALL_BACKENDS:
            placement = _placement()
            network = Network(placement, make_policy("elevator_first", placement))
            source = BernoulliPacketSource(
                UniformTraffic(placement.mesh, seed=7), 0.2, seed=7
            )
            sim = Simulator(network, source, 10, 80, 30, backend=backend)
            first = sim.run()
            assert first.drain_cycles_used == 30  # saturated: drain exhausted
            results[backend] = sim.run()  # resumes from in-flight state
        ref = results["reference"]
        for backend in ALL_BACKENDS[1:]:
            assert ref.summary() == results[backend].summary(), backend
            assert _full_stats_fields(ref.stats) == (
                _full_stats_fields(results[backend].stats)
            ), backend

    def test_adele_policy_identical(self, tiny_amosa):
        spec = _spec(
            "reference",
            policy=PolicySpec(name="adele", options={"max_subset_size": 2}),
        )
        ref = run_experiment(spec)
        for backend in ALL_BACKENDS[1:]:
            other = run_experiment(spec.with_(backend=backend))
            assert ref.summary() == other.summary(), backend
            assert _full_stats_fields(ref.stats) == (
                _full_stats_fields(other.stats)
            ), backend


@pytest.fixture
def tiny_amosa(monkeypatch):
    from repro.analysis import runner
    from repro.core.amosa import AmosaConfig
    from repro.core.optimizers import AmosaSearch

    monkeypatch.setattr(
        AmosaSearch,
        "config_defaults",
        AmosaConfig(
            initial_temperature=5.0,
            final_temperature=0.5,
            cooling_rate=0.6,
            iterations_per_temperature=8,
            hard_limit=6,
            soft_limit=12,
            initial_solutions=3,
            seed=2,
        ),
    )
    runner.clear_design_cache()
    yield
    runner.clear_design_cache()


class TestHypothesisEquivalence:
    """Random small specs agree across backends (property-based)."""

    @given(
        shape=st.tuples(
            st.integers(min_value=2, max_value=3),
            st.integers(min_value=2, max_value=3),
            st.integers(min_value=2, max_value=3),
        ),
        rate=st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**16),
        policy=st.sampled_from(["elevator_first", "cda"]),
        columns=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_specs_agree(self, shape, rate, seed, policy, columns):
        column_list = [(0, 0), (shape[0] - 1, shape[1] - 1)][:columns]
        placement = ElevatorPlacement(Mesh3D(*shape), column_list, name="hyp")
        spec = ExperimentSpec(
            placement=PlacementSpec.from_placement(placement),
            policy=PolicySpec(name=policy),
            traffic=TrafficSpec(pattern="uniform", injection_rate=rate),
            sim=SimSpec(
                warmup_cycles=10,
                measurement_cycles=60,
                drain_cycles=80,
                seed=seed,
                backend="reference",
            ),
        )
        ref = run_experiment(spec)
        for backend in ALL_BACKENDS[1:]:
            other = run_experiment(spec.with_(backend=backend))
            assert ref.summary() == other.summary(), backend
            assert ref.drain_cycles_used == other.drain_cycles_used, backend
            assert _full_stats_fields(ref.stats) == (
                _full_stats_fields(other.stats)
            ), backend


def _allocation_state(network: Network) -> list:
    """Every router's routes, output-VC owners and round-robin pointers."""
    return [
        (dict(router._route), dict(router._output_owner), dict(router._rr_pointer))
        for router in network.routers
    ]


class TestFusedPass:
    """The one-pass kernel against ``reference`` where its exactness rules
    bite: wide channel masks, wrapped round-robin pointers, and scenario
    events at the edges of the measurement window."""

    @given(
        num_vcs=st.integers(min_value=2, max_value=4),
        buffer_depth=st.integers(min_value=1, max_value=4),
        rate=st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**16),
        policy=st.sampled_from(["elevator_first", "cda"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_wide_masks_and_shallow_buffers_agree(
        self, num_vcs, buffer_depth, rate, seed, policy
    ):
        # 14-28 input channels per router; short packets (single-flit ones
        # included) at up to saturating rates rotate every mask width and
        # wrap the round-robin pointers.
        runs = {}
        for backend in ALL_BACKENDS:
            placement = _placement()
            network = Network(
                placement,
                make_policy(policy, placement),
                num_vcs=num_vcs,
                buffer_depth=buffer_depth,
            )
            source = BernoulliPacketSource(
                UniformTraffic(placement.mesh, seed=seed),
                rate,
                min_packet_length=1,
                max_packet_length=6,
                seed=seed,
            )
            result = Simulator(network, source, 10, 60, 40, backend=backend).run()
            runs[backend] = (
                result.summary(),
                result.drain_cycles_used,
                _full_stats_fields(result.stats),
                _allocation_state(network),
            )
        assert runs["reference"] == runs["optimized"]

    @pytest.mark.parametrize(
        "policy",
        ["cda", PolicySpec(name="adele", options={"max_subset_size": 2})],
        ids=["cda", "adele"],
    )
    def test_fault_timeline_at_the_window_edges(self, policy, tiny_amosa):
        # Warm-up ends at cycle 30 and injection at 180: the fault opens a
        # phase while nothing is measured, the repair fires on the last
        # injection cycle.
        scenario = ScenarioSpec(events=(
            ElevatorFault(cycle=12, elevator=1),
            ElevatorRepair(cycle=179, elevator=1),
        ))
        spec = _spec(
            "reference", policy=policy, injection_rate=0.05, scenario=scenario
        )
        ref = run_experiment(spec)
        assert [phase.start_cycle for phase in ref.stats.phases] == [0, 12, 179]
        for backend in ALL_BACKENDS[1:]:
            other = run_experiment(spec.with_(backend=backend))
            assert ref.summary() == other.summary(), backend
            assert ref.drain_cycles_used == other.drain_cycles_used, backend
            assert _full_stats_fields(ref.stats) == (
                _full_stats_fields(other.stats)
            ), backend

    def test_buffer_occupancy_is_the_sum_of_visible_flits(self):
        placement = _placement()
        network = Network(placement, make_policy("cda", placement))

        def check() -> int:
            busy = 0
            for router in network.routers:
                expected = sum(
                    buf.occupancy for buf in router.input_buffers.values()
                )
                assert router.buffer_occupancy() == expected
                busy += expected > 0
            return busy

        class CheckingSource(BernoulliPacketSource):
            busy = 0

            def requests(self, cycle):
                CheckingSource.busy += check()
                return super().requests(cycle)

        source = CheckingSource(UniformTraffic(placement.mesh, seed=4), 0.1, seed=4)
        Simulator(network, source, 10, 60, 0, backend="optimized").run()
        assert CheckingSource.busy > 0  # checked while flits were buffered
        assert check() > 0  # no drain: the run ends with flits in flight
        network.reset()
        assert check() == 0


class TestActiveSetInvariants:
    def test_fresh_network_is_idle_with_empty_active_set(self):
        placement = _placement()
        network = Network(placement, make_policy("elevator_first", placement))
        assert network.is_idle()
        assert network.active_routers() == set()
        assert network.pending_injections() == 0

    def test_create_packet_marks_live_queue_then_inject_activates_router(self):
        placement = _placement()
        network = Network(placement, make_policy("elevator_first", placement))
        mesh = placement.mesh
        src = mesh.node_id_xyz(0, 0, 0)
        dst = mesh.node_id_xyz(1, 0, 0)
        network.create_packet(src, dst, 3, cycle=0)
        assert not network.is_idle()
        assert network.pending_injections() == 3
        network.inject(0)
        assert src in network.active_routers()
        assert network.pending_injections() == 0
        assert not network.is_idle()

    def test_is_idle_prunes_drained_routers(self):
        placement = _placement()
        network = Network(placement, make_policy("elevator_first", placement))
        mesh = placement.mesh
        src = mesh.node_id_xyz(0, 0, 0)
        dst = mesh.node_id_xyz(1, 0, 0)
        packet = network.create_packet(src, dst, 2, cycle=0)
        for cycle in range(20):
            network.inject(cycle)
            network.step(cycle)
            if packet.delivery_cycle is not None:
                break
        assert packet.delivery_cycle is not None
        assert network.is_idle()
        # Every router was verified empty and pruned by the idle check.
        assert network.active_routers() == set()

    def test_optimized_run_leaves_truthful_idle_state(self):
        spec = _spec("optimized", injection_rate=0.01)
        result = run_experiment(spec)
        assert result.stats.packets_delivered > 0
        # A saturated run ends with flits in flight: every router holding
        # one must be in the network's active set, or a later reference
        # run would take the network for drained.
        placement = _placement()
        network = Network(placement, make_policy("elevator_first", placement))
        source = BernoulliPacketSource(
            UniformTraffic(placement.mesh, seed=7), 0.2, seed=7
        )
        Simulator(network, source, 10, 80, 30, backend="optimized").run()
        busy = {router.node_id for router in network.routers if router.has_traffic()}
        assert busy and busy <= network.active_routers()
        assert not network.is_idle()

    def test_reset_clears_active_tracking(self):
        placement = _placement()
        network = Network(placement, make_policy("elevator_first", placement))
        mesh = placement.mesh
        network.create_packet(
            mesh.node_id_xyz(0, 0, 0), mesh.node_id_xyz(2, 2, 1), 4, cycle=0
        )
        network.inject(0)
        network.step(0)
        network.reset()
        assert network.active_routers() == set()
        assert network.is_idle()


class TestDrainAccounting:
    """Regression: drain_cycles_used must be 0 -- never stale -- when the
    network is already idle at injection end."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_zero_rate_uses_zero_drain_cycles(self, backend):
        result = run_experiment(_spec(backend, injection_rate=0.0))
        assert result.drain_cycles_used == 0
        assert result.stats.packets_created == 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_early_trace_drained_before_injection_end(self, backend):
        # One early packet, then a long quiet measurement window: everything
        # is delivered long before injection stops, so no drain cycle runs.
        placement = _placement()
        mesh = placement.mesh
        trace = TrafficTrace(
            [TraceEvent(cycle=0, source=0, destination=mesh.node_id_xyz(1, 0, 0), length=2)]
        )
        network = Network(placement, make_policy("elevator_first", placement))
        sim = Simulator(
            network, TracePacketSource(trace), 0, 200, 300, backend=backend
        )
        result = sim.run()
        assert result.stats.packets_delivered == 1
        assert result.drain_cycles_used == 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_late_packet_uses_positive_drain(self, backend):
        # A packet injected on the last measured cycle needs drain cycles.
        placement = _placement()
        mesh = placement.mesh
        far = mesh.node_id_xyz(2, 2, 1)
        trace = TrafficTrace(
            [TraceEvent(cycle=49, source=0, destination=far, length=3)]
        )
        network = Network(placement, make_policy("elevator_first", placement))
        sim = Simulator(
            network, TracePacketSource(trace), 0, 50, 300, backend=backend
        )
        result = sim.run()
        assert result.stats.packets_delivered == 1
        assert result.drain_cycles_used > 0


class TestSaturatedDrainAccounting:
    """Satellite regression: a saturated mesh must exhaust its drain budget
    and report identical drain / undelivered-packet accounting on every
    backend."""

    RATE = 0.2

    def _run(self, backend):
        return run_experiment(
            _spec(
                backend,
                injection_rate=self.RATE,
                warmup_cycles=10,
                measurement_cycles=80,
                drain_cycles=40,
            )
        )

    def test_drain_budget_exhausted_and_undelivered_counted(self):
        results = {backend: self._run(backend) for backend in ALL_BACKENDS}
        ref = results["reference"]
        # Saturated: the drain budget is used in full and a backlog of
        # measured packets never arrives.
        assert ref.drain_cycles_used == 40
        assert ref.stats.packets_created > ref.stats.packets_delivered
        assert ref.saturated
        undelivered = ref.stats.packets_created - ref.stats.packets_delivered
        assert undelivered > 0
        for backend in ALL_BACKENDS[1:]:
            other = results[backend]
            assert other.drain_cycles_used == 40, backend
            assert other.stats.packets_created == (
                ref.stats.packets_created
            ), backend
            assert other.stats.packets_delivered == (
                ref.stats.packets_delivered
            ), backend
            assert other.stats.flits_injected == ref.stats.flits_injected, backend
            assert other.stats.flits_delivered == (
                ref.stats.flits_delivered
            ), backend


class TestLatencyReservoir:
    def test_exact_below_capacity(self):
        stats = SimulationStats(latency_reservoir_size=10)
        for value in range(7):
            stats._observe_latency(float(value))
        assert stats.latencies == [float(v) for v in range(7)]
        assert stats.latency_samples_seen == 7
        assert stats.latency_percentile(100.0) == 6.0

    def test_bounded_beyond_capacity(self):
        stats = SimulationStats(latency_reservoir_size=16)
        for value in range(1000):
            stats._observe_latency(float(value))
        assert len(stats.latencies) == 16
        assert stats.latency_samples_seen == 1000
        # Samples are a subset of what was offered.
        assert all(0.0 <= v < 1000.0 for v in stats.latencies)
        assert stats.latency_percentile(50.0) < 1000.0

    def test_reservoir_is_deterministic(self):
        def fill():
            stats = SimulationStats(latency_reservoir_size=8)
            for value in range(500):
                stats._observe_latency(float(value))
            return stats.latencies

        assert fill() == fill()

    @settings(max_examples=20, deadline=None)
    @given(values=st.lists(
        st.integers(min_value=0, max_value=10**6).map(float),
        min_size=1, max_size=300,
    ), data=st.data())
    def test_exact_totals_survive_reservoir_overflow(self, values, data):
        """Past capacity the sample *set* is bounded, but the exact totals and
        sample counts must still be order-independent."""
        a = SimulationStats(latency_reservoir_size=16)
        b = SimulationStats(latency_reservoir_size=16)
        order = data.draw(st.permutations(values))
        for value in values:
            a._observe_latency(value)
            a.packets_delivered += 1
            a.total_latency += value
        for value in order:
            b._observe_latency(value)
            b.packets_delivered += 1
            b.total_latency += value
        assert a.latency_samples_seen == b.latency_samples_seen == len(values)
        assert len(a.latencies) <= 16 and len(b.latencies) <= 16
        assert a.total_latency == b.total_latency
        assert a.average_latency == b.average_latency

    def test_simulation_respects_small_reservoir(self):
        placement = _placement()
        network = Network(
            placement,
            make_policy("elevator_first", placement),
            stats=SimulationStats(latency_reservoir_size=5),
        )
        source = BernoulliPacketSource(
            UniformTraffic(placement.mesh, seed=4), 0.05, seed=4
        )
        result = Simulator(network, source, 10, 300, 200).run()
        assert result.stats.packets_delivered > 5
        assert len(result.stats.latencies) == 5
        assert result.stats.latency_samples_seen == result.stats.packets_delivered
        # Streaming totals are exact even though samples are reservoir-kept.
        assert result.average_latency < float("inf")
