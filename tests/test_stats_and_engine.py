"""Unit tests for statistics collection and the simulation driver."""

import pytest

from repro.energy.model import EnergyModel
from repro.routing.elevator_first import ElevatorFirstPolicy
from repro.sim.engine import Simulator, run_simulation
from repro.sim.flit import Packet
from repro.sim.network import Network
from repro.sim.stats import SimulationStats
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.generator import BernoulliPacketSource, TracePacketSource
from repro.traffic.patterns import UniformTraffic
from repro.traffic.trace import TraceEvent, TrafficTrace


def make_network(shape=(2, 2, 2)):
    mesh = Mesh3D(*shape)
    placement = ElevatorPlacement(mesh, [(0, 0)])
    return Network(placement, ElevatorFirstPolicy(placement))


class TestSimulationStats:
    def _packet(self, creation=0, **kwargs):
        packet = Packet(source=0, destination=1, length=4, creation_cycle=creation)
        for key, value in kwargs.items():
            setattr(packet, key, value)
        return packet

    def test_measurement_window_filters_creation(self):
        stats = SimulationStats(measurement_start=100)
        early = self._packet(creation=50)
        late = self._packet(creation=150)
        stats.record_packet_created(early, cycle=50)
        stats.record_packet_created(late, cycle=150)
        assert stats.packets_created == 1

    def test_latency_accounting(self):
        stats = SimulationStats()
        packet = self._packet(creation=10, injection_cycle=12, delivery_cycle=40, hops=5)
        stats.record_packet_delivered(packet, cycle=40)
        assert stats.packets_delivered == 1
        assert stats.average_latency == 30
        assert stats.average_network_latency == 28
        assert stats.average_hops == 5

    def test_average_latency_inf_when_nothing_delivered(self):
        stats = SimulationStats()
        assert stats.average_latency == float("inf")

    def test_delivery_ratio(self):
        stats = SimulationStats()
        packet = self._packet(delivery_cycle=5)
        stats.record_packet_created(packet, cycle=0)
        assert stats.delivery_ratio == 0.0
        stats.record_packet_delivered(packet, cycle=5)
        assert stats.delivery_ratio == 1.0

    def test_delivery_ratio_defaults_to_one(self):
        assert SimulationStats().delivery_ratio == 1.0

    def test_latency_percentile(self):
        stats = SimulationStats()
        for latency in [10, 20, 30, 40]:
            packet = self._packet(creation=0, delivery_cycle=latency)
            stats.record_packet_delivered(packet, cycle=latency)
        assert stats.latency_percentile(0) == 10
        assert stats.latency_percentile(100) == 40
        with pytest.raises(ValueError):
            stats.latency_percentile(120)

    def test_latency_percentile_nearest_rank_even_length(self):
        # Regression: the old round()-based index banker's-rounded the p50
        # of an even-length sample up to the higher order statistic (30
        # here); nearest-rank (ceil) picks the n/2-th sample.
        stats = SimulationStats()
        for latency in [10, 20, 30, 40]:
            packet = self._packet(creation=0, delivery_cycle=latency)
            stats.record_packet_delivered(packet, cycle=latency)
        assert stats.latency_percentile(25) == 10
        assert stats.latency_percentile(50) == 20
        assert stats.latency_percentile(75) == 30
        assert stats.latency_percentile(99) == 40

    def test_latency_percentile_monotone(self):
        stats = SimulationStats()
        for latency in [3, 1, 4, 1, 5, 9]:
            packet = self._packet(creation=0, delivery_cycle=latency)
            stats.record_packet_delivered(packet, cycle=latency)
        values = [stats.latency_percentile(p) for p in range(0, 101, 5)]
        assert values == sorted(values)
        assert values[0] == 1
        assert values[-1] == 9

    def test_router_and_link_counters(self):
        stats = SimulationStats()
        packet = self._packet()
        stats.record_router_traversal(3, packet, cycle=0)
        stats.record_router_traversal(3, packet, cycle=1)
        stats.record_link_traversal(vertical=False, packet=packet, cycle=0)
        stats.record_link_traversal(vertical=True, packet=packet, cycle=0)
        assert stats.router_load(3) == 2
        assert stats.router_load(4) == 0
        assert stats.horizontal_link_traversals == 1
        assert stats.vertical_link_traversals == 1

    def test_throughput(self):
        stats = SimulationStats()
        packet = self._packet()
        for _ in range(8):
            stats.record_flit_delivered(packet, cycle=0)
        assert stats.throughput(measurement_cycles=4, num_nodes=2) == 1.0
        assert stats.throughput(0, 2) == 0.0

    def test_normalized_elevator_load(self):
        stats = SimulationStats()
        packet = self._packet()
        # Elevator column nodes 0 and 2 with load 6 each; plain nodes 1, 3
        # with load 2 and 4 (baseline mean 3).
        for node, count in [(0, 6), (2, 6), (1, 2), (3, 4)]:
            for _ in range(count):
                stats.record_router_traversal(node, packet, cycle=0)
        loads = stats.normalized_elevator_load({0: [0, 2]})
        assert loads[0] == pytest.approx(2.0)


class TestSimulator:
    def test_invalid_configuration(self):
        network = make_network()
        source = BernoulliPacketSource(UniformTraffic(network.mesh), 0.0)
        with pytest.raises(ValueError):
            Simulator(network, source, warmup_cycles=-1)
        with pytest.raises(ValueError):
            Simulator(network, source, measurement_cycles=0)

    def test_zero_traffic_run(self):
        network = make_network()
        source = BernoulliPacketSource(UniformTraffic(network.mesh), 0.0)
        result = Simulator(network, source, 10, 50, 10).run()
        assert result.delivered_packets == 0
        assert result.throughput == 0.0
        assert result.average_latency == float("inf")

    def test_trace_driven_run_delivers_all(self):
        network = make_network()
        mesh = network.mesh
        events = [
            TraceEvent(cycle=0, source=mesh.node_id_xyz(0, 0, 0),
                       destination=mesh.node_id_xyz(1, 1, 1), length=4),
            TraceEvent(cycle=5, source=mesh.node_id_xyz(1, 1, 0),
                       destination=mesh.node_id_xyz(0, 0, 1), length=6),
        ]
        source = TracePacketSource(TrafficTrace(events, mesh=mesh))
        result = Simulator(network, source, 0, 20, 200).run()
        assert result.delivered_packets == 2
        assert result.stats.delivery_ratio == 1.0
        assert result.average_latency > 0

    def test_energy_metrics_attached(self):
        network = make_network()
        mesh = network.mesh
        events = [
            TraceEvent(cycle=0, source=mesh.node_id_xyz(0, 0, 0),
                       destination=mesh.node_id_xyz(1, 1, 1), length=4),
        ]
        source = TracePacketSource(TrafficTrace(events, mesh=mesh))
        result = Simulator(network, source, 0, 10, 100, energy_model=EnergyModel()).run()
        assert result.energy_per_flit is not None and result.energy_per_flit > 0
        assert result.total_energy is not None and result.total_energy > 0

    def test_warmup_packets_not_measured(self):
        network = make_network()
        mesh = network.mesh
        events = [
            TraceEvent(cycle=0, source=mesh.node_id_xyz(0, 0, 0),
                       destination=mesh.node_id_xyz(1, 0, 0), length=2),
            TraceEvent(cycle=30, source=mesh.node_id_xyz(0, 0, 0),
                       destination=mesh.node_id_xyz(1, 0, 0), length=2),
        ]
        source = TracePacketSource(TrafficTrace(events, mesh=mesh))
        result = Simulator(network, source, warmup_cycles=20, measurement_cycles=30,
                           drain_cycles=100).run()
        assert result.stats.packets_created == 1
        assert result.delivered_packets == 1

    def test_summary_contains_headline_metrics(self):
        network = make_network()
        source = BernoulliPacketSource(UniformTraffic(network.mesh, seed=1), 0.05, seed=1)
        result = Simulator(network, source, 10, 100, 200, energy_model=EnergyModel()).run()
        summary = result.summary()
        for key in ("average_latency", "throughput", "delivery_ratio", "energy_per_flit"):
            assert key in summary

    def test_run_simulation_wrapper(self):
        network = make_network()
        source = BernoulliPacketSource(UniformTraffic(network.mesh, seed=2), 0.02, seed=2)
        result = run_simulation(network, source, warmup_cycles=10,
                                measurement_cycles=100, drain_cycles=200)
        assert result.num_nodes == network.mesh.num_nodes
        assert result.policy_name == "elevator_first"

    def test_saturated_flag(self):
        result_stats = SimulationStats()
        from repro.sim.engine import SimulationResult

        result = SimulationResult(
            stats=result_stats, warmup_cycles=0, measurement_cycles=10,
            drain_cycles_used=0, num_nodes=4, average_latency=float("inf"),
            throughput=0.0,
        )
        packet = Packet(source=0, destination=1, length=2, creation_cycle=0)
        result_stats.record_packet_created(packet, 0)
        assert result.saturated
