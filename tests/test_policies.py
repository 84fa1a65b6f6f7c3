"""Unit tests for the elevator-selection policies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import make_policy
from repro.routing.adele import AdElePolicy, AdEleRoundRobinPolicy, AdEleRouterState
from repro.routing.base import ElevatorSelectionPolicy, path_nodes
from repro.routing.cda import CDAPolicy
from repro.routing.elevator_first import ElevatorFirstPolicy
from repro.routing.minimal import MinimalPathPolicy
from repro.sim.flit import Packet
from repro.sim.network import Network
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D


@pytest.fixture
def placement():
    mesh = Mesh3D(4, 4, 2)
    return ElevatorPlacement(mesh, [(0, 0), (3, 3), (1, 2)], name="test")


class TestBasePolicy:
    def test_same_layer_returns_none(self, placement):
        policy = ElevatorFirstPolicy(placement)
        mesh = placement.mesh
        src = mesh.node_id_xyz(0, 0, 0)
        dst = mesh.node_id_xyz(3, 3, 0)
        assert policy.select_elevator(src, dst) is None

    def test_annotate_packet(self, placement):
        policy = ElevatorFirstPolicy(placement)
        packet = Packet(source=0, destination=1, length=2, creation_cycle=0)
        policy.annotate_packet(packet, placement.elevator_by_index(2))
        assert packet.elevator_index == 2
        assert packet.elevator_column == (1, 2)
        policy.annotate_packet(packet, None)
        assert packet.elevator_index is None

    def test_base_select_not_implemented(self, placement):
        policy = ElevatorSelectionPolicy(placement)
        with pytest.raises(NotImplementedError):
            policy.select_elevator(0, placement.mesh.num_nodes - 1)


class TestElevatorFirstPolicy:
    def test_selects_nearest_to_source(self, placement):
        policy = ElevatorFirstPolicy(placement)
        mesh = placement.mesh
        src = mesh.node_id_xyz(1, 0, 0)
        dst = mesh.node_id_xyz(3, 3, 1)
        chosen = policy.select_elevator(src, dst)
        assert chosen.column == (0, 0)

    def test_selection_ignores_destination(self, placement):
        policy = ElevatorFirstPolicy(placement)
        mesh = placement.mesh
        src = mesh.node_id_xyz(1, 0, 0)
        near_dst = mesh.node_id_xyz(0, 0, 1)
        far_dst = mesh.node_id_xyz(3, 3, 1)
        assert (
            policy.select_elevator(src, near_dst).index
            == policy.select_elevator(src, far_dst).index
        )

    def test_static_assignment_covers_all_nodes(self, placement):
        policy = ElevatorFirstPolicy(placement)
        assignment = policy.static_assignment()
        assert set(assignment.keys()) == set(placement.mesh.nodes())

    def test_faulty_elevator_avoided(self, placement):
        policy = ElevatorFirstPolicy(placement)
        mesh = placement.mesh
        src = mesh.node_id_xyz(0, 0, 0)
        dst = mesh.node_id_xyz(3, 3, 1)
        placement.mark_faulty(0)
        chosen = policy.select_elevator(src, dst)
        assert chosen.index != 0


class TestMinimalPathPolicy:
    def test_selects_distance_optimal_elevator(self, placement):
        policy = MinimalPathPolicy(placement)
        mesh = placement.mesh
        src = mesh.node_id_xyz(3, 2, 0)
        dst = mesh.node_id_xyz(3, 3, 1)
        assert policy.select_elevator(src, dst).column == (3, 3)

    def test_destination_changes_selection(self, placement):
        policy = MinimalPathPolicy(placement)
        mesh = placement.mesh
        src = mesh.node_id_xyz(2, 2, 0)
        toward_origin = mesh.node_id_xyz(0, 0, 1)
        toward_corner = mesh.node_id_xyz(3, 3, 1)
        assert (
            policy.select_elevator(src, toward_origin).index
            != policy.select_elevator(src, toward_corner).index
        )


class TestCDAPolicy:
    def test_zero_load_degrades_to_nearest(self, placement):
        policy = CDAPolicy(placement)
        network = Network(placement, policy)
        mesh = placement.mesh
        src = mesh.node_id_xyz(1, 0, 0)
        dst = mesh.node_id_xyz(3, 3, 1)
        chosen = policy.select_elevator(src, dst, network=network)
        assert chosen.column == (0, 0)

    def test_congestion_redirects_selection(self, placement):
        policy = CDAPolicy(placement)
        network = Network(placement, policy)
        mesh = placement.mesh
        src = mesh.node_id_xyz(1, 0, 0)
        dst = mesh.node_id_xyz(3, 3, 1)
        # Congest the nearest elevator's router heavily.
        congested_node = mesh.node_id_xyz(0, 0, 0)
        from repro.sim.router import Port

        buf = network.router(congested_node).buffer(Port.LOCAL, 0)
        filler = Packet(source=congested_node, destination=mesh.node_id_xyz(3, 0, 0),
                        length=4, creation_cycle=0)
        for flit in filler.make_flits():
            buf.stage(flit)
        buf.commit()
        chosen = policy.select_elevator(src, dst, network=network)
        assert chosen.column != (0, 0)

    def test_without_network_uses_distance_only(self, placement):
        policy = CDAPolicy(placement)
        mesh = placement.mesh
        src = mesh.node_id_xyz(2, 3, 0)
        dst = mesh.node_id_xyz(0, 0, 1)
        assert policy.select_elevator(src, dst, network=None).column == (3, 3)

    def test_invalid_parameters(self, placement):
        with pytest.raises(ValueError):
            CDAPolicy(placement, congestion_weight=-1)
        with pytest.raises(ValueError):
            CDAPolicy(placement, update_period=0)

    def test_stale_snapshot_respects_update_period(self, placement):
        policy = CDAPolicy(placement, update_period=10)
        network = Network(placement, policy)
        mesh = placement.mesh
        src = mesh.node_id_xyz(1, 0, 0)
        dst = mesh.node_id_xyz(3, 3, 1)
        # First selection snapshots an empty network.
        assert policy.select_elevator(src, dst, network=network, cycle=0).column == (0, 0)
        # Congest the nearest elevator; within the update period the stale
        # snapshot still shows it as free.
        from repro.sim.router import Port

        congested_node = mesh.node_id_xyz(0, 0, 0)
        buf = network.router(congested_node).buffer(Port.LOCAL, 0)
        filler = Packet(source=congested_node, destination=mesh.node_id_xyz(3, 0, 0),
                        length=4, creation_cycle=0)
        for flit in filler.make_flits():
            buf.stage(flit)
        buf.commit()
        assert policy.select_elevator(src, dst, network=network, cycle=5).column == (0, 0)
        # After the period expires the snapshot refreshes and CDA redirects.
        assert policy.select_elevator(src, dst, network=network, cycle=11).column != (0, 0)

    def test_reset_clears_snapshot(self, placement):
        policy = CDAPolicy(placement, update_period=100)
        network = Network(placement, policy)
        policy.select_elevator(0, placement.mesh.num_nodes - 1, network=network, cycle=0)
        policy.reset()
        assert policy._snapshot == {}

    def test_instantaneous_view_reads_only_candidate_paths(self, placement):
        mesh = placement.mesh
        placement.mark_faulty(2)
        policy = CDAPolicy(placement)
        network = Network(placement, policy)
        read = []
        occupancy_of = network.buffer_occupancy

        def counting_occupancy(node):
            read.append(node)
            return occupancy_of(node)

        network.buffer_occupancy = counting_occupancy
        for src in mesh.nodes():
            layer = mesh.coordinate(src).z
            dst = mesh.node_id_xyz(0, 0, 1 - layer)
            on_paths = set()
            for elevator in placement.healthy_elevators():
                elevator_node = placement.elevator_node(elevator, layer)
                on_paths.update(path_nodes(mesh, src, elevator_node, elevator.column))
            read.clear()
            policy.select_elevator(src, dst, network=network)
            assert src in read
            assert set(read) <= on_paths

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**30),
        congestion_weight=st.sampled_from([0.25, 1.0, 3.0]),
    )
    def test_selection_matches_full_mesh_oracle(self, seed, congestion_weight):
        rng = random.Random(seed)
        mesh = Mesh3D(4, 4, 4)
        cells = [(x, y) for x in range(4) for y in range(4)]
        placement = ElevatorPlacement(mesh, rng.sample(cells, rng.randint(1, 6)))
        if placement.num_elevators > 1 and rng.random() < 0.3:
            placement.mark_faulty(rng.randrange(placement.num_elevators))
        policy = CDAPolicy(placement, congestion_weight=congestion_weight)
        network = Network(placement, policy)
        for node in mesh.nodes():
            for buffer in network.router(node).input_buffers.values():
                if rng.random() < 0.3:
                    filler = Packet(
                        source=node,
                        destination=(node + 1) % mesh.num_nodes,
                        length=rng.randint(1, buffer.depth),
                        creation_cycle=0,
                    )
                    for flit in filler.make_flits():
                        buffer.stage(flit)
                    buffer.commit()
        full = {node: network.buffer_occupancy(node) for node in mesh.nodes()}

        def oracle_cost(src, elevator):
            coord = mesh.coordinate(src)
            elevator_node = placement.elevator_node(elevator, coord.z)
            path = path_nodes(mesh, src, elevator_node, elevator.column)
            distance = abs(coord.x - elevator.x) + abs(coord.y - elevator.y)
            return distance + congestion_weight * sum(full[node] for node in path)

        for _ in range(40):
            src, dst = rng.sample(range(mesh.num_nodes), 2)
            if mesh.same_layer(src, dst):
                continue
            expected = min(
                placement.healthy_elevators(), key=lambda e: oracle_cost(src, e)
            )
            assert policy.select_elevator(src, dst, network=network) == expected


class TestAdEleRouterState:
    def test_requires_nonempty_subset(self):
        with pytest.raises(ValueError):
            AdEleRouterState(subset=[])

    def test_relative_cost_uniform_when_untrained(self, placement):
        state = AdEleRouterState(subset=placement.elevators[:2])
        assert state.relative_cost(0) == pytest.approx(0.5)

    def test_cost_update_is_ewma(self, placement):
        state = AdEleRouterState(subset=placement.elevators[:2])
        state.update_cost(0, 1.0, alpha=0.2)
        assert state.costs[0] == pytest.approx(0.2)
        state.update_cost(0, 1.0, alpha=0.2)
        assert state.costs[0] == pytest.approx(0.36)

    def test_negative_metric_clamped(self, placement):
        state = AdEleRouterState(subset=placement.elevators[:2])
        state.update_cost(0, -0.5, alpha=0.2)
        assert state.costs[0] == 0.0

    def test_all_costs_below(self, placement):
        state = AdEleRouterState(subset=placement.elevators[:2])
        assert state.all_costs_below(0.1)
        state.update_cost(1, 5.0, alpha=1.0)
        assert not state.all_costs_below(0.1)


class TestAdElePolicy:
    def test_invalid_parameters(self, placement):
        with pytest.raises(ValueError):
            AdElePolicy(placement, alpha=1.5)
        with pytest.raises(ValueError):
            AdElePolicy(placement, xi=1.0)

    def test_default_subsets_cover_all_nodes(self, placement):
        policy = AdElePolicy(placement)
        for node in placement.mesh.nodes():
            assert policy.subset_indices(node) == [0, 1, 2]

    def test_explicit_subsets_respected(self, placement):
        subsets = {node: (0,) for node in placement.mesh.nodes()}
        policy = AdElePolicy(placement, subsets=subsets)
        mesh = placement.mesh
        chosen = policy.select_elevator(
            mesh.node_id_xyz(3, 3, 0), mesh.node_id_xyz(0, 0, 1)
        )
        assert chosen.index == 0

    def test_low_traffic_override_picks_minimal_path(self, placement):
        policy = AdElePolicy(placement, low_traffic_threshold=10.0)
        mesh = placement.mesh
        src = mesh.node_id_xyz(3, 2, 0)
        dst = mesh.node_id_xyz(3, 3, 1)
        # With untrained (zero) costs the override is active.
        assert policy.select_elevator(src, dst).column == (3, 3)

    def test_round_robin_when_override_disabled(self, placement):
        subsets = {node: (0, 1) for node in placement.mesh.nodes()}
        policy = AdElePolicy(placement, subsets=subsets, low_traffic_threshold=None, seed=1)
        mesh = placement.mesh
        src = mesh.node_id_xyz(1, 1, 0)
        dst = mesh.node_id_xyz(1, 1, 1)
        picks = [policy.select_elevator(src, dst).index for _ in range(8)]
        # With zero costs the skip probability is zero -> strict alternation.
        assert picks[:4] in ([0, 1, 0, 1], [1, 0, 1, 0])

    def test_skip_probability_follows_eq9(self, placement):
        policy = AdElePolicy(placement, xi=0.05)
        state = AdEleRouterState(subset=placement.elevators[:2])
        # Untrained: uniform relative cost -> no skipping.
        assert policy.skip_probability(state, 0) == 0.0
        # One elevator carries all the cost -> maximum skip probability.
        state.costs[0] = 1.0
        state.costs[1] = 0.0
        assert policy.skip_probability(state, 0) == pytest.approx(0.95)
        assert policy.skip_probability(state, 1) == 0.0
        # Intermediate relative cost -> linear region of Eq. 9.
        state.costs[1] = 0.5
        rel = 1.0 / 1.5
        expected = 2 * (rel - 0.5) * 0.95
        assert policy.skip_probability(state, 0) == pytest.approx(expected)

    def test_congested_elevator_is_skipped_more(self, placement):
        subsets = {node: (0, 1) for node in placement.mesh.nodes()}
        policy = AdElePolicy(placement, subsets=subsets, low_traffic_threshold=None, seed=3)
        mesh = placement.mesh
        src = mesh.node_id_xyz(1, 1, 0)
        dst = mesh.node_id_xyz(1, 1, 1)
        # Report heavy blocking through elevator 0 repeatedly.
        for _ in range(20):
            policy.notify_source_latency(src, 0, 5.0)
        picks = [policy.select_elevator(src, dst).index for _ in range(200)]
        share_of_zero = picks.count(0) / len(picks)
        assert share_of_zero < 0.3

    def test_exploration_keeps_congested_elevator_alive(self, placement):
        subsets = {node: (0, 1) for node in placement.mesh.nodes()}
        policy = AdElePolicy(placement, subsets=subsets, low_traffic_threshold=None,
                             xi=0.05, seed=5)
        mesh = placement.mesh
        src = mesh.node_id_xyz(1, 1, 0)
        dst = mesh.node_id_xyz(1, 1, 1)
        for _ in range(20):
            policy.notify_source_latency(src, 0, 10.0)
        picks = [policy.select_elevator(src, dst).index for _ in range(400)]
        assert picks.count(0) > 0  # xi guarantees occasional selection

    def test_notify_unknown_source_is_ignored(self, placement):
        policy = AdElePolicy(placement)
        policy.notify_source_latency(999999, 0, 1.0)  # must not raise

    def test_reset_restores_untrained_state(self, placement):
        policy = AdElePolicy(placement, seed=2)
        policy.notify_source_latency(0, 0, 3.0)
        assert policy.cost(0, 0) > 0
        policy.reset()
        assert policy.cost(0, 0) == 0.0

    def test_faulty_elevator_removed_from_subsets(self, placement):
        placement.mark_faulty(1)
        policy = AdElePolicy(placement, subsets={0: (0, 1)})
        assert policy.subset_indices(0) == [0]

    def test_single_elevator_subset_shortcut(self, placement):
        policy = AdElePolicy(placement, subsets={n: (2,) for n in placement.mesh.nodes()},
                             low_traffic_threshold=None)
        mesh = placement.mesh
        chosen = policy.select_elevator(mesh.node_id_xyz(0, 3, 0), mesh.node_id_xyz(0, 0, 1))
        assert chosen.index == 2


class TestAdEleRoundRobinPolicy:
    def test_plain_round_robin_ignores_feedback(self, placement):
        subsets = {node: (0, 1, 2) for node in placement.mesh.nodes()}
        policy = AdEleRoundRobinPolicy(placement, subsets=subsets)
        mesh = placement.mesh
        src = mesh.node_id_xyz(1, 1, 0)
        dst = mesh.node_id_xyz(1, 1, 1)
        for _ in range(10):
            policy.notify_source_latency(src, 0, 100.0)
        picks = [policy.select_elevator(src, dst).index for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_cost_state_never_trained(self, placement):
        policy = AdEleRoundRobinPolicy(placement)
        policy.notify_source_latency(0, 0, 10.0)
        assert policy.cost(0, 0) == 0.0


class TestPolicyFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("elevator_first", ElevatorFirstPolicy),
            ("cda", CDAPolicy),
            ("adele", AdElePolicy),
            ("adele_rr", AdEleRoundRobinPolicy),
            ("minimal", MinimalPathPolicy),
        ],
    )
    def test_make_policy(self, placement, name, cls):
        assert isinstance(make_policy(name, placement), cls)

    def test_unknown_policy(self, placement):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("random", placement)
