"""Unit tests for elevator placements."""

import pytest

from repro.topology.elevators import (
    PLACEMENT_REGISTRY,
    ElevatorPlacement,
    available_placements,
    average_distance_of_placement,
    register_placement,
    standard_placement,
)
from repro.topology.mesh3d import Mesh3D


class TestElevatorPlacement:
    def test_requires_elevator_for_multilayer(self):
        with pytest.raises(ValueError):
            ElevatorPlacement(Mesh3D(2, 2, 2), [])

    def test_single_layer_allows_no_elevator(self):
        placement = ElevatorPlacement(Mesh3D(2, 2, 1), [])
        assert placement.num_elevators == 0

    def test_rejects_out_of_range_column(self):
        with pytest.raises(ValueError):
            ElevatorPlacement(Mesh3D(2, 2, 2), [(2, 0)])

    def test_rejects_duplicate_column(self):
        with pytest.raises(ValueError):
            ElevatorPlacement(Mesh3D(2, 2, 2), [(0, 0), (0, 0)])

    def test_columns_preserve_order(self):
        placement = ElevatorPlacement(Mesh3D(3, 3, 2), [(2, 1), (0, 0)])
        assert placement.columns() == [(2, 1), (0, 0)]
        assert placement.elevator_by_index(0).column == (2, 1)

    def test_has_elevator(self, small_placement):
        mesh = small_placement.mesh
        assert small_placement.has_elevator(mesh.node_id_xyz(0, 0, 0))
        assert small_placement.has_elevator(mesh.node_id_xyz(0, 0, 1))
        assert not small_placement.has_elevator(mesh.node_id_xyz(1, 1, 0))

    def test_elevator_at(self, small_placement):
        mesh = small_placement.mesh
        elevator = small_placement.elevator_at(mesh.node_id_xyz(2, 2, 1))
        assert elevator is not None
        assert elevator.column == (2, 2)
        assert small_placement.elevator_at(mesh.node_id_xyz(1, 0, 0)) is None

    def test_elevator_nodes_span_all_layers(self, small_placement):
        elevator = small_placement.elevator_by_index(0)
        nodes = small_placement.elevator_nodes(elevator)
        assert len(nodes) == small_placement.mesh.num_layers
        layers = {small_placement.mesh.coordinate(n).z for n in nodes}
        assert layers == set(range(small_placement.mesh.num_layers))

    def test_all_elevator_nodes(self, small_placement):
        nodes = small_placement.all_elevator_nodes()
        assert len(nodes) == 2 * small_placement.mesh.num_layers
        assert len(set(nodes)) == len(nodes)

    def test_has_vertical_link(self, small_placement):
        mesh = small_placement.mesh
        bottom = mesh.node_id_xyz(0, 0, 0)
        top = mesh.node_id_xyz(0, 0, 1)
        plain = mesh.node_id_xyz(1, 1, 0)
        assert small_placement.has_vertical_link(bottom, up=True)
        assert not small_placement.has_vertical_link(bottom, up=False)
        assert small_placement.has_vertical_link(top, up=False)
        assert not small_placement.has_vertical_link(top, up=True)
        assert not small_placement.has_vertical_link(plain, up=True)

    def test_elevator_by_index_bounds(self, small_placement):
        with pytest.raises(ValueError):
            small_placement.elevator_by_index(5)

    def test_nearest_elevator(self, small_placement):
        mesh = small_placement.mesh
        near_origin = mesh.node_id_xyz(1, 0, 0)
        assert small_placement.nearest_elevator(near_origin).column == (0, 0)
        near_far = mesh.node_id_xyz(2, 1, 1)
        assert small_placement.nearest_elevator(near_far).column == (2, 2)

    def test_nearest_elevator_tie_breaks_by_index(self):
        mesh = Mesh3D(3, 1, 2)
        placement = ElevatorPlacement(mesh, [(0, 0), (2, 0)])
        middle = mesh.node_id_xyz(1, 0, 0)
        assert placement.nearest_elevator(middle).index == 0

    def test_distance_via_same_layer_is_zero(self, small_placement):
        mesh = small_placement.mesh
        a = mesh.node_id_xyz(0, 0, 0)
        b = mesh.node_id_xyz(2, 2, 0)
        elevator = small_placement.elevator_by_index(0)
        assert small_placement.distance_via(a, b, elevator) == 0

    def test_distance_via_interlayer(self, small_placement):
        mesh = small_placement.mesh
        src = mesh.node_id_xyz(1, 0, 0)
        dst = mesh.node_id_xyz(1, 2, 1)
        e0 = small_placement.elevator_by_index(0)  # column (0, 0)
        # src->(0,0): 1 hop, vertical: 1 hop, (0,0)->dst: 3 hops.
        assert small_placement.distance_via(src, dst, e0) == 5

    def test_minimal_path_elevator(self, small_placement):
        mesh = small_placement.mesh
        src = mesh.node_id_xyz(2, 1, 0)
        dst = mesh.node_id_xyz(2, 2, 1)
        chosen = small_placement.minimal_path_elevator(src, dst)
        assert chosen.column == (2, 2)

    def test_minimal_path_elevator_same_layer_falls_back_to_nearest(
        self, small_placement
    ):
        mesh = small_placement.mesh
        src = mesh.node_id_xyz(0, 1, 0)
        dst = mesh.node_id_xyz(2, 1, 0)
        chosen = small_placement.minimal_path_elevator(src, dst)
        assert chosen.column == (0, 0)

    def test_fault_marking(self, small_placement):
        small_placement.mark_faulty(0)
        assert small_placement.is_faulty(0)
        healthy = small_placement.healthy_elevators()
        assert [e.index for e in healthy] == [1]
        mesh = small_placement.mesh
        # Nearest healthy elevator excludes the faulty one.
        node = mesh.node_id_xyz(0, 0, 0)
        assert small_placement.nearest_elevator(node).index == 1
        small_placement.clear_faults()
        assert not small_placement.is_faulty(0)

    def test_nearest_elevator_fails_when_all_faulty(self, tiny_placement):
        tiny_placement.mark_faulty(0)
        with pytest.raises(ValueError):
            tiny_placement.nearest_elevator(0)


class TestStandardPlacements:
    @pytest.mark.parametrize(
        "name,shape,count",
        [("PS1", (4, 4, 4), 3), ("PS2", (4, 4, 4), 4), ("PS3", (4, 4, 4), 6), ("PM", (8, 8, 4), 8)],
    )
    def test_standard_placements(self, name, shape, count):
        placement = standard_placement(name)
        assert placement.mesh.shape == shape
        assert placement.num_elevators == count
        assert placement.name == name

    def test_case_insensitive(self):
        assert standard_placement("ps1").name == "PS1"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown placement"):
            standard_placement("PS9")

    def test_mismatched_mesh_rejected(self):
        with pytest.raises(ValueError):
            standard_placement("PS1", mesh=Mesh3D(8, 8, 4))

    def test_ps1_has_lower_average_distance_than_corners(self):
        # PS1 is "extracted to have an optimized average distance"; it should
        # beat a naive corner placement with the same elevator count.
        ps1 = standard_placement("PS1")
        corners = ElevatorPlacement(Mesh3D(4, 4, 4), [(0, 0), (3, 3), (0, 3)])
        assert average_distance_of_placement(ps1) <= average_distance_of_placement(
            corners
        )


class TestPlacementRegistry:
    def test_custom_registration_overrides(self):
        standard = PLACEMENT_REGISTRY.entry("PS1")
        custom = ElevatorPlacement(Mesh3D(2, 2, 2), [(1, 1)], name="PS1")
        register_placement(custom, overwrite=True)
        try:
            assert PLACEMENT_REGISTRY.get("ps1")() is custom
            assert "PS1" in available_placements()
        finally:
            PLACEMENT_REGISTRY.add(
                standard.name,
                standard.value,
                aliases=standard.aliases,
                description=standard.description,
                overwrite=True,
                **standard.metadata,
            )
        assert PLACEMENT_REGISTRY.get("PS1")().num_elevators == 3


class TestAverageDistanceAndOptimizer:
    def test_average_distance_zero_for_single_layer(self):
        placement = ElevatorPlacement(Mesh3D(3, 3, 1), [(1, 1)])
        assert average_distance_of_placement(placement) == 0.0

    def test_average_distance_positive_for_multilayer(self, small_placement):
        assert average_distance_of_placement(small_placement) > 0.0

    def test_average_distance_with_traffic_weights(self, small_placement):
        mesh = small_placement.mesh
        src = mesh.node_id_xyz(0, 0, 0)
        dst = mesh.node_id_xyz(0, 0, 1)
        traffic = {(src, dst): 1.0}
        # Only this pair counts; it sits exactly on the (0, 0) elevator.
        assert average_distance_of_placement(small_placement, traffic) == 1.0
