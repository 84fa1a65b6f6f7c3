"""Unit tests for the offline optimization objectives (Eq. 1-5)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objectives import (
    ObjectiveEvaluator,
    average_distance,
    elevator_utilization,
    utilization_variance,
)
from repro.topology.elevators import ElevatorPlacement, standard_placement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.patterns import UniformTraffic
from test_delta_objectives import _placement, _random_traffic


@pytest.fixture
def placement():
    mesh = Mesh3D(2, 2, 2)
    return ElevatorPlacement(mesh, [(0, 0), (1, 1)], name="two")


@pytest.fixture
def traffic(placement):
    return UniformTraffic(placement.mesh).traffic_matrix()


def singleton_subsets(placement, index):
    return {node: (index,) for node in placement.mesh.nodes()}


def full_subsets(placement):
    indices = tuple(range(placement.num_elevators))
    return {node: indices for node in placement.mesh.nodes()}


class TestElevatorUtilization:
    def test_single_elevator_carries_all_interlayer_traffic(self, placement, traffic):
        subsets = singleton_subsets(placement, 0)
        utilization = elevator_utilization(subsets, placement, traffic)
        interlayer_mass = sum(
            w for (s, d), w in traffic.items()
            if not placement.mesh.same_layer(s, d)
        )
        assert utilization[0] == pytest.approx(interlayer_mass)
        assert utilization[1] == 0.0

    def test_full_subsets_split_evenly(self, placement, traffic):
        utilization = elevator_utilization(full_subsets(placement), placement, traffic)
        assert utilization[0] == pytest.approx(utilization[1])

    def test_intra_layer_traffic_does_not_count(self, placement):
        mesh = placement.mesh
        traffic = {(0, 1): 1.0}  # same layer
        utilization = elevator_utilization(full_subsets(placement), placement, traffic)
        assert utilization[0] == 0.0 and utilization[1] == 0.0

    def test_empty_subset_contributes_nothing(self, placement, traffic):
        subsets = full_subsets(placement)
        subsets[0] = ()
        utilization = elevator_utilization(subsets, placement, traffic)
        assert all(value >= 0 for value in utilization.values())


class TestUtilizationVariance:
    def test_balanced_assignment_has_zero_variance(self, placement, traffic):
        assert utilization_variance(full_subsets(placement), placement, traffic) == pytest.approx(0.0)

    def test_unbalanced_assignment_has_positive_variance(self, placement, traffic):
        assert utilization_variance(singleton_subsets(placement, 0), placement, traffic) > 0.0

    def test_variance_matches_manual_computation(self, placement, traffic):
        subsets = singleton_subsets(placement, 0)
        utilization = elevator_utilization(subsets, placement, traffic)
        values = list(utilization.values())
        mean = sum(values) / len(values)
        expected = sum((v - mean) ** 2 for v in values) / len(values)
        assert utilization_variance(subsets, placement, traffic) == pytest.approx(expected)


class TestAverageDistance:
    def test_singleton_far_elevator_is_longer(self, placement, traffic):
        near_for_origin = average_distance(singleton_subsets(placement, 0), placement)
        far_mix = average_distance(full_subsets(placement), placement)
        # Using both elevators for every pair cannot be shorter than always
        # using the best single one for the dominant corner traffic.
        assert far_mix >= 0
        assert near_for_origin >= 0

    def test_known_value_single_pair(self, placement):
        mesh = placement.mesh
        src = mesh.node_id_xyz(0, 0, 0)
        dst = mesh.node_id_xyz(0, 0, 1)
        traffic = {(src, dst): 1.0}
        subsets = {src: (0,)}
        # Source sits on elevator 0; path is exactly one vertical hop.
        assert average_distance(subsets, placement, traffic) == pytest.approx(1.0)

    def test_weighted_vs_unweighted(self, placement, traffic):
        unweighted = average_distance(full_subsets(placement), placement, None)
        weighted = average_distance(full_subsets(placement), placement, traffic)
        # Uniform traffic weights every pair equally, so both agree.
        assert unweighted == pytest.approx(weighted)

    def test_empty_assignment_is_zero(self, placement):
        assert average_distance({}, placement) == 0.0


class TestObjectiveEvaluator:
    def test_matches_reference_functions(self, placement, traffic):
        evaluator = ObjectiveEvaluator(placement, traffic)
        for subsets in (
            singleton_subsets(placement, 0),
            singleton_subsets(placement, 1),
            full_subsets(placement),
        ):
            assert evaluator.utilization_variance(subsets) == pytest.approx(
                utilization_variance(subsets, placement, traffic)
            )
            assert evaluator.average_distance(subsets) == pytest.approx(
                average_distance(subsets, placement)
            )

    def test_evaluate_returns_both_objectives(self, placement, traffic):
        evaluator = ObjectiveEvaluator(placement, traffic)
        variance, distance = evaluator.evaluate(full_subsets(placement))
        assert variance == pytest.approx(0.0)
        assert distance > 0

    def test_utilizations_ordering(self, placement, traffic):
        evaluator = ObjectiveEvaluator(placement, traffic)
        utilization = evaluator.utilizations(singleton_subsets(placement, 1))
        assert utilization[1] > utilization[0]

    def test_traffic_weighted_distance_mode(self, placement):
        mesh = placement.mesh
        src = mesh.node_id_xyz(1, 1, 0)
        dst = mesh.node_id_xyz(1, 1, 1)
        traffic = {(src, dst): 1.0}
        evaluator = ObjectiveEvaluator(placement, traffic, weight_distance_by_traffic=True)
        # Only the on-elevator-1 pair counts; selecting elevator 1 gives distance 1.
        assert evaluator.average_distance({src: (1,)}) == pytest.approx(1.0)
        # Selecting the far elevator costs 2 + 1 + 2 hops.
        assert evaluator.average_distance({src: (0,)}) == pytest.approx(5.0)

    def test_larger_mesh_consistency(self):
        mesh = Mesh3D(3, 3, 3)
        placement = ElevatorPlacement(mesh, [(0, 0), (2, 2), (1, 1)])
        traffic = UniformTraffic(mesh).traffic_matrix()
        evaluator = ObjectiveEvaluator(placement, traffic)
        subsets = {node: (node % 3,) for node in mesh.nodes()}
        assert evaluator.utilization_variance(subsets) == pytest.approx(
            utilization_variance(subsets, placement, traffic)
        )
        assert evaluator.average_distance(subsets) == pytest.approx(
            average_distance(subsets, placement), rel=1e-9
        )


# --------------------------------------------------------------------- #
# The Eq. 4/5 tables against the scalar loop
# --------------------------------------------------------------------- #
def brute_force_tables(placement, traffic, weight_distance_by_traffic):
    """The oracle: one scalar ``distance_via`` call per (source,
    destination, elevator), summed with ``+=`` in ascending destination
    order."""
    mesh = placement.mesh
    distance_sum = {}
    distance_weight = {}
    for src in mesh.nodes():
        sums = [0.0] * placement.num_elevators
        weight_total = 0.0
        for dst in mesh.nodes():
            if dst == src or mesh.same_layer(src, dst):
                continue
            weight = 1.0
            if weight_distance_by_traffic:
                weight = traffic.get((src, dst), 0.0)
                if weight == 0.0:
                    continue
            weight_total += weight
            for elevator in placement.elevators:
                sums[elevator.index] += weight * placement.distance_via(
                    src, dst, elevator
                )
        distance_sum[src] = sums
        distance_weight[src] = weight_total
    return distance_sum, distance_weight


def assert_tables_match_oracle(placement, traffic, weighted):
    evaluator = ObjectiveEvaluator(
        placement, traffic, weight_distance_by_traffic=weighted
    )
    expected_sums, expected_weights = brute_force_tables(placement, traffic, weighted)
    assert evaluator.distance_sum == expected_sums
    assert evaluator._distance_weight == expected_weights
    for src in placement.mesh.nodes():
        assert all(type(value) is float for value in evaluator.distance_sum[src])
        assert type(evaluator._distance_weight[src]) is float


#: Non-dyadic weights from subnormal to near-overflow, so that a sum in any
#: other order than the oracle's rounds differently.
EXTREME_MAGNITUDES = (5e-324, 1e-300, 5e-17, 1e-3, 1.0, 7e120, 1e300)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [(2, 2, 1), (4, 3, 1), (2, 2, 2), (3, 2, 2), (3, 3, 3), (4, 2, 3), (2, 3, 4)]
    ),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**30),
    st.booleans(),
)
def test_tables_bit_identical_to_brute_force_loop(mesh_dims, column_count, seed, weighted):
    placement = _placement(mesh_dims, column_count, seed)
    traffic = _random_traffic(placement.mesh, seed + 1, magnitudes=EXTREME_MAGNITUDES)
    rng = random.Random(seed + 2)
    for pair in rng.sample(sorted(traffic), len(traffic) // 10):
        traffic[pair] = 0.0  # explicit zeros are skipped like absent pairs
    assert_tables_match_oracle(placement, traffic, weighted)


@pytest.mark.parametrize("weighted", [False, True])
def test_pm_tables_bit_identical_to_brute_force_loop(weighted):
    placement = standard_placement("PM")
    traffic = UniformTraffic(placement.mesh).traffic_matrix()
    assert_tables_match_oracle(placement, traffic, weighted)
