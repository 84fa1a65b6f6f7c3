"""Unit tests for the subset-search problem and the offline pipeline."""

import random
from dataclasses import asdict

import pytest

from repro.analysis.runner import DesignCache, design_for
from repro.core.amosa import AmosaConfig
from repro.core.pipeline import optimize_elevator_subsets
from repro.core.subset_search import ElevatorSubsetProblem, SubsetSolution
from repro.routing.adele import AdElePolicy, AdEleRoundRobinPolicy
from repro.spec import DesignSpec, PlacementSpec
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.patterns import UniformTraffic


@pytest.fixture
def placement():
    mesh = Mesh3D(3, 3, 2)
    return ElevatorPlacement(mesh, [(0, 0), (2, 2), (1, 1)], name="three")


@pytest.fixture
def problem(placement):
    traffic = UniformTraffic(placement.mesh).traffic_matrix()
    return ElevatorSubsetProblem(placement, traffic, max_subset_size=2)


SMALL_AMOSA = AmosaConfig(
    initial_temperature=5.0,
    final_temperature=0.2,
    cooling_rate=0.7,
    iterations_per_temperature=15,
    hard_limit=8,
    soft_limit=16,
    initial_solutions=4,
    seed=5,
)

#: The small offline stage the pipeline tests run.
SMALL_DESIGN = DesignSpec(options=asdict(SMALL_AMOSA), max_subset_size=2)


class TestSubsetSolution:
    def test_subsets_sorted(self):
        solution = SubsetSolution(assignment={0: frozenset({2, 0}), 1: frozenset({1})})
        assert solution.subsets() == {0: (0, 2), 1: (1,)}
        assert solution.subset_for(0) == (0, 2)

    def test_average_subset_size(self):
        solution = SubsetSolution(assignment={0: frozenset({0, 1}), 1: frozenset({1})})
        assert solution.average_subset_size() == pytest.approx(1.5)
        assert SubsetSolution(assignment={}).average_subset_size() == 0.0

    def test_equality_and_hash(self):
        a = SubsetSolution(assignment={0: frozenset({0})})
        b = SubsetSolution(assignment={0: frozenset({0})})
        assert a == b
        assert hash(a) == hash(b)


class TestElevatorSubsetProblem:
    def test_requires_elevators(self):
        mesh = Mesh3D(2, 2, 1)
        placement = ElevatorPlacement(mesh, [])
        with pytest.raises(ValueError):
            ElevatorSubsetProblem(placement, {})

    def test_max_subset_size_validation(self, placement):
        with pytest.raises(ValueError):
            ElevatorSubsetProblem(placement, {}, max_subset_size=0)

    def test_random_solution_is_feasible(self, problem):
        rng = random.Random(0)
        for _ in range(10):
            assert problem.is_feasible(problem.random_solution(rng))

    def test_nearest_elevator_solution_is_singletons(self, problem, placement):
        solution = problem.nearest_elevator_solution()
        assert problem.is_feasible(solution)
        assert all(len(s) == 1 for s in solution.assignment.values())
        # The node on an elevator column selects its own elevator.
        node = placement.mesh.node_id_xyz(2, 2, 0)
        assert solution.subset_for(node) == (1,)

    def test_full_subset_solution_respects_cap(self, problem):
        solution = problem.full_subset_solution()
        assert problem.is_feasible(solution)
        assert all(len(s) <= 2 for s in solution.assignment.values())

    def test_perturbation_preserves_feasibility(self, problem):
        rng = random.Random(3)
        solution = problem.random_solution(rng)
        for _ in range(200):
            solution = problem.perturb(solution, rng)
            assert problem.is_feasible(solution)

    def test_perturbation_changes_single_router(self, problem):
        rng = random.Random(4)
        solution = problem.random_solution(rng)
        perturbed = problem.perturb(solution, rng)
        changed = [
            node
            for node in solution.assignment
            if solution.assignment[node] != perturbed.assignment[node]
        ]
        assert len(changed) <= 1

    def test_evaluate_returns_two_objectives(self, problem):
        rng = random.Random(5)
        objectives = problem.evaluate(problem.random_solution(rng))
        assert len(objectives) == 2
        assert all(value >= 0 for value in objectives)

    def test_is_feasible_detects_bad_solutions(self, problem, placement):
        nodes = list(placement.mesh.nodes())
        missing = SubsetSolution(assignment={n: frozenset({0}) for n in nodes[:-1]})
        assert not problem.is_feasible(missing)
        too_big = SubsetSolution(assignment={n: frozenset({0, 1, 2}) for n in nodes})
        assert not problem.is_feasible(too_big)
        bad_index = SubsetSolution(assignment={n: frozenset({9}) for n in nodes})
        assert not problem.is_feasible(bad_index)


class TestOfflinePipeline:
    def test_design_contains_expected_pieces(self, placement):
        spec = SMALL_DESIGN.with_(num_representatives=4)
        design = optimize_elevator_subsets(placement, spec)
        assert len(design.pareto_points()) >= 1
        assert len(design.representatives) <= 4
        assert design.baseline_objectives[0] >= 0
        assert design.selected in design.result.archive
        assert design.explored_points()

    def test_selected_solution_improves_variance_over_baseline(self, placement):
        design = optimize_elevator_subsets(placement, SMALL_DESIGN)
        baseline_variance = design.baseline_objectives[0]
        selected_variance = design.selected.objectives[0]
        assert selected_variance <= baseline_variance

    def test_policy_construction_uses_selected_subsets(self, placement):
        design = optimize_elevator_subsets(placement, SMALL_DESIGN)
        policy = design.to_policy(seed=1)
        assert isinstance(policy, AdElePolicy)
        subsets = design.selected_subsets()
        for node in placement.mesh.nodes():
            assert tuple(policy.subset_indices(node)) == subsets[node]
        rr_policy = design.to_round_robin_policy()
        assert isinstance(rr_policy, AdEleRoundRobinPolicy)

    def test_alternative_selections(self, placement):
        design = optimize_elevator_subsets(placement, SMALL_DESIGN)
        latency = design.latency_leaning()
        energy = design.energy_leaning()
        assert latency.objectives[0] <= energy.objectives[0]
        assert energy.objectives[1] <= latency.objectives[1]
        knee = design.knee()
        assert knee in design.result.archive
        design.select(energy)
        assert design.selected is energy

    def test_to_policy_threshold_override(self, placement):
        design = optimize_elevator_subsets(placement, SMALL_DESIGN)
        policy = design.to_policy(low_traffic_threshold=1.5)
        assert policy.low_traffic_threshold == 1.5

    def test_offline_config_validation(self):
        with pytest.raises(ValueError):
            DesignSpec(num_representatives=0)

    def test_custom_traffic_matrix(self, placement):
        mesh = placement.mesh
        src = mesh.node_id_xyz(0, 0, 0)
        dst = mesh.node_id_xyz(2, 2, 1)
        traffic = {(src, dst): 1.0}
        design = optimize_elevator_subsets(placement, SMALL_DESIGN, traffic=traffic)
        assert design.pareto_points()
        uniform = optimize_elevator_subsets(placement, SMALL_DESIGN)
        assert design.baseline_objectives != uniform.baseline_objectives

    def test_uncached_core_and_design_for_share_one_default(self):
        # One default for the offline stage: the uncached core and the cached
        # entry point run the same search.  Five elevators, so the default
        # subset cap of 4 binds.
        mesh = Mesh3D(3, 3, 2)
        columns = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
        placement = ElevatorPlacement(mesh, columns, name="five")
        core = optimize_elevator_subsets(placement)
        cached = design_for(
            DesignSpec(placement=PlacementSpec.from_placement(placement)),
            cache=DesignCache(),
        )
        assert core.problem.max_subset_size == 4
        assert core.pareto_points() == cached.pareto_points()
        assert core.selected_subsets() == cached.selected_subsets()
