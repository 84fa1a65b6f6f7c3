"""The pluggable optimizer registry and the three built-in optimizers."""

import random

import pytest

from repro.core.amosa import AmosaConfig
from repro.core.optimizers import (
    DEFAULT_OFFLINE_AMOSA,
    OPTIMIZER_REGISTRY,
    AmosaSearch,
    GreedySwap,
    RandomSearch,
    available_optimizers,
    canonical_optimizer_options,
    make_optimizer,
)
from repro.core.pareto import dominates
from repro.core.pipeline import optimize_elevator_subsets
from repro.core.subset_search import ElevatorSubsetProblem
from repro.registry import UnknownComponentError
from repro.spec import DesignSpec
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


SMALL_AMOSA = dict(
    initial_temperature=5.0,
    final_temperature=0.2,
    cooling_rate=0.7,
    iterations_per_temperature=15,
    hard_limit=8,
    soft_limit=16,
    initial_solutions=4,
    seed=5,
)


def _assert_valid_front(problem, result):
    assert result.archive, "empty archive"
    vectors = [entry.objectives for entry in result.archive]
    assert not any(
        dominates(a, b) for a in vectors for b in vectors if a != b
    ), "archive contains dominated points"
    for entry in result.archive:
        assert problem.is_feasible(entry.solution)


class TestRegistry:
    def test_builtin_optimizers_registered(self):
        names = available_optimizers()
        assert names == ["amosa", "greedy-swap", "random-search"]

    def test_aliases_resolve(self):
        assert OPTIMIZER_REGISTRY.entry("random").name == "random-search"
        assert OPTIMIZER_REGISTRY.entry("greedy_swap").name == "greedy-swap"
        assert OPTIMIZER_REGISTRY.entry("AMOSA").name == "amosa"

    def test_unknown_name_raises_did_you_mean(self):
        with pytest.raises(UnknownComponentError, match="did you mean 'amosa'"):
            make_optimizer("amosaa")
        with pytest.raises(ValueError):
            make_optimizer("no-such-optimizer")

    def test_canonical_options_apply_defaults(self):
        options = canonical_optimizer_options("amosa", {"seed": 9})
        assert options["seed"] == 9
        assert options["cooling_rate"] == DEFAULT_OFFLINE_AMOSA.cooling_rate
        # Equal effective configurations canonicalize identically.
        assert canonical_optimizer_options("amosa", {}) == canonical_optimizer_options(
            "amosa", {"seed": DEFAULT_OFFLINE_AMOSA.seed}
        )
        assert canonical_optimizer_options("random-search", {})["evaluations"] == 1500

    def test_unknown_option_names_raise(self):
        with pytest.raises(ValueError, match="unknown"):
            make_optimizer("amosa", {"temperature": 3})
        with pytest.raises(ValueError, match="unknown"):
            make_optimizer("random-search", {"iters": 10})

    def test_invalid_option_values_raise(self):
        with pytest.raises(ValueError):
            make_optimizer("random-search", {"evaluations": 0})
        with pytest.raises(ValueError):
            make_optimizer("greedy-swap", {"restarts": 0})
        with pytest.raises(ValueError):
            make_optimizer("amosa", {"cooling_rate": 2.0})


class TestOptimizers:
    def test_amosa_search_runs(self, problem):
        optimizer = AmosaSearch(**SMALL_AMOSA)
        result = optimizer.search(
            problem, seeds=[problem.nearest_elevator_solution()]
        )
        _assert_valid_front(problem, result)
        assert result.evaluations > 0

    def test_random_search_front_and_budget(self, problem):
        optimizer = RandomSearch(evaluations=120, seed=3)
        result = optimizer.search(
            problem, seeds=[problem.nearest_elevator_solution()]
        )
        _assert_valid_front(problem, result)
        assert result.evaluations == 120

    def test_greedy_swap_front(self, problem):
        optimizer = GreedySwap(restarts=3, passes=2, seed=1)
        result = optimizer.search(
            problem, seeds=[problem.nearest_elevator_solution()]
        )
        _assert_valid_front(problem, result)
        # Hill climbing must not end worse than its seeds on the
        # scalarization extremes: the archive holds a point at least as
        # good as the seed in each single objective.
        seed_objectives = problem.evaluate(problem.nearest_elevator_solution())
        best_variance = min(e.objectives[0] for e in result.archive)
        best_distance = min(e.objectives[1] for e in result.archive)
        assert best_variance <= seed_objectives[0]
        assert best_distance <= seed_objectives[1]

    @pytest.mark.parametrize(
        "name,options",
        [
            ("random-search", {"evaluations": 100, "seed": 4}),
            ("greedy-swap", {"restarts": 2, "passes": 1, "seed": 4}),
        ],
    )
    def test_determinism(self, problem, name, options):
        seeds = [problem.nearest_elevator_solution()]
        first = make_optimizer(name, options).search(problem, seeds=seeds)
        second = make_optimizer(name, options).search(problem, seeds=seeds)
        assert first.pareto_objectives() == second.pareto_objectives()
        assert first.evaluations == second.evaluations

    def test_respects_max_subset_size(self, placement):
        traffic = UniformTraffic(placement.mesh).traffic_matrix()
        problem = ElevatorSubsetProblem(placement, traffic, max_subset_size=1)
        for name, options in (
            ("random-search", {"evaluations": 60, "seed": 2}),
            ("greedy-swap", {"restarts": 2, "passes": 1}),
        ):
            result = make_optimizer(name, options).search(
                problem, seeds=[problem.nearest_elevator_solution()]
            )
            for entry in result.archive:
                assert all(len(s) == 1 for s in entry.solution.assignment.values())

    def test_progress_callbacks(self, problem):
        calls = []

        def on_iteration(stage, archive_size, best):
            calls.append((stage, archive_size, best))

        AmosaSearch(**SMALL_AMOSA).search(
            problem,
            seeds=[problem.nearest_elevator_solution()],
            on_iteration=on_iteration,
        )
        config = AmosaConfig(**SMALL_AMOSA)
        assert len(calls) == config.temperature_levels()
        temperatures = [call[0] for call in calls]
        assert temperatures == sorted(temperatures, reverse=True)
        assert all(isinstance(call[1], int) and call[1] >= 1 for call in calls)
        assert all(len(call[2]) == 2 for call in calls)

        for name, options in (
            ("random-search", {"evaluations": 100}),
            ("greedy-swap", {"restarts": 2, "passes": 1}),
        ):
            calls.clear()
            make_optimizer(name, options).search(
                problem,
                seeds=[problem.nearest_elevator_solution()],
                on_iteration=on_iteration,
            )
            assert calls, f"{name} never reported progress"


class TestPipelineIntegration:
    def test_offline_config_optimizer_dispatch(self, placement):
        spec = DesignSpec(
            optimizer="random-search",
            options={"evaluations": 80, "seed": 2},
            max_subset_size=2,
        )
        design = optimize_elevator_subsets(placement, spec)
        assert design.result.evaluations == 80
        assert design.pareto_points()

    def test_offline_config_amosa_options_override(self, placement):
        spec = DesignSpec(options={**SMALL_AMOSA, "seed": 11}, max_subset_size=2)
        design = optimize_elevator_subsets(placement, spec)
        assert design.pareto_points()

    def test_unknown_optimizer_raises(self, placement):
        spec = DesignSpec(optimizer="amosaa", max_subset_size=2)
        with pytest.raises(ValueError, match="did you mean"):
            optimize_elevator_subsets(placement, spec)

    def test_selection_strategies(self, placement):
        base = DesignSpec(
            optimizer="random-search",
            options={"evaluations": 150, "seed": 6},
            max_subset_size=2,
        )
        latency = optimize_elevator_subsets(placement, base.with_(selection="latency"))
        energy = optimize_elevator_subsets(placement, base.with_(selection="energy"))
        archive = latency.result.archive
        assert latency.selected.objectives == min(
            (e.objectives for e in archive), key=lambda o: (o[0], o[-1])
        )
        assert energy.selected.objectives == min(
            (e.objectives for e in archive), key=lambda o: (o[-1], o[0])
        )

    def test_invalid_selection_rejected(self):
        with pytest.raises(ValueError, match="selection"):
            DesignSpec(selection="balanced")

    def test_greedy_never_beaten_by_random_at_equal_budget(self, placement):
        """Sanity: structure beats chance on this tiny analytic problem."""
        traffic = UniformTraffic(placement.mesh).traffic_matrix()
        problem = ElevatorSubsetProblem(placement, traffic, max_subset_size=2)
        seeds = [problem.nearest_elevator_solution()]
        greedy = make_optimizer("greedy-swap", {"restarts": 2, "passes": 2}).search(
            problem, seeds=seeds
        )
        rng_budget = greedy.evaluations
        rand = make_optimizer(
            "random-search", {"evaluations": rng_budget, "seed": 0}
        ).search(problem, seeds=seeds)
        best_greedy = min(e.objectives[0] for e in greedy.archive)
        best_random = min(e.objectives[0] for e in rand.archive)
        assert best_greedy <= best_random + 1e-12


def test_amosa_on_iteration_direct():
    """AmosaOptimizer.run exposes the progress callback directly."""
    from repro.core.amosa import AmosaOptimizer

    class _Toy:
        def random_solution(self, rng):
            return rng.uniform(0.0, 1.0)

        def perturb(self, solution, rng):
            return min(1.0, max(0.0, solution + rng.uniform(-0.1, 0.1)))

        def evaluate(self, solution):
            return (solution, (1.0 - solution) ** 2)

    config = AmosaConfig(
        initial_temperature=2.0,
        final_temperature=0.1,
        cooling_rate=0.6,
        iterations_per_temperature=10,
        hard_limit=6,
        soft_limit=12,
        initial_solutions=3,
        seed=1,
    )
    calls = []
    AmosaOptimizer(_Toy(), config=config).run(
        on_iteration=lambda t, n, b: calls.append((t, n, b))
    )
    assert len(calls) == config.temperature_levels()
