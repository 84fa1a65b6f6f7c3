"""Unit tests for Pareto utilities and the AMOSA optimizer."""

import random

import pytest

from repro.core.amosa import AmosaConfig, AmosaOptimizer
from repro.core.pareto import ParetoArchive, dominates, pareto_front
from repro.core.selection import (
    knee_point,
    select_energy_leaning,
    select_latency_leaning,
    spread_selection,
)
from repro.core.amosa import ArchiveEntry


class TestDominance:
    def test_strict_domination(self):
        assert dominates((1, 1), (2, 2))
        assert not dominates((2, 2), (1, 1))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1, 1), (1, 1))

    def test_partial_improvement_dominates(self):
        assert dominates((1, 2), (1, 3))

    def test_trade_off_is_non_dominating(self):
        assert not dominates((1, 3), (2, 1))
        assert not dominates((2, 1), (1, 3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1,), (1, 2))


class TestParetoFront:
    def test_front_extraction(self):
        points = [(1, 5), (2, 2), (5, 1), (3, 3), (6, 6)]
        front = pareto_front(points)
        assert set(front) == {(1, 5), (2, 2), (5, 1)}

    def test_duplicates_collapse(self):
        front = pareto_front([(1, 1), (1, 1)])
        assert front == [(1, 1)]

    def test_empty_input(self):
        assert pareto_front([]) == []


class TestParetoArchive:
    def test_dominated_point_rejected(self):
        archive = ParetoArchive(hard_limit=5)
        assert archive.add("a", (1, 1))
        assert not archive.add("b", (2, 2))
        assert len(archive) == 1

    def test_dominating_point_replaces(self):
        archive = ParetoArchive(hard_limit=5)
        archive.add("a", (2, 2))
        archive.add("b", (1, 1))
        assert len(archive) == 1
        assert archive.points()[0].solution == "b"

    def test_duplicate_objectives_not_added_twice(self):
        archive = ParetoArchive(hard_limit=5)
        assert archive.add("a", (1, 2))
        assert not archive.add("b", (1, 2))

    def test_non_dominated_points_coexist(self):
        archive = ParetoArchive(hard_limit=5)
        archive.add("a", (1, 5))
        archive.add("b", (5, 1))
        archive.add("c", (3, 3))
        assert len(archive) == 3
        assert archive.invariant_holds()

    def test_thinning_respects_hard_limit_and_extremes(self):
        archive = ParetoArchive(hard_limit=4, soft_limit=6)
        rng = random.Random(0)
        # Build a dense convex front so many mutually non-dominated points exist.
        for i in range(30):
            x = i / 10.0
            y = 10.0 - x + rng.random() * 1e-9
            archive.add(f"p{i}", (x, y))
        assert len(archive) <= 6
        vectors = archive.objective_vectors()
        xs = [v[0] for v in vectors]
        assert min(xs) == pytest.approx(0.0)
        assert archive.invariant_holds()

    def test_invalid_limits(self):
        with pytest.raises(ValueError):
            ParetoArchive(hard_limit=0)
        with pytest.raises(ValueError):
            ParetoArchive(hard_limit=5, soft_limit=2)

    def test_rejects_vectors_without_two_objectives(self):
        archive = ParetoArchive(hard_limit=5)
        for vector in ((1.0,), (1.0, 2.0, 3.0)):
            with pytest.raises(ValueError, match="two-objective"):
                archive.add("a", vector)
        assert len(archive) == 0


class _ToyProblem:
    """min (x^2, (x-2)^2) over integers scaled to [0, 2]: a known front."""

    def random_solution(self, rng):
        return rng.uniform(-1.0, 3.0)

    def perturb(self, solution, rng):
        return solution + rng.uniform(-0.3, 0.3)

    def evaluate(self, solution):
        return (solution ** 2, (solution - 2.0) ** 2)


class TestAmosa:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AmosaConfig(initial_temperature=1.0, final_temperature=2.0)
        with pytest.raises(ValueError):
            AmosaConfig(cooling_rate=1.5)
        with pytest.raises(ValueError):
            AmosaConfig(hard_limit=10, soft_limit=5)

    def test_temperature_levels_and_iterations(self):
        config = AmosaConfig(
            initial_temperature=10.0, final_temperature=0.1, cooling_rate=0.5,
            iterations_per_temperature=7,
        )
        assert config.temperature_levels() == 7
        assert config.total_iterations() == 49

    def test_toy_front_recovered(self):
        config = AmosaConfig(
            initial_temperature=5.0, final_temperature=0.05, cooling_rate=0.8,
            iterations_per_temperature=30, hard_limit=10, soft_limit=20,
            initial_solutions=5, seed=3,
        )
        result = AmosaOptimizer(_ToyProblem(), config=config).run()
        assert len(result.archive) > 1
        # The true Pareto set is x in [0, 2]; archived solutions should lie
        # within (or very near) that interval.
        for entry in result.archive:
            assert -0.2 <= entry.solution <= 2.2
        # Archive must be mutually non-dominated.
        vectors = result.pareto_objectives()
        for a in vectors:
            assert not any(dominates(b, a) for b in vectors if b != a)

    def test_seeded_runs_are_deterministic(self):
        config = AmosaConfig(
            initial_temperature=5.0, final_temperature=0.5, cooling_rate=0.7,
            iterations_per_temperature=10, seed=11,
        )
        first = AmosaOptimizer(_ToyProblem(), config=config).run()
        second = AmosaOptimizer(_ToyProblem(), config=config).run()
        assert first.pareto_objectives() == second.pareto_objectives()

    def test_seeds_enter_archive(self):
        config = AmosaConfig(
            initial_temperature=2.0, final_temperature=0.5, cooling_rate=0.5,
            iterations_per_temperature=2, initial_solutions=2, seed=1,
        )
        result = AmosaOptimizer(_ToyProblem(), config=config).run(seeds=[1.0])
        assert result.evaluations > 0
        assert any(abs(entry.solution - 1.0) < 1e-9 for entry in result.archive) or len(
            result.archive
        ) > 0

    def test_explored_sampling_bounds(self):
        config = AmosaConfig(
            initial_temperature=2.0, final_temperature=0.5, cooling_rate=0.5,
            iterations_per_temperature=20, initial_solutions=3, seed=2,
        )
        optimizer = AmosaOptimizer(_ToyProblem(), config=config, explored_sample_rate=1.0)
        result = optimizer.run()
        assert len(result.explored) >= result.evaluations - 1

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            AmosaOptimizer(_ToyProblem(), explored_sample_rate=2.0)


class TestSelection:
    def _entries(self):
        points = [(0.0, 10.0), (1.0, 6.0), (2.0, 4.0), (4.0, 2.5), (8.0, 2.0)]
        return [ArchiveEntry(solution=i, objectives=p) for i, p in enumerate(points)]

    def test_spread_selection_includes_extremes(self):
        entries = self._entries()
        picked = spread_selection(entries, 3)
        objectives = [entry.objectives for entry in picked]
        assert (0.0, 10.0) in objectives
        assert (8.0, 2.0) in objectives
        assert len(picked) == 3

    def test_spread_selection_count_larger_than_front(self):
        entries = self._entries()
        assert len(spread_selection(entries, 10)) == len(entries)

    def test_spread_selection_validation(self):
        with pytest.raises(ValueError):
            spread_selection([], 3)
        with pytest.raises(ValueError):
            spread_selection(self._entries(), 0)

    def test_latency_and_energy_leaning(self):
        entries = self._entries()
        assert select_latency_leaning(entries).objectives == (0.0, 10.0)
        assert select_energy_leaning(entries).objectives == (8.0, 2.0)

    def test_knee_point_prefers_balanced_solution(self):
        entries = self._entries()
        knee = knee_point(entries)
        assert knee.objectives in {(1.0, 6.0), (2.0, 4.0), (4.0, 2.5)}

    def test_knee_point_small_fronts(self):
        entries = self._entries()[:2]
        assert knee_point(entries).objectives == (0.0, 10.0)
        with pytest.raises(ValueError):
            knee_point([])
