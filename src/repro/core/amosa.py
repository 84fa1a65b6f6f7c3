"""AMOSA: archive-based multi-objective simulated annealing.

Reimplementation of the optimizer the paper uses for its offline stage
(Bandyopadhyay, Saha, Maulik, Deb -- "A simulated annealing-based
multiobjective optimization algorithm: AMOSA", IEEE TEC 2008).  The
algorithm keeps an archive of mutually non-dominated solutions and anneals a
current point; acceptance of a perturbed point depends on the *amount of
domination* between the new point, the current point and the archive:

* if the new point is dominated (by the current point and/or archive
  members), it is accepted with a probability that decreases with the
  average amount of domination and the temperature;
* if the new point and the current point do not dominate each other, the
  decision is delegated to the archive in the same probabilistic way;
* if the new point dominates the current point it is accepted, and it enters
  the archive whenever the archive does not dominate it.

The archive is bounded (HL / SL limits) and thinned by farthest-point
sampling (a deterministic substitute for the paper's clustering) so the
front keeps its spread.  The archive and the acceptance rule are
two-objective, as is every problem of the offline stage (Eq. 1-3:
utilization variance and average distance).  The implementation is
generic over a *problem* object supplying ``random_solution``,
``perturb`` and a two-entry ``evaluate`` -- the elevator-subset problem is
one instance, and the unit tests exercise it on small analytic problems
with known fronts.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    Callable,
    Generic,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.pareto import ParetoArchive

SolutionT = TypeVar("SolutionT")


class AnnealingProblem(Protocol[SolutionT]):
    """Interface AMOSA requires from a problem definition."""

    def random_solution(self, rng: random.Random) -> SolutionT:
        """A random feasible solution."""

    def perturb(self, solution: SolutionT, rng: random.Random) -> SolutionT:
        """A random neighbour of a solution."""

    def evaluate(self, solution: SolutionT) -> Tuple[float, ...]:
        """The (minimized) two-objective vector of a solution."""


#: Progress callback signature: ``on_iteration(temperature, archive_size,
#: best)`` -- invoked once per temperature level with the current
#: temperature, the archive size and the current point's objective vector.
ProgressCallback = Callable[[float, int, Tuple[float, ...]], None]


@dataclass(frozen=True)
class AmosaConfig:
    """AMOSA hyper-parameters.

    Attributes:
        initial_temperature: Starting temperature ``T_max``.
        final_temperature: Stopping temperature ``T_min``.
        cooling_rate: Geometric cooling factor ``alpha`` (0 < alpha < 1).
        iterations_per_temperature: Perturbations evaluated at each
            temperature level.
        hard_limit: Archive hard limit (HL).
        soft_limit: Archive soft limit (SL).
        initial_solutions: Random solutions used to seed the archive
            (gamma * SL in the original paper).
        seed: RNG seed.
    """

    initial_temperature: float = 100.0
    final_temperature: float = 0.01
    cooling_rate: float = 0.9
    iterations_per_temperature: int = 50
    hard_limit: int = 20
    soft_limit: int = 40
    initial_solutions: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.initial_temperature <= self.final_temperature:
            raise ValueError("initial_temperature must exceed final_temperature")
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError("cooling_rate must be in (0, 1)")
        if self.iterations_per_temperature < 1:
            raise ValueError("iterations_per_temperature must be >= 1")
        if self.hard_limit < 1 or self.soft_limit < self.hard_limit:
            raise ValueError("require soft_limit >= hard_limit >= 1")
        if self.initial_solutions < 1:
            raise ValueError("initial_solutions must be >= 1")

    def temperature_levels(self) -> int:
        """Number of temperature levels the schedule will visit."""
        levels = 0
        temperature = self.initial_temperature
        while temperature > self.final_temperature:
            levels += 1
            temperature *= self.cooling_rate
        return levels

    def total_iterations(self) -> int:
        """Total number of perturbations the run will evaluate."""
        return self.temperature_levels() * self.iterations_per_temperature


@dataclass
class ArchiveEntry(Generic[SolutionT]):
    """A solution/objective pair returned to callers."""

    solution: SolutionT
    objectives: Tuple[float, ...]


@dataclass
class AmosaResult(Generic[SolutionT]):
    """Outcome of an AMOSA run.

    Attributes:
        archive: Final non-dominated archive entries.
        explored: Objective vectors of every evaluated solution (sampled;
            used to reproduce the scatter of the paper's Fig. 3).
        evaluations: Total number of objective evaluations performed.
        accepted_moves: Number of accepted annealing moves.
    """

    archive: List[ArchiveEntry[SolutionT]]
    explored: List[Tuple[float, ...]] = field(default_factory=list)
    evaluations: int = 0
    accepted_moves: int = 0

    def pareto_objectives(self) -> List[Tuple[float, ...]]:
        """Objective vectors of the final archive."""
        return [entry.objectives for entry in self.archive]


class AmosaOptimizer(Generic[SolutionT]):
    """Archive-based multi-objective simulated annealing.

    Args:
        problem: Problem definition (random solution, perturbation,
            evaluation).
        config: Hyper-parameters.
        explored_sample_rate: Fraction of evaluated solutions whose objective
            vectors are recorded in :attr:`AmosaResult.explored` (the paper's
            Fig. 3 shows "0.1 % of explored solutions"; recording a sample
            keeps memory bounded).
    """

    def __init__(
        self,
        problem: AnnealingProblem[SolutionT],
        config: Optional[AmosaConfig] = None,
        explored_sample_rate: float = 0.05,
    ) -> None:
        if not 0.0 <= explored_sample_rate <= 1.0:
            raise ValueError("explored_sample_rate must be within [0, 1]")
        self.problem = problem
        self.config = config if config is not None else AmosaConfig()
        self.explored_sample_rate = explored_sample_rate
        self.rng = random.Random(self.config.seed)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        seeds: Optional[Sequence[SolutionT]] = None,
        on_iteration: Optional[ProgressCallback] = None,
    ) -> AmosaResult[SolutionT]:
        """Execute the annealing schedule and return the final archive.

        Args:
            seeds: Solutions used (before random ones) to seed the archive.
            on_iteration: Optional progress callback invoked once per
                temperature level as ``on_iteration(temperature,
                archive_size, best)``, where ``best`` is the current
                point's objective vector -- lets paper-scale offline runs
                report progress (the CLI's ``optimize --progress``).
        """
        config = self.config
        archive: ParetoArchive[SolutionT] = ParetoArchive(
            hard_limit=config.hard_limit, soft_limit=config.soft_limit
        )
        explored: List[Tuple[float, ...]] = []
        evaluations = 0
        accepted = 0

        initial: List[SolutionT] = list(seeds) if seeds else []
        while len(initial) < config.initial_solutions:
            initial.append(self.problem.random_solution(self.rng))
        for solution in initial:
            objectives = tuple(self.problem.evaluate(solution))
            evaluations += 1
            archive.add(solution, objectives)
            explored.append(objectives)

        current = self.rng.choice(archive.solutions())
        current_objectives = tuple(self.problem.evaluate(current))
        evaluations += 1

        rng = self.rng
        perturb = self.problem.perturb
        evaluate = self.problem.evaluate
        decide = self._decide
        sample_rate = self.explored_sample_rate

        temperature = config.initial_temperature
        while temperature > config.final_temperature:
            for _ in range(config.iterations_per_temperature):
                candidate = perturb(current, rng)
                candidate_objectives = tuple(evaluate(candidate))
                evaluations += 1
                if rng.random() < sample_rate:
                    explored.append(candidate_objectives)

                accept = decide(
                    current_objectives, candidate_objectives, archive, temperature
                )
                if accept:
                    current = candidate
                    current_objectives = candidate_objectives
                    accepted += 1
                    archive.add(candidate, candidate_objectives)
            if on_iteration is not None:
                on_iteration(temperature, len(archive), current_objectives)
            temperature *= config.cooling_rate

        return AmosaResult(
            archive=[
                ArchiveEntry(solution=point.solution, objectives=point.objectives)
                for point in archive.points()
            ],
            explored=explored,
            evaluations=evaluations,
            accepted_moves=accepted,
        )

    # ------------------------------------------------------------------ #
    # Acceptance rules
    # ------------------------------------------------------------------ #
    def _decide(
        self,
        current: Tuple[float, ...],
        candidate: Tuple[float, ...],
        archive: ParetoArchive[SolutionT],
        temperature: float,
    ) -> bool:
        """AMOSA's three-case acceptance decision for two objectives.

        The amount of domination ``Delta_dom(a, b)`` of the AMOSA paper is
        the product, over the objectives where ``a`` and ``b`` differ, of
        ``|a_d - b_d|`` normalized by the objective's range over archive,
        current and candidate.  The archive members dominating the
        candidate form one contiguous slice of the sorted front (first
        objective strictly increasing, second strictly decreasing), so two
        binary searches find them -- and the overwhelmingly common
        "nothing dominates the candidate" outcome costs O(log archive).
        """
        c0, c1 = candidate
        u0, u1 = current
        v0s, v1s = archive.sorted_2d()
        rng_random = self.rng.random
        acceptance = self._acceptance_probability

        # Per-objective ranges over archive + current + candidate.
        bounds = archive.bounds()
        if bounds is None:
            range0 = max(abs(u0 - c0), 1e-12)
            range1 = max(abs(u1 - c1), 1e-12)
        else:
            (min0, min1), (max0, max1) = bounds
            range0 = max(max0, u0, c0) - min(min0, u0, c0)
            range1 = max(max1, u1, c1) - min(min1, u1, c1)
            if range0 < 1e-12:
                range0 = 1e-12
            if range1 < 1e-12:
                range1 = 1e-12

        # Slice of archive members with v0 <= c0 and v1 <= c1 (their
        # amounts of domination still exclude an exact duplicate of c).
        hi = bisect_right(v0s, c0)
        lo = 0
        upper = hi
        while lo < upper:
            mid = (lo + upper) >> 1
            if v1s[mid] <= c1:
                upper = mid
            else:
                lo = mid + 1

        if u0 <= c0 and u1 <= c1 and (u0 < c0 or u1 < c1):
            # Case 1: average amount of domination over current + archive.
            product = 1.0
            if u0 != c0:
                product *= (c0 - u0) / range0
            if u1 != c1:
                product *= (c1 - u1) / range1
            total = product
            count = 1
            for index in range(lo, hi):
                v0 = v0s[index]
                v1 = v1s[index]
                if v0 == c0 and v1 == c1:
                    continue
                product = 1.0
                if v0 != c0:
                    product *= (c0 - v0) / range0
                if v1 != c1:
                    product *= (c1 - v1) / range1
                total += product
                count += 1
            return rng_random() < acceptance(total / count, temperature)

        if c0 <= u0 and c1 <= u1 and (c0 < u0 or c1 < u1):
            # Case 3: minimum amount of domination over the archive.
            minimum = None
            for index in range(lo, hi):
                v0 = v0s[index]
                v1 = v1s[index]
                if v0 == c0 and v1 == c1:
                    continue
                product = 1.0
                if v0 != c0:
                    product *= (c0 - v0) / range0
                if v1 != c1:
                    product *= (c1 - v1) / range1
                if minimum is None or product < minimum:
                    minimum = product
            if minimum is None:
                return True
            return rng_random() < acceptance(minimum, temperature)

        # Case 2: mutually non-dominating; defer to the archive.
        if lo >= hi:
            return True
        total = 0.0
        count = 0
        for index in range(lo, hi):
            v0 = v0s[index]
            v1 = v1s[index]
            if v0 == c0 and v1 == c1:
                continue
            product = 1.0
            if v0 != c0:
                product *= (c0 - v0) / range0
            if v1 != c1:
                product *= (c1 - v1) / range1
            total += product
            count += 1
        if count == 0:
            return True
        return self.rng.random() < self._acceptance_probability(
            total / count, temperature
        )

    def _acceptance_probability(self, domination: float, temperature: float) -> float:
        """Probability of accepting a dominated move."""
        if temperature <= 0:
            return 0.0
        return 1.0 / (1.0 + math.exp(min(domination / temperature, 500.0)))
