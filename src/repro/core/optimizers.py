"""Pluggable design-space-exploration optimizers for the offline stage.

The paper's offline stage searches the ``(2^E - 1)^N`` space of per-router
elevator subsets with AMOSA.  This module makes the *search strategy* a
registered, swappable component -- the same
:class:`~repro.registry.Registry` machinery behind policies, traffic
patterns, placements and simulation backends -- so Pareto fronts can be
compared across optimizers (and new strategies plugged in by name):

* ``amosa`` -- the reference optimizer: archive-based multi-objective
  simulated annealing (Bandyopadhyay et al., IEEE TEC 2008), wrapping
  :class:`~repro.core.amosa.AmosaOptimizer`;
* ``random-search`` -- the classic baseline: uniformly random solutions
  filtered through a bounded Pareto archive.  Any serious optimizer must
  beat it at an equal evaluation budget;
* ``greedy-swap`` -- deterministic multi-start local search: scalarized
  hill climbing over single-router add/remove/swap moves, one start per
  weight vector, all evaluated points archived.

Every optimizer consumes an
:class:`~repro.core.subset_search.ElevatorSubsetProblem` (and therefore the
incremental :class:`~repro.core.objectives.DeltaObjectiveEvaluator` hot
path), accepts heuristic seed solutions, reports progress through the same
``on_iteration(stage, archive_size, best)`` callback, and returns the
shared :class:`~repro.core.amosa.AmosaResult` archive type.

Options are validated dataclass configurations; ``canonical_options``
resolves a partial user-supplied options mapping to the full
defaults-applied dictionary, which is what design cache keys are built from
(so spelling a default explicitly never splits the cache).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields, replace
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.amosa import (
    AmosaConfig,
    AmosaOptimizer,
    AmosaResult,
    ArchiveEntry,
    ProgressCallback,
)
from repro.core.pareto import ParetoArchive
from repro.core.subset_search import ElevatorSubsetProblem, SubsetSolution
from repro.registry import Registry

#: Registry of subset-search optimizers; values are
#: :class:`SubsetOptimizer` subclasses instantiated with ``**options``.
OPTIMIZER_REGISTRY: Registry[type] = Registry("optimizer")

#: Decorator: ``@register_optimizer("name", description=...)``.
register_optimizer = OPTIMIZER_REGISTRY.register

#: AMOSA settings small enough for the pure-Python search to stay fast while
#: still converging to a well-spread front on the 4x4x4 / 8x8x4 meshes.
#: The initial value of :attr:`AmosaSearch.config_defaults`, which is where
#: ``amosa`` options resolve (patch that attribute, not this name).
DEFAULT_OFFLINE_AMOSA = AmosaConfig(
    initial_temperature=50.0,
    final_temperature=0.05,
    cooling_rate=0.85,
    iterations_per_temperature=40,
    hard_limit=20,
    soft_limit=40,
    initial_solutions=10,
    seed=1,
)


def available_optimizers() -> List[str]:
    """Sorted canonical names of every registered optimizer."""
    return OPTIMIZER_REGISTRY.names()


def make_optimizer(
    name: str, options: Optional[Mapping[str, Any]] = None
) -> "SubsetOptimizer":
    """Instantiate a registered optimizer with its options.

    Raises:
        repro.registry.UnknownComponentError: Unknown optimizer name (a
            ``ValueError`` listing registered names and close matches).
        ValueError: Invalid option names or values.
    """
    return OPTIMIZER_REGISTRY.get(name)(**dict(options or {}))


def canonical_optimizer_options(
    name: str, options: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """The defaults-applied, JSON-native options of an optimizer.

    Two option mappings that resolve to the same effective configuration
    produce the same canonical dictionary -- the property design cache keys
    rely on.
    """
    return OPTIMIZER_REGISTRY.get(name).canonical_options(options or {})


def _config_from_options(
    config_type: type, defaults: Any, options: Mapping[str, Any], kind: str
) -> Any:
    """Apply an options mapping over a defaults config instance."""
    known = {field.name for field in fields(config_type)}
    unknown = sorted(set(options) - known)
    if unknown:
        raise ValueError(
            f"unknown {kind} option(s): {', '.join(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )
    return replace(defaults, **dict(options))


class SubsetOptimizer:
    """Base class of registered elevator-subset optimizers.

    Subclasses define a frozen options dataclass (``config_type`` /
    ``config_defaults``), accept the options as keyword arguments, and
    implement :meth:`search`.
    """

    #: Frozen dataclass describing the optimizer's options.
    config_type: type = AmosaConfig
    #: Instance holding the default option values.
    config_defaults: Any = DEFAULT_OFFLINE_AMOSA

    def __init__(self, **options: Any) -> None:
        self.config = _config_from_options(
            type(self).config_type,
            type(self).config_defaults,
            options,
            kind=f"{type(self).__name__}",
        )

    @classmethod
    def canonical_options(cls, options: Mapping[str, Any]) -> Dict[str, Any]:
        """Defaults-applied JSON-native options dictionary (cache keying)."""
        return asdict(
            _config_from_options(
                cls.config_type, cls.config_defaults, options, kind=cls.__name__
            )
        )

    def search(
        self,
        problem: ElevatorSubsetProblem,
        seeds: Sequence[SubsetSolution] = (),
        on_iteration: Optional[ProgressCallback] = None,
    ) -> AmosaResult[SubsetSolution]:
        """Run the search and return the final non-dominated archive."""
        raise NotImplementedError


@register_optimizer(
    "amosa",
    description="archive-based multi-objective simulated annealing "
    "(the paper's offline optimizer)",
)
class AmosaSearch(SubsetOptimizer):
    """The reference optimizer: AMOSA over the subset-assignment problem."""

    config_type = AmosaConfig
    #: The offline stage's one AMOSA default: options, cache keys and the
    #: redundant-design check all resolve against this attribute.
    config_defaults = DEFAULT_OFFLINE_AMOSA

    def search(
        self,
        problem: ElevatorSubsetProblem,
        seeds: Sequence[SubsetSolution] = (),
        on_iteration: Optional[ProgressCallback] = None,
    ) -> AmosaResult[SubsetSolution]:
        optimizer = AmosaOptimizer(problem, config=self.config)
        return optimizer.run(seeds=seeds, on_iteration=on_iteration)


@dataclass(frozen=True)
class RandomSearchConfig:
    """Options of the ``random-search`` baseline.

    Attributes:
        evaluations: Total objective evaluations (seeds included).
        hard_limit: Archive hard limit (as AMOSA's HL).
        soft_limit: Archive soft limit (as AMOSA's SL).
        seed: RNG seed.
    """

    evaluations: int = 1500
    hard_limit: int = 20
    soft_limit: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")
        if self.hard_limit < 1 or self.soft_limit < self.hard_limit:
            raise ValueError("require soft_limit >= hard_limit >= 1")


@register_optimizer(
    "random-search",
    aliases=("random_search", "random"),
    description="uniform random sampling through a bounded Pareto archive "
    "(baseline)",
)
class RandomSearch(SubsetOptimizer):
    """Uniformly random solutions filtered through a Pareto archive.

    The canonical budget-matched baseline: any structured optimizer should
    dominate its front given the same number of objective evaluations.
    """

    config_type = RandomSearchConfig
    config_defaults = RandomSearchConfig()

    def search(
        self,
        problem: ElevatorSubsetProblem,
        seeds: Sequence[SubsetSolution] = (),
        on_iteration: Optional[ProgressCallback] = None,
    ) -> AmosaResult[SubsetSolution]:
        config = self.config
        rng = random.Random(config.seed)
        archive: ParetoArchive[SubsetSolution] = ParetoArchive(
            hard_limit=config.hard_limit, soft_limit=config.soft_limit
        )
        explored: List[Tuple[float, ...]] = []
        report_every = max(1, config.evaluations // 20)
        evaluations = 0
        accepted = 0
        last_objectives: Tuple[float, ...] = ()
        for solution in list(seeds)[: config.evaluations]:
            last_objectives = tuple(problem.evaluate(solution))
            evaluations += 1
            if archive.add(solution, last_objectives):
                accepted += 1
            explored.append(last_objectives)
        while evaluations < config.evaluations:
            solution = problem.random_solution(rng)
            last_objectives = tuple(problem.evaluate(solution))
            evaluations += 1
            if archive.add(solution, last_objectives):
                accepted += 1
            if len(explored) < 256:
                explored.append(last_objectives)
            if on_iteration is not None and evaluations % report_every == 0:
                remaining = 1.0 - evaluations / config.evaluations
                on_iteration(remaining, len(archive), last_objectives)
        return AmosaResult(
            archive=[
                ArchiveEntry(solution=point.solution, objectives=point.objectives)
                for point in archive.points()
            ],
            explored=explored,
            evaluations=evaluations,
            accepted_moves=accepted,
        )


@dataclass(frozen=True)
class GreedySwapConfig:
    """Options of the ``greedy-swap`` local search.

    Attributes:
        restarts: Independent hill-climbing starts; start ``r`` minimizes
            the scalarization with weight ``r / (restarts - 1)`` between the
            normalized objectives, so the starts cover the front.
        passes: Maximum full sweeps over all routers per start (each sweep
            greedily applies the best single-router move; a sweep with no
            improvement terminates the start early).
        hard_limit: Archive hard limit.
        soft_limit: Archive soft limit.
        seed: RNG seed (used for start solutions beyond the seeds).
    """

    restarts: int = 4
    passes: int = 2
    hard_limit: int = 20
    soft_limit: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.hard_limit < 1 or self.soft_limit < self.hard_limit:
            raise ValueError("require soft_limit >= hard_limit >= 1")


@register_optimizer(
    "greedy-swap",
    aliases=("greedy_swap", "greedy"),
    description="multi-start scalarized hill climbing over single-router "
    "add/remove/swap moves",
)
class GreedySwap(SubsetOptimizer):
    """Deterministic multi-start local search over single-router moves.

    Each start minimizes a weighted sum of the (normalized) objectives;
    sweeping the weight across starts traces the front.  Every evaluated
    point feeds the shared Pareto archive, so the result is a front even
    though each climb is scalar.  Much cheaper than AMOSA and a strong
    sanity baseline on small meshes, but unable to escape local optima.
    """

    config_type = GreedySwapConfig
    config_defaults = GreedySwapConfig()

    def search(
        self,
        problem: ElevatorSubsetProblem,
        seeds: Sequence[SubsetSolution] = (),
        on_iteration: Optional[ProgressCallback] = None,
    ) -> AmosaResult[SubsetSolution]:
        config = self.config
        rng = random.Random(config.seed)
        archive: ParetoArchive[SubsetSolution] = ParetoArchive(
            hard_limit=config.hard_limit, soft_limit=config.soft_limit
        )
        explored: List[Tuple[float, ...]] = []
        evaluations = 0
        accepted = 0

        starts: List[SubsetSolution] = list(seeds)
        while len(starts) < config.restarts:
            starts.append(problem.random_solution(rng))

        start_objectives: List[Tuple[float, ...]] = []
        for solution in starts:
            objectives = tuple(problem.evaluate(solution))
            evaluations += 1
            archive.add(solution, objectives)
            explored.append(objectives)
            start_objectives.append(objectives)

        # Normalization scales from the start points (guarded against
        # degenerate all-zero objectives).
        scale0 = max(max(o[0] for o in start_objectives), 1e-12)
        scale1 = max(max(o[1] for o in start_objectives), 1e-12)

        nodes = list(problem.mesh.nodes())
        for restart in range(config.restarts):
            if config.restarts > 1:
                weight = restart / (config.restarts - 1)
            else:
                weight = 0.5
            current = starts[restart % len(starts)]
            current_objectives = start_objectives[restart % len(starts)]
            current_score = (
                weight * current_objectives[0] / scale0
                + (1.0 - weight) * current_objectives[1] / scale1
            )
            for _ in range(config.passes):
                improved = False
                for node in nodes:
                    best_move: Optional[SubsetSolution] = None
                    best_objectives = current_objectives
                    best_score = current_score
                    for subset in self._node_moves(problem, current, node):
                        candidate = current.with_subset(node, subset)
                        objectives = tuple(problem.evaluate(candidate))
                        evaluations += 1
                        if archive.add(candidate, objectives):
                            accepted += 1
                        score = (
                            weight * objectives[0] / scale0
                            + (1.0 - weight) * objectives[1] / scale1
                        )
                        if score < best_score - 1e-15:
                            best_move = candidate
                            best_objectives = objectives
                            best_score = score
                    if best_move is not None:
                        current = best_move
                        current_objectives = best_objectives
                        current_score = best_score
                        improved = True
                if not improved:
                    break
            if on_iteration is not None:
                on_iteration(weight, len(archive), current_objectives)

        return AmosaResult(
            archive=[
                ArchiveEntry(solution=point.solution, objectives=point.objectives)
                for point in archive.points()
            ],
            explored=explored,
            evaluations=evaluations,
            accepted_moves=accepted,
        )

    @staticmethod
    def _node_moves(
        problem: ElevatorSubsetProblem,
        solution: SubsetSolution,
        node: int,
    ) -> List[frozenset]:
        """Feasible single-router neighbour subsets (add/remove/swap)."""
        subset = solution.assignment[node]
        absent = [e for e in range(problem.num_elevators) if e not in subset]
        moves: List[frozenset] = []
        if len(subset) < problem.max_subset_size:
            for e in absent:
                moves.append(subset | {e})
        if len(subset) > 1:
            for e in sorted(subset):
                moves.append(subset - {e})
        for out in sorted(subset):
            for e in absent:
                moves.append((subset - {out}) | {e})
        return moves


__all__ = [
    "OPTIMIZER_REGISTRY",
    "register_optimizer",
    "available_optimizers",
    "make_optimizer",
    "canonical_optimizer_options",
    "DEFAULT_OFFLINE_AMOSA",
    "SubsetOptimizer",
    "AmosaSearch",
    "RandomSearch",
    "RandomSearchConfig",
    "GreedySwap",
    "GreedySwapConfig",
]
