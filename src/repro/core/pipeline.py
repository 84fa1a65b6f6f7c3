"""End-to-end AdEle offline pipeline.

A :class:`~repro.spec.DesignSpec` describes one run of the offline stage,
and ``optimize_elevator_subsets`` runs it (uncached; the cached entry point
is :func:`repro.analysis.runner.design_for`) the way the paper's Fig. 1
describes it:

    elevator configuration + assumed traffic pattern
        -> multi-objective search over per-router elevator subsets
           (a registered optimizer -- AMOSA by default; see
           :mod:`repro.core.optimizers`)
        -> Pareto archive of (utilization variance, average distance) points
        -> representative solutions (S0 ... S_k)
        -> chosen solution -> AdEle online policy configuration

The result object (:class:`AdEleDesign`) keeps the whole archive so examples
and benches can plot the front (Fig. 3), simulate several selected solutions
(Table II), or build an :class:`~repro.routing.adele.AdElePolicy` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.amosa import AmosaResult, ArchiveEntry, ProgressCallback
from repro.core.optimizers import make_optimizer
from repro.core.selection import (
    knee_point,
    select_by_strategy,
    select_energy_leaning,
    select_latency_leaning,
    spread_selection,
)
from repro.core.subset_search import ElevatorSubsetProblem, SubsetSolution
from repro.routing.adele import AdElePolicy, AdEleRoundRobinPolicy
from repro.spec import DesignSpec
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.patterns import PATTERN_REGISTRY, TrafficMatrix


@dataclass
class AdEleDesign:
    """Result of the offline stage.

    Attributes:
        placement: The elevator placement the design targets.
        problem: The subset-assignment problem instance (gives access to the
            objective evaluator).
        result: Raw AMOSA result (archive + explored samples).
        representatives: Spread selection along the front (S0, S1, ...).
        selected: The solution chosen for deployment (defaults to the knee
            of the front -- the paper's designer picks a point that trades a
            small distance/energy increase for a large variance/latency
            reduction, which is exactly what the knee captures).
        baseline_objectives: Objectives of the Elevator-First assignment,
            shown as the reference point in Fig. 3.
    """

    placement: ElevatorPlacement
    problem: ElevatorSubsetProblem
    result: AmosaResult[SubsetSolution]
    representatives: List[ArchiveEntry[SubsetSolution]]
    selected: ArchiveEntry[SubsetSolution]
    baseline_objectives: Tuple[float, float]

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def pareto_points(self) -> List[Tuple[float, ...]]:
        """Objective vectors of the final archive (Fig. 3 front)."""
        return self.result.pareto_objectives()

    def explored_points(self) -> List[Tuple[float, ...]]:
        """Sampled objective vectors of all explored solutions (Fig. 3 dots)."""
        return list(self.result.explored)

    def subsets_for(self, entry: ArchiveEntry[SubsetSolution]) -> Dict[int, Tuple[int, ...]]:
        """Per-router elevator subsets of an archive entry."""
        return entry.solution.subsets()

    def selected_subsets(self) -> Dict[int, Tuple[int, ...]]:
        """Per-router elevator subsets of the selected solution."""
        return self.subsets_for(self.selected)

    # ------------------------------------------------------------------ #
    # Alternative selections
    # ------------------------------------------------------------------ #
    def latency_leaning(self) -> ArchiveEntry[SubsetSolution]:
        """Archive entry minimizing utilization variance."""
        return select_latency_leaning(self.result.archive)

    def energy_leaning(self) -> ArchiveEntry[SubsetSolution]:
        """Archive entry minimizing average distance."""
        return select_energy_leaning(self.result.archive)

    def knee(self) -> ArchiveEntry[SubsetSolution]:
        """Knee point of the front (balanced trade-off)."""
        return knee_point(self.result.archive)

    def select(self, entry: ArchiveEntry[SubsetSolution]) -> None:
        """Override the deployed solution (designer's trade-off choice)."""
        self.selected = entry

    # ------------------------------------------------------------------ #
    # Policy construction
    # ------------------------------------------------------------------ #
    def to_policy(
        self,
        entry: Optional[ArchiveEntry[SubsetSolution]] = None,
        low_traffic_threshold: Optional[float] = None,
        seed: int = 0,
    ) -> AdElePolicy:
        """Build the AdEle online policy for an archive entry.

        Args:
            entry: Archive entry to deploy; defaults to :attr:`selected`.
            low_traffic_threshold: Override of the minimal-path-override
                threshold (the paper tunes it per configuration).
            seed: RNG seed of the online policy.
        """
        chosen = entry if entry is not None else self.selected
        kwargs = {"subsets": chosen.solution.subsets(), "seed": seed}
        if low_traffic_threshold is not None:
            kwargs["low_traffic_threshold"] = low_traffic_threshold
        return AdElePolicy(self.placement, **kwargs)

    def to_round_robin_policy(
        self,
        entry: Optional[ArchiveEntry[SubsetSolution]] = None,
        seed: int = 0,
    ) -> AdEleRoundRobinPolicy:
        """Build the AdEle-RR ablation policy for an archive entry."""
        chosen = entry if entry is not None else self.selected
        return AdEleRoundRobinPolicy(
            self.placement, subsets=chosen.solution.subsets(), seed=seed
        )


def assumed_traffic_matrix(label: str, mesh: Mesh3D) -> TrafficMatrix:
    """The traffic matrix the offline objectives assume for a pattern name.

    The registered pattern built with seed 0, so a design's traffic label
    alone identifies its matrix: the search and every design rebuilt from
    a cache record see the same numbers.

    Raises:
        repro.registry.UnknownComponentError: Unknown pattern name.
    """
    return PATTERN_REGISTRY.create(label, mesh, seed=0).traffic_matrix()


def optimize_elevator_subsets(
    placement: ElevatorPlacement,
    spec: Optional[DesignSpec] = None,
    traffic: Optional[TrafficMatrix] = None,
    on_iteration: Optional[ProgressCallback] = None,
) -> AdEleDesign:
    """Run AdEle's offline optimization for a placement (uncached).

    Args:
        placement: Elevator placement of the target PC-3DNoC; the spec's
            own placement field is ignored.
        spec: The offline stage to run (optimizer and options, subset cap,
            assumed traffic, selection); defaults to ``DesignSpec()``.
        traffic: Explicit traffic matrix assumed during optimization, in
            place of the matrix of ``spec.traffic``.  Designs searched
            against an explicit matrix belong to no cache: call this
            function directly rather than
            :func:`repro.analysis.runner.design_for`.
        on_iteration: Optional progress callback forwarded to the optimizer
            (``on_iteration(stage, archive_size, best)``).

    Returns:
        An :class:`AdEleDesign` with the Pareto archive, representative
        solutions and the spec's (knee by default) selection.

    Raises:
        repro.registry.UnknownComponentError: Unknown optimizer or pattern
            name (a ``ValueError`` with registered names and close matches).
    """
    if spec is None:
        spec = DesignSpec()
    if traffic is None:
        traffic = assumed_traffic_matrix(spec.traffic, placement.mesh)

    problem = ElevatorSubsetProblem(
        placement,
        traffic,
        max_subset_size=spec.max_subset_size,
        weight_distance_by_traffic=spec.weight_distance_by_traffic,
    )
    optimizer = make_optimizer(spec.optimizer, spec.options)
    # Seed the search with the Elevator-First assignment, the maximally
    # redundant assignment and the nearest-k heuristics in between, so the
    # archive spans the whole trade-off even when the annealing budget is
    # small relative to the mesh size.
    seeds = [problem.nearest_elevator_solution(), problem.full_subset_solution()]
    for k in range(2, min(problem.max_subset_size, problem.num_elevators) + 1):
        seeds.append(problem.nearest_k_solution(k))
    result = optimizer.search(problem, seeds=seeds, on_iteration=on_iteration)
    if not result.archive:
        raise RuntimeError(f"optimizer {spec.optimizer!r} produced an empty archive")

    representatives = spread_selection(result.archive, spec.num_representatives)
    selected = select_by_strategy(spec.selection, result.archive)
    baseline = problem.evaluate(problem.nearest_elevator_solution())

    return AdEleDesign(
        placement=placement,
        problem=problem,
        result=result,
        representatives=representatives,
        selected=selected,
        baseline_objectives=baseline,
    )
