"""AdEle's offline elevator-subset optimization (the paper's core contribution).

The offline stage (paper Section III-B) searches for a set of per-router
elevator subsets ``A = {A_1, ..., A_N}`` that simultaneously minimizes

* the elevator-utilization variance (Eq. 1-3), a proxy for congestion and
  therefore latency, and
* the average inter-layer source-elevator-destination distance (Eq. 4-5), a
  proxy for energy,

using AMOSA, an archive-based multi-objective simulated-annealing algorithm
(Bandyopadhyay et al., IEEE TEC 2008).  The Pareto archive is then narrowed
to a handful of representative solutions (the paper's S0-S5) from which a
designer picks a latency- or energy-leaning configuration; the chosen
subsets parameterize the online policy
(:class:`repro.routing.adele.AdElePolicy`).
"""

from repro.core.objectives import (
    DeltaObjectiveEvaluator,
    ExactSum,
    ObjectiveEvaluator,
    average_distance,
    elevator_utilization,
    utilization_variance,
    variance_of,
)
from repro.core.pareto import ParetoArchive, dominates, pareto_front
from repro.core.subset_search import ElevatorSubsetProblem, SubsetSolution
from repro.core.amosa import AmosaConfig, AmosaOptimizer, ArchiveEntry
from repro.core.optimizers import (
    DEFAULT_OFFLINE_AMOSA,
    OPTIMIZER_REGISTRY,
    AmosaSearch,
    GreedySwap,
    GreedySwapConfig,
    RandomSearch,
    RandomSearchConfig,
    SubsetOptimizer,
    available_optimizers,
    canonical_optimizer_options,
    make_optimizer,
    register_optimizer,
)
from repro.core.selection import (
    SELECTION_STRATEGIES,
    knee_point,
    select_by_strategy,
    select_energy_leaning,
    select_latency_leaning,
    spread_selection,
)
from repro.core.pipeline import AdEleDesign, assumed_traffic_matrix, optimize_elevator_subsets

__all__ = [
    "ObjectiveEvaluator",
    "DeltaObjectiveEvaluator",
    "ExactSum",
    "variance_of",
    "elevator_utilization",
    "utilization_variance",
    "average_distance",
    "ParetoArchive",
    "dominates",
    "pareto_front",
    "ElevatorSubsetProblem",
    "SubsetSolution",
    "AmosaConfig",
    "AmosaOptimizer",
    "ArchiveEntry",
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
    "SELECTION_STRATEGIES",
    "select_by_strategy",
    "spread_selection",
    "knee_point",
    "select_latency_leaning",
    "select_energy_leaning",
    "AdEleDesign",
    "assumed_traffic_matrix",
    "optimize_elevator_subsets",
]
