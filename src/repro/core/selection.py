"""Selecting representative solutions from the Pareto archive.

The paper (Fig. 3 / Table II) picks a handful of points spread along the
Pareto front (S0 ... S5), simulates them, and selects a final configuration
(S5 for PM) that trades a small energy increase for a large latency gain.
These helpers reproduce that workflow programmatically:

* :func:`spread_selection` -- evenly spread points along the front ordered by
  the first objective (utilization variance), i.e. the S0-S5 sampling;
* :func:`select_latency_leaning` / :func:`select_energy_leaning` -- the two
  extremes of the front;
* :func:`knee_point` -- the point with the best balanced trade-off
  (maximum distance from the line joining the two extremes), a standard
  automated stand-in for the designer's manual choice.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, TypeVar

from repro.core.amosa import ArchiveEntry

SolutionT = TypeVar("SolutionT")


def _sorted_by_first_objective(
    entries: Sequence[ArchiveEntry[SolutionT]],
) -> List[ArchiveEntry[SolutionT]]:
    return sorted(entries, key=lambda entry: (entry.objectives[0], entry.objectives[-1]))


def spread_selection(
    entries: Sequence[ArchiveEntry[SolutionT]], count: int
) -> List[ArchiveEntry[SolutionT]]:
    """Pick ``count`` points evenly spread along the front.

    Points are ordered by the first objective; the first and last points are
    always included (they are the per-objective extremes on a 2-objective
    front).

    Raises:
        ValueError: If ``count`` is not positive or no entries are supplied.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not entries:
        raise ValueError("no archive entries to select from")
    ordered = _sorted_by_first_objective(entries)
    if count >= len(ordered):
        return list(ordered)
    if count == 1:
        return [ordered[0]]
    indices = [
        round(i * (len(ordered) - 1) / (count - 1)) for i in range(count)
    ]
    seen = []
    for index in indices:
        if index not in seen:
            seen.append(index)
    return [ordered[index] for index in seen]


def select_latency_leaning(
    entries: Sequence[ArchiveEntry[SolutionT]],
) -> ArchiveEntry[SolutionT]:
    """The point minimizing the first objective (utilization variance)."""
    if not entries:
        raise ValueError("no archive entries to select from")
    return min(entries, key=lambda entry: (entry.objectives[0], entry.objectives[-1]))


def select_energy_leaning(
    entries: Sequence[ArchiveEntry[SolutionT]],
) -> ArchiveEntry[SolutionT]:
    """The point minimizing the last objective (average distance)."""
    if not entries:
        raise ValueError("no archive entries to select from")
    return min(entries, key=lambda entry: (entry.objectives[-1], entry.objectives[0]))


def knee_point(entries: Sequence[ArchiveEntry[SolutionT]]) -> ArchiveEntry[SolutionT]:
    """The knee of a two-objective front (best balanced trade-off).

    Defined as the point with the maximum perpendicular distance from the
    straight line joining the two extreme points of the front.  With fewer
    than three points the latency-leaning extreme is returned.
    """
    if not entries:
        raise ValueError("no archive entries to select from")
    ordered = _sorted_by_first_objective(entries)
    if len(ordered) < 3:
        return select_latency_leaning(ordered)
    first = ordered[0].objectives
    last = ordered[-1].objectives
    span_x = last[0] - first[0]
    span_y = last[-1] - first[-1]
    norm = (span_x ** 2 + span_y ** 2) ** 0.5
    if norm == 0.0:
        return ordered[0]
    best = ordered[0]
    best_distance = -1.0
    for entry in ordered:
        x, y = entry.objectives[0], entry.objectives[-1]
        distance = abs(
            span_y * (x - first[0]) - span_x * (y - first[-1])
        ) / norm
        if distance > best_distance:
            best_distance = distance
            best = entry
    return best


#: Named archive-selection strategies (the ``selection`` field of
#: :class:`~repro.spec.DesignSpec`).
SELECTION_STRATEGIES: Dict[
    str, Callable[[Sequence[ArchiveEntry]], ArchiveEntry]
] = {
    "knee": knee_point,
    "latency": select_latency_leaning,
    "energy": select_energy_leaning,
}


def select_by_strategy(
    name: str, entries: Sequence[ArchiveEntry[SolutionT]]
) -> ArchiveEntry[SolutionT]:
    """Apply a named selection strategy to archive entries.

    Raises:
        ValueError: Unknown strategy name, or an empty archive.
    """
    strategy = SELECTION_STRATEGIES.get(str(name).lower())
    if strategy is None:
        raise ValueError(
            f"unknown selection strategy {name!r}; "
            f"expected one of {sorted(SELECTION_STRATEGIES)}"
        )
    return strategy(entries)
