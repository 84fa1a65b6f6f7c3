"""Pareto-dominance utilities and a bounded Pareto archive.

All objectives are minimized.  A point ``a`` *dominates* ``b`` when it is no
worse in every objective and strictly better in at least one.  The
two-objective archive keeps only mutually non-dominated points and, when it
grows past its hard limit, thins itself with farthest-point sampling in
normalized objective space -- a deterministic stand-in for AMOSA's
clustering step that preserves the spread of the front.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Generic, Iterable, List, Optional, Sequence, Tuple, TypeVar

Objectives = Tuple[float, ...]
SolutionT = TypeVar("SolutionT")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when objective vector ``a`` Pareto-dominates ``b`` (minimization)."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have the same length")
    not_worse = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return not_worse and strictly_better


def pareto_front(points: Iterable[Sequence[float]]) -> List[Tuple[float, ...]]:
    """The non-dominated subset of a collection of objective vectors."""
    unique = [tuple(point) for point in points]
    front: List[Tuple[float, ...]] = []
    for candidate in unique:
        if any(dominates(other, candidate) for other in unique if other != candidate):
            continue
        if candidate not in front:
            front.append(candidate)
    return front


@dataclass
class ArchivePoint(Generic[SolutionT]):
    """A solution together with its objective vector."""

    solution: SolutionT
    objectives: Objectives


class ParetoArchive(Generic[SolutionT]):
    """A bounded archive of mutually non-dominated two-objective solutions.

    Every problem of the offline stage has two objectives (Eq. 1-3:
    utilization variance and average distance), so the archive keeps its
    front sorted and answers dominance queries with binary searches.

    Args:
        hard_limit: Maximum number of points retained after thinning (AMOSA's
            HL).
        soft_limit: Size at which thinning is triggered (AMOSA's SL); must be
            at least ``hard_limit``.
    """

    def __init__(self, hard_limit: int = 20, soft_limit: Optional[int] = None) -> None:
        if hard_limit < 1:
            raise ValueError("hard_limit must be >= 1")
        if soft_limit is None:
            soft_limit = hard_limit * 2
        if soft_limit < hard_limit:
            raise ValueError("soft_limit must be >= hard_limit")
        self.hard_limit = hard_limit
        self.soft_limit = soft_limit
        self._points: List[ArchivePoint[SolutionT]] = []
        self._vectors: Optional[List[Objectives]] = None
        self._bounds: Optional[Tuple[List[float], List[float]]] = None
        self._sorted2d: Optional[Tuple[List[float], List[float]]] = None

    # ------------------------------------------------------------------ #
    # Content
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._points)

    def points(self) -> List[ArchivePoint[SolutionT]]:
        """Snapshot of the archive content."""
        return list(self._points)

    def _invalidate(self) -> None:
        self._vectors = None
        self._bounds = None
        self._sorted2d = None

    def vectors(self) -> List[Objectives]:
        """Objective vectors of all archived points (cached; do not mutate).

        The returned list is reused until the archive changes -- the hot
        acceptance loop of AMOSA reads it several times per iteration.
        """
        if self._vectors is None:
            self._vectors = [point.objectives for point in self._points]
        return self._vectors

    def objective_vectors(self) -> List[Objectives]:
        """Objective vectors of all archived points (fresh copy)."""
        return list(self.vectors())

    def sorted_2d(self) -> Tuple[List[float], List[float]]:
        """Cached parallel ``(first, second)`` objective lists, sorted.

        A mutually non-dominated 2-objective set is *strictly* increasing
        in the first objective and strictly decreasing in the second once
        sorted, so the members dominating any query point form one
        contiguous slice -- AMOSA's acceptance test exploits this with two
        binary searches instead of a full scan.
        """
        if self._sorted2d is None:
            ordered = sorted(self.vectors())
            self._sorted2d = (
                [vector[0] for vector in ordered],
                [vector[1] for vector in ordered],
            )
        return self._sorted2d

    def bounds(self) -> Optional[Tuple[List[float], List[float]]]:
        """Cached per-objective ``(mins, maxs)`` over the archive.

        ``None`` for an empty archive.
        """
        if self._bounds is None:
            if not self._points:
                return None
            # The sorted front is monotone: first objective increasing,
            # second decreasing -- bounds are its end points.
            v0s, v1s = self.sorted_2d()
            self._bounds = ([v0s[0], v1s[-1]], [v0s[-1], v1s[0]])
        return self._bounds

    def solutions(self) -> List[SolutionT]:
        """Solutions of all archived points."""
        return [point.solution for point in self._points]

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def add(self, solution: SolutionT, objectives: Sequence[float]) -> bool:
        """Insert a solution if it is not dominated by the archive.

        Points dominated by the new solution are removed.  Returns ``True``
        when the solution entered the archive.  The sorted front is
        strictly increasing in the first objective and strictly decreasing
        in the second, so both the is-dominated test and the set of members
        the new point dominates reduce to binary searches.

        Raises:
            ValueError: The objective vector does not have two entries.
        """
        vector = tuple(float(v) for v in objectives)
        if len(vector) != 2:
            raise ValueError(
                f"ParetoArchive is two-objective; got {len(vector)} "
                "objective(s)"
            )
        c0, c1 = vector
        v0s, v1s = self.sorted_2d()
        hi = bisect_right(v0s, c0)
        if hi:
            # The prefix member with the smallest second objective decides
            # both the dominated test and the duplicate test.
            m0 = v0s[hi - 1]
            m1 = v1s[hi - 1]
            if m0 == c0 and m1 == c1:
                return False  # exact duplicate
            if m1 < c1 or (m1 == c1 and m0 < c0):
                return False  # dominated by the archive
        # Members dominated by the new point: first objectives >= c0 form a
        # suffix; within it, second objectives >= c1 form a prefix.
        start = bisect_left(v0s, c0)
        end = start
        size = len(v0s)
        while end < size and v1s[end] >= c1:
            end += 1
        if end > start:
            doomed = set(zip(v0s[start:end], v1s[start:end]))
            self._points = [
                point for point in self._points if point.objectives not in doomed
            ]
        self._points.append(ArchivePoint(solution=solution, objectives=vector))
        # Maintain the sorted arrays (and their monotone bounds) in place --
        # the acceptance test reads them every iteration, a full rebuild per
        # accepted move would dominate the archive cost.
        if end > start:
            del v0s[start:end]
            del v1s[start:end]
        v0s.insert(start, c0)
        v1s.insert(start, c1)
        self._vectors = None
        self._bounds = ([v0s[0], v1s[-1]], [v0s[-1], v1s[0]])
        if len(self._points) > self.soft_limit:
            self._thin()
        return True

    def _thin(self) -> None:
        """Reduce the archive to ``hard_limit`` points, preserving spread."""
        if len(self._points) <= self.hard_limit:
            return
        vectors = [point.objectives for point in self._points]
        dimensions = len(vectors[0])
        mins = [min(v[d] for v in vectors) for d in range(dimensions)]
        maxs = [max(v[d] for v in vectors) for d in range(dimensions)]
        spans = [max(maxs[d] - mins[d], 1e-12) for d in range(dimensions)]

        def normalize(vector: Objectives) -> Tuple[float, ...]:
            return tuple((vector[d] - mins[d]) / spans[d] for d in range(dimensions))

        normalized = [normalize(v) for v in vectors]

        # Always keep the per-objective extremes, then farthest-point sample.
        # The minimum distance of every candidate to the kept set is
        # maintained incrementally (each round only measures against the
        # newest kept point), which keeps thinning O(n * hard_limit).
        keep: List[int] = []
        for d in range(dimensions):
            best = min(range(len(vectors)), key=lambda i: vectors[i][d])
            if best not in keep:
                keep.append(best)

        count = len(self._points)

        def distance_to(i: int, k: int) -> float:
            return sum(
                (normalized[i][d] - normalized[k][d]) ** 2 for d in range(dimensions)
            )

        min_distance = [
            min(distance_to(i, k) for k in keep) for i in range(count)
        ]
        kept = set(keep)
        while len(keep) < min(self.hard_limit, count):
            best_index = None
            best_distance = -1.0
            for i in range(count):
                if i in kept:
                    continue
                if min_distance[i] > best_distance:
                    best_distance = min_distance[i]
                    best_index = i
            if best_index is None:
                break
            keep.append(best_index)
            kept.add(best_index)
            for i in range(count):
                if i not in kept:
                    candidate = distance_to(i, best_index)
                    if candidate < min_distance[i]:
                        min_distance[i] = candidate
        self._points = [self._points[i] for i in sorted(keep)]
        self._invalidate()

    def invariant_holds(self) -> bool:
        """True when no archive point dominates another (test helper)."""
        for i, a in enumerate(self._points):
            for j, b in enumerate(self._points):
                if i != j and dominates(a.objectives, b.objectives):
                    return False
        return True
