"""The two offline optimization objectives (paper Eq. 1-5).

Objective 1 -- *elevator-utilization variance*: assuming each router ``i``
spreads its inter-layer traffic uniformly over its subset ``A_i`` (the
round-robin assumption of Section III-B-1), the expected utilization of
elevator ``e`` is

    U_e = sum_i (1 / |A_i|) * sum_j f_ij * P_ije          (Eq. 1)

with ``P_ije = 1`` iff the (inter-layer) pair ``(i, j)`` routes through
``e`` -- i.e. iff ``e`` belongs to ``A_i``.  The objective is the variance
of ``U_e`` over all elevators (Eq. 2-3); a low variance means balanced
elevators and therefore fewer hotspots.

Objective 2 -- *average inter-layer distance*: the hop count of the
source-elevator-destination path, averaged over inter-layer pairs and over
the elevators of each source's subset (Eq. 4-5); a low average distance
means shorter paths and therefore lower energy.

Two evaluators implement the objectives:

* :class:`ObjectiveEvaluator` precomputes the per-router inter-layer traffic
  mass and per-(router, elevator) distance sums so that evaluating one
  candidate subset assignment is ``O(N * |A_i|)`` instead of
  ``O(N^2 * E)``;
* :class:`DeltaObjectiveEvaluator` additionally keeps running aggregates of
  the per-router contribution terms, so re-evaluating after a perturbation
  that touches one router costs ``O(|A_i| + E)`` instead of ``O(N * |A_i|)``
  -- the speedup that makes paper-scale AMOSA runs fast in pure Python.

Every order-sensitive aggregation in both evaluators is *exactly rounded*
(``math.fsum`` in the full evaluator, the integer-exact :class:`ExactSum`
accumulator in the incremental one).  An exactly rounded sum depends only on
the multiset of addends, never on their order or on the add/remove history,
which is what makes the two evaluators **bit-identical by construction**
(property-tested in ``tests/test_delta_objectives.py``).  The per-router
tables they both read are built once, as running sums in a fixed order
(see :class:`ObjectiveEvaluator`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from repro.topology.elevators import ElevatorPlacement
from repro.traffic.patterns import TrafficMatrix

SubsetAssignment = Mapping[int, Sequence[int]]


def _variance_of_vector(values) -> float:
    """Population variance of an in-memory utilization vector.

    The single shared implementation behind every variance computation in
    the offline stage; both evaluators feed it bit-identical utilization
    vectors, so their variances agree exactly (numpy's pairwise summation,
    one rounding on every install).
    """
    count = len(values)
    if count == 0:
        return 0.0
    array = _np.asarray(values, dtype=_np.float64)
    mean = array.sum() / count
    deviation = array - mean
    return float((deviation * deviation).sum() / count)


def variance_of(values: Iterable[float]) -> float:
    """Population variance of a sequence of floats (Eq. 3)."""
    return _variance_of_vector(list(values))


#: Exponent of the smallest positive IEEE-754 double (2**-1074): every finite
#: float is an integer multiple of it, which is what :class:`ExactSum`
#: exploits.
_EXACT_EXPONENT = 1074
_EXACT_DENOMINATOR = 1 << _EXACT_EXPONENT

def _scale_term(value: float) -> int:
    """The exact integer representation (multiple of 2**-1074) of a float."""
    numerator, denominator = value.as_integer_ratio()
    # The denominator is always a power of two <= 2**1074 for finite floats.
    return numerator << (_EXACT_EXPONENT - denominator.bit_length() + 1)


def _scaled_to_float(scaled: int) -> float:
    """Correctly rounded float value of an exact scaled-integer sum.

    CPython's ``int / int`` true division rounds correctly, so this is the
    single rounding step of the exact-summation pipeline -- identical to
    what ``math.fsum`` returns for the same multiset of terms.
    """
    if scaled == 0:
        return 0.0
    return scaled / _EXACT_DENOMINATOR


class ExactSum:
    """An exact, order-independent accumulator over binary floats.

    Every finite IEEE-754 double is an integer multiple of ``2**-1074``, so
    the running sum is kept as a (big) integer numerator over that fixed
    denominator.  Adding and discarding terms is therefore associative and
    *exact*: the state depends only on the multiset of currently held terms,
    never on the order they arrived in or on removed terms.  :meth:`value`
    rounds the exact sum once (correctly rounded integer division), which by
    construction equals ``math.fsum`` over the same multiset -- the property
    the incremental evaluator's bit-identity contract rests on.
    """

    __slots__ = ("_scaled",)

    def __init__(self) -> None:
        self._scaled = 0

    def add(self, value: float) -> None:
        """Add one term to the multiset."""
        self._scaled += _scale_term(value)

    def discard(self, value: float) -> None:
        """Remove one previously added term (exact inverse of :meth:`add`)."""
        self._scaled -= _scale_term(value)

    def value(self) -> float:
        """The exactly rounded float value of the current sum."""
        return _scaled_to_float(self._scaled)

    def clear(self) -> None:
        """Reset to an empty sum."""
        self._scaled = 0

    def __bool__(self) -> bool:
        return self._scaled != 0


def elevator_utilization(
    subsets: SubsetAssignment,
    placement: ElevatorPlacement,
    traffic: TrafficMatrix,
) -> Dict[int, float]:
    """Expected utilization ``U_e`` of every elevator (Eq. 1).

    Args:
        subsets: Mapping of router id to the elevator indices of ``A_i``.
        placement: Elevator placement (supplies the mesh and elevator list).
        traffic: Pairwise traffic frequencies ``f_ij``.

    Returns:
        ``{elevator_index: U_e}`` for every elevator of the placement.
    """
    contributions: Dict[int, List[float]] = {
        elevator.index: [] for elevator in placement.elevators
    }
    interlayer_mass = _interlayer_traffic_mass(placement, traffic)
    for node, subset in subsets.items():
        if not subset:
            continue
        share = interlayer_mass.get(node, 0.0) / len(subset)
        if share == 0.0:
            continue
        for index in subset:
            contributions[index].append(share)
    return {index: math.fsum(values) for index, values in contributions.items()}


def utilization_variance(
    subsets: SubsetAssignment,
    placement: ElevatorPlacement,
    traffic: TrafficMatrix,
) -> float:
    """Variance of the elevator utilizations (Eq. 3)."""
    utilization = elevator_utilization(subsets, placement, traffic)
    return variance_of(utilization.values())


def average_distance(
    subsets: SubsetAssignment,
    placement: ElevatorPlacement,
    traffic: Optional[TrafficMatrix] = None,
) -> float:
    """Average inter-layer source-elevator-destination distance (Eq. 5).

    When ``traffic`` is supplied the per-pair distances are weighted by
    ``f_ij`` (an extension the paper mentions for known traffic); otherwise
    all inter-layer pairs count equally, exactly as Eq. 5.
    """
    mesh = placement.mesh
    totals: List[float] = []
    weights: List[float] = []
    for src, subset in subsets.items():
        if not subset:
            continue
        for dst in mesh.nodes():
            if dst == src or mesh.same_layer(src, dst):
                continue
            weight = 1.0
            if traffic is not None:
                weight = traffic.get((src, dst), 0.0)
                if weight == 0.0:
                    continue
            per_elevator = sum(
                placement.distance_via(src, dst, placement.elevator_by_index(index))
                for index in subset
            ) / len(subset)
            totals.append(weight * per_elevator)
            weights.append(weight)
    weight_sum = math.fsum(weights)
    if weight_sum == 0.0:
        return 0.0
    return math.fsum(totals) / weight_sum


def _interlayer_traffic_mass(
    placement: ElevatorPlacement, traffic: TrafficMatrix
) -> Dict[int, float]:
    """Total inter-layer outgoing traffic frequency per source router."""
    mesh = placement.mesh
    mass: Dict[int, float] = {}
    for (src, dst), weight in traffic.items():
        if weight == 0.0 or mesh.same_layer(src, dst):
            continue
        mass[src] = mass.get(src, 0.0) + weight
    return mass


class ObjectiveEvaluator:
    """Fast evaluator of (utilization variance, average distance).

    Precomputes, for the given placement and traffic matrix:

    * ``interlayer_mass[i]`` -- total inter-layer traffic originating at
      router ``i`` (the inner sum of Eq. 1);
    * ``distance_sum[i][e]`` -- the sum over inter-layer destinations ``j``
      of ``D^e_ij`` (the inner sums of Eq. 5), optionally traffic-weighted;
    * the Eq. 5 normalization constant.

    Evaluating a candidate assignment then only iterates over routers and
    their subsets.  The evaluation-time aggregations are exactly rounded
    (``math.fsum``), so the result depends only on the assignment -- never
    on router iteration order -- and agrees bit-for-bit with
    :class:`DeltaObjectiveEvaluator`, which reads the same tables.

    The tables are not exactly rounded: they are running sums.  For each
    source, ``distance_sum[i][e]`` adds ``w_ij * D^e_ij`` and the Eq. 5
    weight adds ``w_ij`` one IEEE addition at a time, in ascending
    destination order, with ``w_ij`` = ``1.0`` or ``f_ij`` over the
    inter-layer destinations (pairs with ``f_ij == 0`` add nothing).  They
    are built with numpy one source row at a time (O(N * E) memory), from
    every router's hop count to every elevator column; the sequential
    ``np.add.accumulate`` keeps that order, where a pairwise ``np.sum``
    would round traffic-weighted rows differently.  Entries are Python
    floats stored at ``elevator.index``.

    Args:
        placement: Elevator placement.
        traffic: Traffic matrix ``f_ij``.
        weight_distance_by_traffic: Weight Eq. 5 by ``f_ij`` instead of
            counting all inter-layer pairs equally.
    """

    def __init__(
        self,
        placement: ElevatorPlacement,
        traffic: TrafficMatrix,
        weight_distance_by_traffic: bool = False,
    ) -> None:
        self.placement = placement
        self.mesh = placement.mesh
        self.traffic = traffic
        self.weight_distance_by_traffic = weight_distance_by_traffic
        self.num_elevators = placement.num_elevators

        self.interlayer_mass: Dict[int, float] = _interlayer_traffic_mass(
            placement, traffic
        )
        self.distance_sum: Dict[int, List[float]] = {}
        self._distance_weight: Dict[int, float] = {}
        self._precompute_distances()

    def _precompute_distances(self) -> None:
        mesh = self.mesh
        elevators = self.placement.elevators
        node_ids = _np.arange(mesh.num_nodes)
        x = node_ids % mesh.size_x
        y = node_ids // mesh.size_x % mesh.size_y
        layer = node_ids // mesh.nodes_per_layer
        column_x = _np.array([elevator.x for elevator in elevators], dtype=_np.int64)
        column_y = _np.array([elevator.y for elevator in elevators], dtype=_np.int64)
        # to_column[n, e]: intra-layer hops from router n to elevator e's column.
        to_column = (
            _np.abs(x[:, None] - column_x[None, :])
            + _np.abs(y[:, None] - column_y[None, :])
        )
        for src in range(mesh.num_nodes):
            layers_crossed = _np.abs(layer - layer[src])
            if self.weight_distance_by_traffic:
                weights = _np.array(
                    [
                        self.traffic.get((src, dst), 0.0) if crossed else 0.0
                        for dst, crossed in enumerate(layers_crossed.tolist())
                    ],
                    dtype=_np.float64,
                )
            else:
                weights = (layers_crossed != 0).astype(_np.float64)
            # D[dst, e] of Eq. 4; same-layer rows carry weight 0.
            distance = to_column[src] + layers_crossed[:, None] + to_column
            # Running sums in ascending destination order, as a scalar
            # ``+=`` loop would form them; a zero-weight term adds nothing.
            totals = _np.add.accumulate(weights[:, None] * distance, axis=0)[-1]
            sums = [0.0] * self.num_elevators
            for elevator, total in zip(elevators, totals.tolist()):
                sums[elevator.index] = total
            self.distance_sum[src] = sums
            self._distance_weight[src] = _np.add.accumulate(weights)[-1].item()

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def utilizations(self, subsets: SubsetAssignment) -> List[float]:
        """Expected utilization per elevator index (Eq. 1)."""
        contributions: List[List[float]] = [[] for _ in range(self.num_elevators)]
        for node, subset in subsets.items():
            if not subset:
                continue
            mass = self.interlayer_mass.get(node, 0.0)
            if mass == 0.0:
                continue
            share = mass / len(subset)
            for index in subset:
                contributions[index].append(share)
        return [math.fsum(values) for values in contributions]

    def utilization_variance(self, subsets: SubsetAssignment) -> float:
        """Objective 1: variance of elevator utilizations (Eq. 3)."""
        return variance_of(self.utilizations(subsets))

    def average_distance(self, subsets: SubsetAssignment) -> float:
        """Objective 2: average inter-layer distance (Eq. 5)."""
        totals: List[float] = []
        weights: List[float] = []
        for node, subset in subsets.items():
            if not subset:
                continue
            node_weight = self._distance_weight.get(node, 0.0)
            if node_weight == 0.0:
                continue
            sums = self.distance_sum[node]
            totals.append(sum(sums[index] for index in subset) / len(subset))
            weights.append(node_weight)
        weight_sum = math.fsum(weights)
        if weight_sum == 0.0:
            return 0.0
        return math.fsum(totals) / weight_sum

    def evaluate(self, subsets: SubsetAssignment) -> Tuple[float, float]:
        """Both objectives as a ``(variance, average_distance)`` tuple."""
        return (self.utilization_variance(subsets), self.average_distance(subsets))


class DeltaObjectiveEvaluator:
    """Incrementally maintained (utilization variance, average distance).

    Keeps the per-router contribution terms of the current assignment --
    the utilization share ``mass_i / |A_i|`` and the per-router distance
    term of Eq. 5 -- inside exact scaled-integer aggregates (the
    :class:`ExactSum` representation, inlined).  Re-assigning one router's
    subset (:meth:`update`) removes its old terms and adds the new ones in
    ``O(|A_i|)``; :meth:`evaluate` then only converts the ``E`` elevator
    aggregates (lazily, dirty ones only) and applies the shared variance /
    normalization formulas in ``O(E)``.

    **Bit-identity contract**: for any assignment whose subsets are sorted
    tuples (what :meth:`SubsetSolution.subsets` produces; frozen sets are
    sorted internally), :meth:`evaluate` returns exactly the tuple
    :meth:`ObjectiveEvaluator.evaluate` would -- because both reduce the
    same multisets of per-router terms through exactly rounded sums, and
    identical terms are computed with identical operations.  Verified by a
    hypothesis property test over random placements, traffic matrices and
    perturbation sequences.

    Args:
        placement: Elevator placement.
        traffic: Traffic matrix ``f_ij``.
        weight_distance_by_traffic: Forwarded to the underlying
            :class:`ObjectiveEvaluator`.
        base: Optional pre-built full evaluator to share precomputed tables
            with (must match the other arguments).
    """

    def __init__(
        self,
        placement: ElevatorPlacement,
        traffic: TrafficMatrix,
        weight_distance_by_traffic: bool = False,
        base: Optional[ObjectiveEvaluator] = None,
    ) -> None:
        if base is None:
            base = ObjectiveEvaluator(
                placement, traffic, weight_distance_by_traffic=weight_distance_by_traffic
            )
        self.full = base
        self.placement = base.placement
        self.num_elevators = base.num_elevators
        self._mass = base.interlayer_mass
        self._distance_sum = base.distance_sum
        self._distance_weight = base._distance_weight
        # The exact representation scales every term by 2**shift.  Any
        # shift at least as large as a term's denominator exponent keeps
        # the arithmetic exact; starting near the precomputed tables' own
        # exponents (instead of the worst-case 1074 of :class:`ExactSum`)
        # keeps the integers a few machine words wide.  :meth:`_grow`
        # rescales everything exactly if a smaller term ever appears.
        self._shift = self._initial_shift()
        self._denominator = 1 << self._shift
        # Per-node constants, pre-scaled once: the distance normalization
        # weight enters/leaves the aggregate whenever a router's eligibility
        # flips, always with exactly this integer representation.
        self._weight_scaled: Dict[int, int] = {
            node: self._scale(weight)
            for node, weight in self._distance_weight.items()
            if weight != 0.0
        }

        # Current assignment state: the original subset objects (for cheap
        # identity-based diffing) plus the cached per-router scaled terms
        # ``(sorted_subset, share_scaled, term_scaled, weight_scaled)``.
        self._subset_obj: Dict[int, Any] = {}
        self._cached: Dict[int, Tuple[Tuple[int, ...], int, int, int]] = {}
        # (node, subset) -> (sorted_subset, share_scaled, term_scaled,
        # weight_scaled): annealing constantly revisits subsets (every
        # rejected move is reverted), so the sorted tuple and scaled terms
        # are computed once per distinct pair.  Keyed by subset *value*
        # (frozensets and tuples hash by content), so equal subsets from
        # different perturbations share the entry.
        self._term_memo: Dict[Tuple[int, Any], Tuple[Tuple[int, ...], int, int, int]] = {}

        self._util_scaled = [0] * self.num_elevators
        self._util_float = _np.zeros(self.num_elevators, dtype=_np.float64)
        self._dirty: set = set()
        self._total_scaled = 0
        self._wsum_scaled = 0
        self._wsum_float = 0.0
        self._last_solution: Optional[Any] = None
        # A peeked-but-uncommitted candidate: ``(solution, node, subset,
        # old_terms, new_terms)`` with the per-router terms the peek already
        # derived.  Rejected candidates never touch the aggregates; an
        # accepted one is committed lazily (reusing those terms) when its
        # first child arrives.
        self._pending: Optional[Tuple[Any, int, Any, Tuple, Tuple]] = None
        # Bounded memo of exact-integer -> float conversions: candidate
        # aggregates are the base aggregates plus a delta from a small set
        # of per-router terms, so the same exact sums recur constantly
        # (always with the same correctly rounded float value).
        self._convert: Dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # Exact scaled-integer representation
    # ------------------------------------------------------------------ #
    def _initial_shift(self) -> int:
        """A scale exponent covering the precomputed tables, with slack.

        The 64 bits of slack absorb the denominator growth of the
        ``mass / size`` and ``term / size`` divisions for any realistic
        subset size; genuinely smaller terms trigger :meth:`_grow`.
        """
        exponent = 0
        for value in self._mass.values():
            exponent = max(exponent, value.as_integer_ratio()[1].bit_length() - 1)
        for value in self._distance_weight.values():
            exponent = max(exponent, value.as_integer_ratio()[1].bit_length() - 1)
        for sums in self._distance_sum.values():
            for value in sums:
                exponent = max(
                    exponent, value.as_integer_ratio()[1].bit_length() - 1
                )
        return exponent + 64

    def _scale(self, value: float) -> int:
        """Exact integer representation ``value * 2**shift``."""
        numerator, denominator = value.as_integer_ratio()
        shift = self._shift - denominator.bit_length() + 1
        if shift < 0:
            self._grow(denominator.bit_length() - 1 + 64)
            shift = self._shift - denominator.bit_length() + 1
        return numerator << shift

    def _grow(self, required_exponent: int) -> None:
        """Exactly rescale all held integers to a larger shift (rare)."""
        delta = required_exponent - self._shift
        self._shift = required_exponent
        self._denominator = 1 << required_exponent
        self._util_scaled = [value << delta for value in self._util_scaled]
        self._total_scaled <<= delta
        self._wsum_scaled <<= delta
        self._weight_scaled = {
            node: value << delta for node, value in self._weight_scaled.items()
        }
        self._cached = {
            node: (ordered, share << delta, term << delta, weight << delta)
            for node, (ordered, share, term, weight) in self._cached.items()
        }
        self._term_memo = {
            key: (ordered, share << delta, term << delta, weight << delta)
            for key, (ordered, share, term, weight) in self._term_memo.items()
        }
        self._convert.clear()
        # A pending peek holds tuples in the old scale; dropping it is safe
        # (the aggregates were never touched) -- the next evaluation simply
        # falls back to the identity-diff scan.
        self._pending = None

    def _to_float(self, scaled: int) -> float:
        """Correctly rounded float value of a scaled-integer sum."""
        if scaled == 0:
            return 0.0
        return scaled / self._denominator

    # ------------------------------------------------------------------ #
    # State maintenance
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Drop the tracked assignment (back to the empty assignment)."""
        self._subset_obj.clear()
        self._cached.clear()
        self._util_scaled = [0] * self.num_elevators
        self._util_float = _np.zeros(self.num_elevators, dtype=_np.float64)
        self._dirty.clear()
        self._total_scaled = 0
        self._wsum_scaled = 0
        self._wsum_float = 0.0
        self._last_solution = None
        self._pending = None

    def rebase(self, assignment: Mapping[int, Any]) -> None:
        """Replace the tracked assignment wholesale (O(N))."""
        self.reset()
        for node, subset in assignment.items():
            self.update(node, subset)

    def update(self, node: int, subset: Any) -> None:
        """Re-assign one router's subset (O(|old| + |new|)).

        Args:
            node: Router id.
            subset: Iterable of elevator indices (set, frozen set or tuple);
                an empty subset removes the router's contributions.
        """
        util = self._util_scaled
        dirty = self._dirty
        cached = self._cached.get(node)
        self._subset_obj[node] = subset

        ordered, new_share, new_term, new_weight = self._terms_for(node, subset)

        if cached is None:
            old_ordered: Tuple[int, ...] = ()
            old_share = 0
            old_term = 0
            old_weight = 0
        else:
            old_ordered, old_share, old_term, old_weight = cached

        if new_share == old_share:
            # Same per-elevator share (a same-size swap, or an untouched /
            # zero-mass router): only the symmetric difference moves.
            if new_share:
                for index in old_ordered:
                    if index not in ordered:
                        util[index] -= new_share
                        dirty.add(index)
                for index in ordered:
                    if index not in old_ordered:
                        util[index] += new_share
                        dirty.add(index)
        else:
            if old_share:
                for index in old_ordered:
                    util[index] -= old_share
                    dirty.add(index)
            if new_share:
                for index in ordered:
                    util[index] += new_share
                    dirty.add(index)

        if new_term != old_term:
            self._total_scaled += new_term - old_term
        if new_weight != old_weight:
            # Eligibility flipped (subset became empty / non-empty).
            self._wsum_scaled += new_weight - old_weight
            self._wsum_float = self._to_float(self._wsum_scaled)

        self._cached[node] = (ordered, new_share, new_term, new_weight)

    def _terms_for(
        self, node: int, subset: Any
    ) -> Tuple[Tuple[int, ...], int, int, int]:
        """Memoized (sorted subset, scaled share/distance-term/weight).

        ``subset`` may be any iterable of elevator indices; hashable values
        (frozen sets, tuples) hit the memo directly, unhashable ones are
        canonicalized first.
        """
        try:
            memo = self._term_memo.get((node, subset))
        except TypeError:
            return self._terms_for(node, tuple(sorted(subset)))
        if memo is not None:
            return memo
        ordered = tuple(sorted(subset))
        if not ordered:
            entry = (ordered, 0, 0, 0)
        else:
            size = len(ordered)
            mass = self._mass.get(node, 0.0)
            share = self._scale(mass / size) if mass != 0.0 else 0
            term = 0
            weight = self._weight_scaled.get(node, 0)
            if weight:
                sums = self._distance_sum[node]
                term = self._scale(sum(sums[index] for index in ordered) / size)
            entry = (ordered, share, term, weight)
        self._term_memo[(node, subset)] = entry
        return entry

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def utilizations(self) -> List[float]:
        """Expected utilization per elevator index of the tracked state."""
        if self._dirty:
            for index in self._dirty:
                self._util_float[index] = self._to_float(self._util_scaled[index])
            self._dirty.clear()
        return self._util_float.tolist()

    def evaluate(self) -> Tuple[float, float]:
        """Both objectives of the currently tracked assignment."""
        util_float = self._util_float
        if self._dirty:
            util_scaled = self._util_scaled
            for index in self._dirty:
                util_float[index] = self._convert_scaled(util_scaled[index])
            self._dirty.clear()
        # Shared with variance_of (bit-identity with the full evaluator):
        # the vectorized helper consumes the array in place, so the hot
        # path pays no list copy.
        variance = _variance_of_vector(util_float)
        weight_sum = self._wsum_float
        if weight_sum == 0.0:
            return (variance, 0.0)
        return (variance, self._to_float(self._total_scaled) / weight_sum)

    def evaluate_assignment(self, assignment: Mapping[int, Any]) -> Tuple[float, float]:
        """Evaluate an assignment, reusing everything unchanged since last call.

        Unchanged routers are detected by subset-object identity (perturbed
        solutions share the untouched subsets of their parent), so a
        one-router perturbation costs one :meth:`update` plus the O(E)
        aggregation of :meth:`evaluate`.
        """
        self._pending = None
        self._last_solution = None
        self._sync_assignment(assignment)
        return self.evaluate()

    def _sync_assignment(self, assignment: Mapping[int, Any]) -> None:
        if assignment.keys() != self._subset_obj.keys():
            self.rebase(assignment)
            return
        tracked = self._subset_obj
        for node, subset in assignment.items():
            if subset is not tracked[node]:
                self.update(node, subset)

    def evaluate_solution(self, solution: Any) -> Tuple[float, float]:
        """Evaluate a :class:`~repro.core.subset_search.SubsetSolution`.

        Uses the solution's derivation record (``parent`` /
        ``changed_node``, maintained by
        :meth:`SubsetSolution.with_subset`) to serve the annealing /
        local-search access pattern without scanning the assignment:

        * a child of the tracked base solution is *peeked* -- its objectives
          are computed from the base aggregates plus the one changed
          router's terms without committing anything, so rejected
          candidates (the overwhelming majority at low temperature) cost
          zero state maintenance;
        * when a peeked candidate turns out accepted (its own child arrives
          next), it is committed with a single memoized :meth:`update`.

        Any other pattern falls back to the identity-diff scan of
        :meth:`evaluate_assignment`.
        """
        base = self._last_solution
        parent = solution.parent
        changed = solution.changed_node
        pending = self._pending
        if pending is not None:
            pending_solution = pending[0]
            if parent is pending_solution and changed is not None:
                # The peeked candidate was accepted: commit it; it is the
                # new base and the incoming solution is its child.
                self._commit_pending()
                if base is not None:
                    base._release_derivation()
                self._last_solution = base = pending_solution
            elif solution is pending_solution:
                self._commit_pending()
                if base is not None:
                    base._release_derivation()
                self._last_solution = solution
                return self.evaluate()
            else:
                # The peeked candidate was rejected (a sibling arrived) or
                # the pattern broke; the aggregates never changed, so the
                # pending record is simply dropped.
                self._pending = None

        if solution is base:
            return self.evaluate()
        if (
            base is not None
            and parent is base
            and changed is not None
            and changed in self._cached
        ):
            return self._peek_solution(solution, changed)
        if (
            base is not None
            and base.parent is solution
            and base.changed_node is not None
        ):
            # Stepping back to the base's parent (local-search revert).
            self.update(base.changed_node, solution.assignment[base.changed_node])
        else:
            self._sync_assignment(solution.assignment)
        if base is not None and base is not solution:
            # The derivation record of the outgoing base has been consumed;
            # releasing it keeps accept chains from pinning every
            # historical assignment in memory.
            base._release_derivation()
        self._last_solution = solution
        return self.evaluate()

    def _convert_scaled(self, scaled: int) -> float:
        """Memoized :func:`_scaled_to_float` (bounded; value-keyed, exact)."""
        convert = self._convert
        value = convert.get(scaled)
        if value is None:
            value = self._to_float(scaled)
            if len(convert) >= 1 << 16:
                convert.clear()
            convert[scaled] = value
        return value

    def _peek_solution(self, solution: Any, node: int) -> Tuple[float, float]:
        """Objectives of the tracked state with one router re-assigned.

        Pure read: computes the same floats a commit-then-evaluate would
        (identical scaled aggregates, identical single-rounding
        conversions) without touching the aggregates.  The derived
        per-router terms are parked in :attr:`_pending` so an accepted
        candidate commits without re-deriving them.
        """
        subset = solution.assignment[node]
        util_float = self._util_float
        if self._dirty:
            util_scaled = self._util_scaled
            for index in self._dirty:
                util_float[index] = self._convert_scaled(util_scaled[index])
            self._dirty.clear()

        old = self._cached[node]
        old_ordered, old_share, old_term, old_weight = old
        memo = self._term_memo.get((node, subset))
        if memo is None:
            memo = self._terms_for(node, subset)
        ordered, new_share, new_term, new_weight = memo
        self._pending = (solution, node, subset, old, memo)

        convert = self._convert_scaled
        util = util_float.copy()
        scaled = self._util_scaled
        if new_share == old_share:
            # Same per-elevator share (a same-size swap): only the
            # symmetric difference moves.
            if new_share and old_ordered != ordered:
                for index in old_ordered:
                    if index not in ordered:
                        util[index] = convert(scaled[index] - new_share)
                for index in ordered:
                    if index not in old_ordered:
                        util[index] = convert(scaled[index] + new_share)
        else:
            deltas: Dict[int, int] = {}
            if old_share:
                for index in old_ordered:
                    deltas[index] = -old_share
            if new_share:
                for index in ordered:
                    deltas[index] = deltas.get(index, 0) + new_share
            for index, delta in deltas.items():
                if delta:
                    util[index] = convert(scaled[index] + delta)

        variance = _variance_of_vector(util)

        if new_weight != old_weight:
            wsum_float = convert(self._wsum_scaled + new_weight - old_weight)
        else:
            wsum_float = self._wsum_float
        if wsum_float == 0.0:
            return (variance, 0.0)
        total = self._total_scaled + new_term - old_term
        return (variance, convert(total) / wsum_float)

    def _commit_pending(self) -> None:
        """Apply the pending peeked candidate to the aggregates.

        Exactly :meth:`update` for the pending router, minus re-deriving
        the terms the peek already computed.
        """
        _, node, subset, old, memo = self._pending
        self._pending = None
        old_ordered, old_share, old_term, old_weight = old
        ordered, new_share, new_term, new_weight = memo
        util = self._util_scaled
        dirty = self._dirty
        if new_share == old_share:
            if new_share and old_ordered != ordered:
                for index in old_ordered:
                    if index not in ordered:
                        util[index] -= new_share
                        dirty.add(index)
                for index in ordered:
                    if index not in old_ordered:
                        util[index] += new_share
                        dirty.add(index)
        else:
            if old_share:
                for index in old_ordered:
                    util[index] -= old_share
                    dirty.add(index)
            if new_share:
                for index in ordered:
                    util[index] += new_share
                    dirty.add(index)
        if new_term != old_term:
            self._total_scaled += new_term - old_term
        if new_weight != old_weight:
            self._wsum_scaled += new_weight - old_weight
            self._wsum_float = self._to_float(self._wsum_scaled)
        self._subset_obj[node] = subset
        self._cached[node] = memo
