"""CDA: congestion-aware dynamic elevator assignment (baseline 2).

CDA (Fu et al., ISCAS 2019) selects, for every inter-layer packet, the
elevator minimizing a congestion cost computed from the *buffer utilization
of the routers between the source and the elevator*.  That requires global
(at least layer-wide) occupancy information at every router; the paper
treats this optimistically -- "we ... assume that the information is
instantaneously received at every router" -- and this implementation does
the same by querying the live simulator state.

The cost of an elevator is the distance from the source to the elevator
plus the instantaneous buffer occupancy of the routers along that path
(congestion term).  Following the description in the AdEle paper, the
destination side of the path is *not* part of CDA's cost -- the scheme is
driven by source-to-elevator congestion -- so under zero load CDA degrades
to the nearest-elevator choice of Elevator-First and spreads traffic to
farther elevators only when the near ones congest.

In the instantaneous mode (``update_period == 1``) a selection therefore
reads only the routers on the source's paths to the healthy elevators.
With ``update_period > 1`` the policy snapshots the whole mesh once per
period, and every selection until the next refresh reads that snapshot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.routing.base import ElevatorSelectionPolicy, path_nodes, register_policy
from repro.topology.elevators import Elevator, ElevatorPlacement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network


@register_policy(
    "cda",
    description="congestion-aware dynamic assignment with global occupancy (baseline 2)",
)
class CDAPolicy(ElevatorSelectionPolicy):
    """Congestion-aware dynamic elevator assignment.

    Args:
        placement: Elevator placement.
        congestion_weight: Weight of the aggregate buffer occupancy along the
            source-to-elevator path, in hop-equivalents per buffered flit.
        update_period: How often (in cycles) the global occupancy snapshot is
            refreshed.  ``1`` is the paper's optimistic instantaneous-sharing
            assumption; larger values model the staleness a real
            implementation would incur and are used by the ablation bench.
    """

    name = "cda"

    def __init__(
        self,
        placement: ElevatorPlacement,
        congestion_weight: float = 1.0,
        update_period: int = 1,
    ) -> None:
        super().__init__(placement)
        if congestion_weight < 0:
            raise ValueError("congestion_weight must be non-negative")
        if update_period < 1:
            raise ValueError("update_period must be >= 1")
        self.congestion_weight = congestion_weight
        self.update_period = update_period
        self._snapshot: Dict[int, int] = {}
        self._snapshot_cycle: Optional[int] = None
        # Intra-layer path from every source to every elevator (on the
        # source's layer) is static, so precompute the node lists once.
        self._paths: Dict[Tuple[int, int], List[int]] = {}

    def reset(self) -> None:
        """Drop the cached occupancy snapshot (fresh simulation)."""
        self._snapshot = {}
        self._snapshot_cycle = None

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def _select(
        self,
        source: int,
        destination: int,
        network: Optional["Network"],
        cycle: int,
    ) -> Elevator:
        candidates = self.placement.healthy_elevators()
        occupancy = self._occupancy_view(network, source, candidates, cycle)
        best: Optional[Elevator] = None
        best_cost = float("inf")
        for elevator in candidates:
            cost = self._cost(source, elevator, occupancy)
            if cost < best_cost:
                best = elevator
                best_cost = cost
        assert best is not None
        return best

    def _occupancy_view(
        self,
        network: Optional["Network"],
        source: int,
        candidates: List[Elevator],
        cycle: int,
    ) -> Dict[int, int]:
        """The buffer occupancy the source's selection sees this cycle.

        The instantaneous view reads only the routers on the candidate
        paths, which are all :meth:`_cost` looks up.  A stale view is one
        whole-mesh snapshot, because every source selecting before the
        next refresh reads it.
        """
        if network is None or self.congestion_weight == 0:
            return {}
        if self.update_period == 1:
            occupancy: Dict[int, int] = {}
            for elevator in candidates:
                for node in self._path_to_elevator(source, elevator):
                    if node not in occupancy:
                        occupancy[node] = network.buffer_occupancy(node)
            return occupancy
        due = (
            self._snapshot_cycle is None
            or cycle - self._snapshot_cycle >= self.update_period
        )
        if due:
            self._snapshot = {
                node: network.buffer_occupancy(node)
                for node in self.mesh.nodes()
            }
            self._snapshot_cycle = cycle
        return self._snapshot

    def _cost(
        self,
        source: int,
        elevator: Elevator,
        occupancy: Dict[int, int],
    ) -> float:
        source_coord = self.mesh.coordinate(source)
        distance = abs(source_coord.x - elevator.x) + abs(source_coord.y - elevator.y)
        congestion = 0.0
        if occupancy and self.congestion_weight > 0:
            for node in self._path_to_elevator(source, elevator):
                congestion += occupancy.get(node, 0)
        return distance + self.congestion_weight * congestion

    def _path_to_elevator(self, source: int, elevator: Elevator) -> List[int]:
        """Nodes of the intra-layer path from the source to the elevator."""
        key = (source, elevator.index)
        path = self._paths.get(key)
        if path is None:
            source_layer = self.mesh.coordinate(source).z
            elevator_node = self.placement.elevator_node(elevator, source_layer)
            if elevator_node == source:
                path = [source]
            else:
                path = path_nodes(
                    self.mesh, source, elevator_node, elevator.column
                )
            self._paths[key] = path
        return path
