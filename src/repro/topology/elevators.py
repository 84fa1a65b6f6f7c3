"""Elevator (vertical TSV link) placements for PC-3DNoCs.

An *elevator* is a vertical column of the mesh whose routers are connected
across all layers with TSV links.  In a partially connected 3D NoC only a
small subset of columns carries elevators; every other router must route its
inter-layer packets through one of these elevator columns.

This module provides:

* :class:`Elevator` / :class:`ElevatorPlacement` -- the placement data model.
* :func:`standard_placement` and the global :data:`PLACEMENT_REGISTRY` --
  the paper's placement patterns ``PS1``, ``PS2``, ``PS3`` (4x4x4 mesh) and
  ``PM`` (8x8x4 mesh).  The paper describes PS1/PS3/PM as "extracted to have
  an optimized average distance" and PS2 as taken from the FL-RuNS paper;
  exact coordinates are not published, so PS1/PS3/PM use fixed
  low-average-distance columns (hard-coded in ``_STANDARD_COLUMNS``) and PS2
  uses a regular, symmetric pattern.
* :func:`average_distance_of_placement` -- the average source-elevator-
  destination distance metric the paper's extraction optimizes, used here
  as a sanity metric for placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.registry import Registry
from repro.topology.mesh3d import Coordinate, Mesh3D

#: Registry of elevator placements.  Entries are zero-argument factories
#: returning a fresh :class:`ElevatorPlacement`; names are upper-cased
#: (``PS1`` and ``ps1`` resolve identically).  Register your own with
#: :func:`register_placement` and it becomes usable by name in
#: :class:`~repro.spec.PlacementSpec`, batches, benches and the CLI.
PLACEMENT_REGISTRY: Registry = Registry("placement", normalize=str.upper)


@dataclass(frozen=True)
class Elevator:
    """A single elevator column.

    Attributes:
        index: Dense elevator index (``0 .. E-1``) within its placement.
        column: The ``(x, y)`` column that carries the TSV bundle.
    """

    index: int
    column: Tuple[int, int]

    @property
    def x(self) -> int:
        """X coordinate of the elevator column."""
        return self.column[0]

    @property
    def y(self) -> int:
        """Y coordinate of the elevator column."""
        return self.column[1]


class ElevatorPlacement:
    """A set of elevator columns on a given mesh.

    Args:
        mesh: The 3D mesh the placement applies to.
        columns: Iterable of ``(x, y)`` columns carrying elevators.  Order is
            preserved and defines elevator indices.
        name: Optional human-readable name (e.g. ``"PS1"``).

    Raises:
        ValueError: If a column is out of range, duplicated, or the list is
            empty while the mesh has more than one layer.
    """

    def __init__(
        self,
        mesh: Mesh3D,
        columns: Iterable[Tuple[int, int]],
        name: str = "custom",
    ) -> None:
        self.mesh = mesh
        self.name = name
        cols = [tuple(c) for c in columns]
        if mesh.num_layers > 1 and not cols:
            raise ValueError("a multi-layer mesh needs at least one elevator")
        seen = set()
        for col in cols:
            x, y = col
            if not (0 <= x < mesh.size_x and 0 <= y < mesh.size_y):
                raise ValueError(f"elevator column {col} outside mesh {mesh.shape}")
            if col in seen:
                raise ValueError(f"duplicate elevator column {col}")
            seen.add(col)
        self.elevators: List[Elevator] = [
            Elevator(index=i, column=(int(c[0]), int(c[1]))) for i, c in enumerate(cols)
        ]
        self._column_set = {e.column for e in self.elevators}
        self._faulty: set = set()

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_elevators(self) -> int:
        """Number of elevator columns."""
        return len(self.elevators)

    def columns(self) -> List[Tuple[int, int]]:
        """The elevator columns in index order."""
        return [e.column for e in self.elevators]

    def has_elevator(self, node_id: int) -> bool:
        """Return ``True`` if the router at ``node_id`` sits on an elevator."""
        return self.mesh.coordinate(node_id).column() in self._column_set

    def elevator_at(self, node_id: int) -> Optional[Elevator]:
        """Return the elevator at this router's column, or ``None``."""
        column = self.mesh.coordinate(node_id).column()
        for elevator in self.elevators:
            if elevator.column == column:
                return elevator
        return None

    def elevator_by_index(self, index: int) -> Elevator:
        """Return the elevator with the given dense index."""
        if not 0 <= index < self.num_elevators:
            raise ValueError(f"elevator index {index} out of range")
        return self.elevators[index]

    def elevator_node(self, elevator: Elevator, layer: int) -> int:
        """Node id of the elevator's router on the given layer."""
        x, y = elevator.column
        return self.mesh.node_id_xyz(x, y, layer)

    def elevator_nodes(self, elevator: Elevator) -> List[int]:
        """All node ids (one per layer) of an elevator column, bottom-up."""
        return [self.elevator_node(elevator, z) for z in range(self.mesh.num_layers)]

    def all_elevator_nodes(self) -> List[int]:
        """Node ids of every router sitting on any elevator column."""
        nodes: List[int] = []
        for elevator in self.elevators:
            nodes.extend(self.elevator_nodes(elevator))
        return nodes

    def has_vertical_link(self, node_id: int, up: bool) -> bool:
        """Whether the router has a populated vertical link going up/down."""
        coord = self.mesh.coordinate(node_id)
        if coord.column() not in self._column_set:
            return False
        target_z = coord.z + 1 if up else coord.z - 1
        return 0 <= target_z < self.mesh.num_layers

    # ------------------------------------------------------------------ #
    # Fault handling (paper Section V extension)
    # ------------------------------------------------------------------ #
    def mark_faulty(self, elevator_index: int) -> None:
        """Mark an elevator column as faulty (excluded from selection)."""
        self.elevator_by_index(elevator_index)
        self._faulty.add(elevator_index)

    def clear_fault(self, elevator_index: int) -> None:
        """Clear the fault marking of one elevator (repair)."""
        self.elevator_by_index(elevator_index)
        self._faulty.discard(elevator_index)

    def clear_faults(self) -> None:
        """Clear all fault markings."""
        self._faulty.clear()

    def is_faulty(self, elevator_index: int) -> bool:
        """Return ``True`` if the elevator has been marked faulty."""
        return elevator_index in self._faulty

    def healthy_elevators(self) -> List[Elevator]:
        """All elevators that are not marked faulty."""
        return [e for e in self.elevators if e.index not in self._faulty]

    # ------------------------------------------------------------------ #
    # Distances
    # ------------------------------------------------------------------ #
    def distance_via(self, src: int, dst: int, elevator: Elevator) -> int:
        """Hop count of the src -> elevator -> dst path (Eq. 4 of the paper).

        Returns 0 when source and destination share a layer, matching the
        paper's definition which only scores inter-layer traffic.
        """
        src_c = self.mesh.coordinate(src)
        dst_c = self.mesh.coordinate(dst)
        if src_c.z == dst_c.z:
            return 0
        elev_src = Coordinate(elevator.x, elevator.y, src_c.z)
        elev_dst = Coordinate(elevator.x, elevator.y, dst_c.z)
        d_se = src_c.manhattan_2d(elev_src)
        d_e = abs(src_c.z - dst_c.z)
        d_ed = elev_dst.manhattan_2d(dst_c)
        return d_se + d_e + d_ed

    def nearest_elevator(
        self, node_id: int, exclude_faulty: bool = True
    ) -> Elevator:
        """The elevator closest (intra-layer Manhattan) to the router.

        Ties are broken by elevator index, which matches the deterministic
        behaviour of a hardware Elevator-First implementation.
        """
        coord = self.mesh.coordinate(node_id)
        candidates = self.healthy_elevators() if exclude_faulty else self.elevators
        if not candidates:
            raise ValueError("no healthy elevator available")
        return min(
            candidates,
            key=lambda e: (abs(coord.x - e.x) + abs(coord.y - e.y), e.index),
        )

    def minimal_path_elevator(
        self, src: int, dst: int, candidates: Optional[Sequence[Elevator]] = None
    ) -> Elevator:
        """The elevator giving the shortest src -> elevator -> dst path.

        Args:
            src: Source node id.
            dst: Destination node id (must be on a different layer for the
                result to be meaningful; on-layer pairs return the nearest
                elevator to the source).
            candidates: Optional restriction of the candidate set (used by
                AdEle which restricts selection to the router's subset).
        """
        pool = list(candidates) if candidates is not None else self.healthy_elevators()
        if not pool:
            raise ValueError("no candidate elevator available")
        if self.mesh.same_layer(src, dst):
            coord = self.mesh.coordinate(src)
            return min(
                pool,
                key=lambda e: (abs(coord.x - e.x) + abs(coord.y - e.y), e.index),
            )
        return min(pool, key=lambda e: (self.distance_via(src, dst, e), e.index))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ElevatorPlacement(name={self.name!r}, "
            f"columns={self.columns()}, mesh={self.mesh!r})"
        )


# ---------------------------------------------------------------------- #
# Average-distance metric
# ---------------------------------------------------------------------- #
def average_distance_of_placement(
    placement: ElevatorPlacement,
    traffic: Optional[Dict[Tuple[int, int], float]] = None,
) -> float:
    """Average inter-layer distance assuming nearest-elevator selection.

    This is the metric the paper optimizes when "extracting" placements
    PS1/PS3/PM: for every inter-layer source/destination pair the packet is
    assumed to use the elevator minimizing the source-elevator-destination
    hop count, and the hop counts are averaged (optionally weighted by a
    traffic matrix).

    Args:
        placement: The elevator placement to score.
        traffic: Optional ``{(src, dst): weight}`` traffic matrix.  When
            omitted, uniform all-to-all traffic is assumed.

    Returns:
        The (weighted) mean hop count over all inter-layer pairs.
    """
    mesh = placement.mesh
    total = 0.0
    weight_sum = 0.0
    for src in mesh.nodes():
        for dst in mesh.nodes():
            if src == dst or mesh.same_layer(src, dst):
                continue
            weight = 1.0
            if traffic is not None:
                weight = traffic.get((src, dst), 0.0)
                if weight == 0.0:
                    continue
            best = min(
                placement.distance_via(src, dst, elevator)
                for elevator in placement.elevators
            )
            total += weight * best
            weight_sum += weight
    if weight_sum == 0.0:
        return 0.0
    return total / weight_sum


# ---------------------------------------------------------------------- #
# Standard placements from the paper (Table I)
# ---------------------------------------------------------------------- #
#: Columns for the paper's placement patterns.  The exact coordinates are not
#: published; PS1/PS3/PM are fixed low-average-distance columns standing in
#: for the paper's "optimized average distance" extraction, PS2 follows the
#: regular pattern style of the FL-RuNS reference the paper cites.
_STANDARD_COLUMNS: Dict[str, Dict[str, object]] = {
    "PS1": {
        "mesh": (4, 4, 4),
        # Three elevators, optimized for average distance on a 4x4 layer.
        "columns": [(1, 1), (2, 2), (3, 0)],
    },
    "PS2": {
        "mesh": (4, 4, 4),
        # Four elevators in a regular symmetric pattern (FL-RuNS style).
        "columns": [(0, 0), (3, 0), (0, 3), (3, 3)],
    },
    "PS3": {
        "mesh": (4, 4, 4),
        # Six elevators: higher concentration, average-distance optimized.
        "columns": [(1, 0), (3, 1), (0, 2), (2, 1), (1, 3), (3, 3)],
    },
    "PM": {
        "mesh": (8, 8, 4),
        # Eight elevators on the large mesh, average-distance optimized.
        "columns": [
            (1, 1),
            (5, 1),
            (2, 3),
            (6, 3),
            (1, 5),
            (5, 5),
            (3, 6),
            (7, 7),
        ],
    },
}


def standard_placement(name: str, mesh: Optional[Mesh3D] = None) -> ElevatorPlacement:
    """Return one of the paper's placement patterns (``PS1``-``PS3``, ``PM``).

    Args:
        name: Placement name, case-insensitive.
        mesh: Optional mesh override.  The mesh must match the pattern's
            expected shape.

    Raises:
        repro.registry.UnknownComponentError: (a :class:`ValueError`) for
            unknown placement names, listing the known names.
        ValueError: When an incompatible mesh is supplied.
    """
    key = name.upper()
    if key not in _STANDARD_COLUMNS:
        from repro.registry import UnknownComponentError

        raise UnknownComponentError("placement", name, sorted(_STANDARD_COLUMNS))
    spec = _STANDARD_COLUMNS[key]
    expected_shape = spec["mesh"]
    if mesh is None:
        mesh = Mesh3D(*expected_shape)  # type: ignore[misc]
    elif mesh.shape != expected_shape:
        raise ValueError(
            f"placement {key} expects mesh {expected_shape}, got {mesh.shape}"
        )
    return ElevatorPlacement(mesh, spec["columns"], name=key)  # type: ignore[arg-type]


def _standard_factory(name: str) -> Callable[[], ElevatorPlacement]:
    def factory() -> ElevatorPlacement:
        return standard_placement(name)

    return factory


for _name, _spec in _STANDARD_COLUMNS.items():
    PLACEMENT_REGISTRY.add(
        _name,
        _standard_factory(_name),
        description=(
            f"paper placement {_name}: {len(_spec['columns'])} elevators "
            f"on a {'x'.join(str(d) for d in _spec['mesh'])} mesh"
        ),
        mesh=tuple(_spec["mesh"]),
        num_elevators=len(_spec["columns"]),
    )
del _name, _spec


def register_placement(
    placement: Optional[
        Union[ElevatorPlacement, Callable[[], ElevatorPlacement]]
    ] = None,
    name: Optional[str] = None,
    *,
    aliases: Sequence[str] = (),
    description: str = "",
    overwrite: bool = False,
):
    """Register a placement (or zero-argument factory) in the global registry.

    Accepts either a ready :class:`ElevatorPlacement` (registered under its
    own ``name`` unless overridden) or a zero-argument factory; called with
    keyword arguments only, it returns a decorator for a factory function::

        @register_placement(name="RING9")
        def ring9() -> ElevatorPlacement: ...
    """
    if placement is None:

        def decorator(factory: Callable[[], ElevatorPlacement]):
            return register_placement(
                factory,
                name,
                aliases=aliases,
                description=description,
                overwrite=overwrite,
            )

        return decorator
    if isinstance(placement, ElevatorPlacement):
        instance = placement
        PLACEMENT_REGISTRY.add(
            name or instance.name,
            lambda: instance,
            aliases=aliases,
            description=description or f"user placement {instance.name}",
            overwrite=overwrite,
            mesh=tuple(instance.mesh.shape),
            num_elevators=instance.num_elevators,
        )
        return instance
    factory = placement
    PLACEMENT_REGISTRY.add(
        name or getattr(factory, "__name__", ""),
        factory,
        aliases=aliases,
        description=description,
        overwrite=overwrite,
    )
    return factory


def available_placements() -> List[str]:
    """Sorted canonical names of every registered placement."""
    return PLACEMENT_REGISTRY.names()
