"""Topology substrate for partially connected 3D NoCs.

This subpackage models the physical structure of a partially connected 3D
network-on-chip (PC-3DNoC):

* :mod:`repro.topology.mesh3d` -- a regular ``X x Y x Z`` 3D mesh of routers,
  node/coordinate conversion, neighbourhood queries, and Manhattan distances.
* :mod:`repro.topology.elevators` -- elevator (vertical TSV link) placements,
  including the paper's ``PS1``--``PS3`` and ``PM`` patterns, the global
  placement registry, and the average-distance metric the paper's placement
  extraction optimizes.
"""

from repro.topology.mesh3d import Coordinate, Mesh3D
from repro.topology.elevators import (
    PLACEMENT_REGISTRY,
    Elevator,
    ElevatorPlacement,
    available_placements,
    average_distance_of_placement,
    register_placement,
    standard_placement,
)

__all__ = [
    "Coordinate",
    "Mesh3D",
    "Elevator",
    "ElevatorPlacement",
    "PLACEMENT_REGISTRY",
    "register_placement",
    "available_placements",
    "average_distance_of_placement",
    "standard_placement",
]
