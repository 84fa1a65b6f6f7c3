"""The partially connected 3D NoC: routers wired together.

The :class:`Network` owns all routers, knows which links exist (all
horizontal neighbour links; vertical links only at elevator columns), routes
flits with the Elevator-First discipline, performs the elevator selection by
delegating to the configured policy, and records statistics.

The per-cycle evaluation order is:

1. :meth:`Network.inject` -- pending flits enter source routers' LOCAL
   buffers while space is available;
2. :meth:`Network.step` -- every router computes routes, then every router
   performs switch allocation and traversal (arrivals are staged);
3. staged arrivals are committed so they become visible next cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.routing.base import (
    ElevatorSelectionPolicy,
    RouteComputation,
    virtual_network_for,
)
from repro.sim.flit import Flit, Packet
from repro.sim.router import OPPOSITE_PORT, Port, Router, VERTICAL_PORTS
from repro.sim.stats import SimulationStats
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D


class Network:
    """A partially connected 3D NoC instance.

    Args:
        placement: Elevator placement (carries the mesh).
        policy: Elevator-selection policy consulted at packet injection.
        num_vcs: Virtual channels per port (2 = Elevator-First discipline).
        buffer_depth: Input buffer depth in flits (Table I: 4).
        stats: Optional pre-built statistics collector.
        route_computation: Optional prebuilt route tables to share.  The
            tables are immutable and depend only on the mesh shape, so warm
            workers pass one object to every network of the same mesh
            instead of recomputing it per construction; the mesh must match
            this network's.
    """

    def __init__(
        self,
        placement: ElevatorPlacement,
        policy: ElevatorSelectionPolicy,
        num_vcs: int = 2,
        buffer_depth: int = 4,
        stats: Optional[SimulationStats] = None,
        route_computation: Optional[RouteComputation] = None,
    ) -> None:
        if num_vcs < 2:
            raise ValueError(
                "the Elevator-First discipline needs at least two virtual networks"
            )
        self.placement = placement
        self.mesh: Mesh3D = placement.mesh
        self.policy = policy
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.stats = stats if stats is not None else SimulationStats()
        if route_computation is not None:
            if route_computation.mesh.shape != self.mesh.shape:
                raise ValueError(
                    "shared route tables were built for mesh "
                    f"{route_computation.mesh.shape}, not {self.mesh.shape}"
                )
            self._route_computation = route_computation
        else:
            self._route_computation = RouteComputation(self.mesh)

        self.routers: List[Router] = []
        for node in self.mesh.nodes():
            router = Router(
                node_id=node,
                coordinate=self.mesh.coordinate(node),
                num_vcs=num_vcs,
                buffer_depth=buffer_depth,
            )
            router.network = self
            self.routers.append(router)

        #: Neighbour node id per (node, output port); None when the link
        #: does not exist (mesh edge or missing vertical link).
        self._neighbor: Dict[Tuple[int, Port], Optional[int]] = {}
        self._build_links()

        #: Per-node, per-VC injection queues feeding the LOCAL input port.
        self._injection_queues: Dict[Tuple[int, int], Deque[Flit]] = {
            (node, vc): deque()
            for node in self.mesh.nodes()
            for vc in range(num_vcs)
        }
        #: Packets currently in flight (injected but not fully delivered).
        self._in_flight: int = 0

        # Active-set tracking (the basis of the ``optimized`` simulation
        # backend and of O(active) idle checks).  Invariants:
        #
        # * every non-empty injection queue's key is in ``_live_queues``
        #   (queues are only filled by ``create_packet``, which adds the
        #   key, and only drained by ``inject``, which removes it once
        #   empty);
        # * every router holding at least one flit -- visible or staged --
        #   is in ``_active_routers`` between runs.  Routers are added
        #   whenever a flit is staged into them through the network
        #   (``inject`` / ``deliver_flit``) or, for the optimized kernel,
        #   when its run ends; they are removed lazily, only after a scan
        #   verifies they are empty (``is_idle``).  The set may therefore
        #   over-approximate, never under-approximate, the busy routers.
        self._active_routers: Set[int] = set()
        self._live_queues: Set[Tuple[int, int]] = set()

        # Runtime topology state (scenario fault injection).  Severed
        # elevators have their vertical links removed from ``_neighbor``;
        # listeners (registered by simulation kernels caching link
        # structure) are notified with the affected node ids so they can
        # rebuild incrementally.
        self._severed_elevators: Set[int] = set()
        self._topology_listeners: List[Callable[[Iterable[int]], None]] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build_links(self) -> None:
        mesh = self.mesh
        for node in mesh.nodes():
            coord = mesh.coordinate(node)
            for port in Port:
                if port == Port.LOCAL:
                    continue
                dx, dy, dz = {
                    Port.EAST: (1, 0, 0),
                    Port.WEST: (-1, 0, 0),
                    Port.NORTH: (0, 1, 0),
                    Port.SOUTH: (0, -1, 0),
                    Port.UP: (0, 0, 1),
                    Port.DOWN: (0, 0, -1),
                }[port]
                x, y, z = coord.x + dx, coord.y + dy, coord.z + dz
                neighbor: Optional[int] = None
                if 0 <= x < mesh.size_x and 0 <= y < mesh.size_y and 0 <= z < mesh.size_z:
                    candidate = mesh.node_id_xyz(x, y, z)
                    if port in VERTICAL_PORTS:
                        if self.placement.has_elevator(node):
                            neighbor = candidate
                    else:
                        neighbor = candidate
                self._neighbor[(node, port)] = neighbor

    # ------------------------------------------------------------------ #
    # Topology queries
    # ------------------------------------------------------------------ #
    def router(self, node_id: int) -> Router:
        """The router at a node id."""
        return self.routers[node_id]

    def neighbor(self, node_id: int, port: Port) -> Optional[int]:
        """Neighbour node id through an output port, or ``None``."""
        return self._neighbor[(node_id, port)]

    def link_exists(self, node_id: int, port: Port) -> bool:
        """Whether the output link through a port is populated."""
        if port == Port.LOCAL:
            return True
        return self._neighbor[(node_id, port)] is not None

    def buffer_occupancy(self, node_id: int) -> int:
        """Total visible flits buffered in a router (used by CDA)."""
        return self.routers[node_id].buffer_occupancy()

    @property
    def in_flight_packets(self) -> int:
        """Packets injected but not yet fully delivered."""
        return self._in_flight

    def pending_injections(self) -> int:
        """Flits still waiting in source injection queues."""
        return sum(
            len(self._injection_queues[key]) for key in self._live_queues
        )

    def active_routers(self) -> Set[int]:
        """Node ids of routers that may hold flits (over-approximation).

        The live set behind the active-set invariants (see ``__init__``);
        treat it as read-only unless you are a simulation backend pruning
        verified-empty routers.
        """
        return self._active_routers

    def is_idle(self) -> bool:
        """True when no flit remains anywhere in the network.

        O(active): only routers in the active set are scanned, and routers
        verified empty are pruned so repeated drain checks get cheaper as
        the network empties.
        """
        if self._live_queues:
            return False
        active = self._active_routers
        routers = self.routers
        for node in list(active):
            if not routers[node].has_traffic():
                active.discard(node)
        return not active

    # ------------------------------------------------------------------ #
    # Runtime topology events (scenario fault injection)
    # ------------------------------------------------------------------ #
    def add_topology_listener(
        self, listener: Callable[[Iterable[int]], None]
    ) -> None:
        """Register a callback fired with the node ids of changed links.

        Simulation kernels caching link structure (the optimized kernel's
        downstream-buffer tables) register here so topology events rebuild
        exactly the affected routers.
        """
        self._topology_listeners.append(listener)

    def remove_topology_listener(
        self, listener: Callable[[Iterable[int]], None]
    ) -> None:
        """Unregister a topology listener (no-op when absent)."""
        if listener in self._topology_listeners:
            self._topology_listeners.remove(listener)

    def fail_elevator(self, elevator_index: int) -> None:
        """Fail an elevator mid-run: exclude it from selection, sever TSVs.

        The placement marks the elevator faulty (all policies consult the
        healthy set; AdEle additionally re-derives its subset tables via
        :meth:`~repro.routing.base.ElevatorSelectionPolicy.on_topology_change`)
        and the column's vertical links are removed, so flits already
        assigned to the elevator stall at the column until a repair.

        Raises:
            ValueError: When the failure would leave a multi-layer mesh
                with no healthy elevator at all -- inter-layer packets
                could not even be assigned, so the degenerate network
                cannot be simulated.
        """
        elevator = self.placement.elevator_by_index(elevator_index)
        if not self.placement.is_faulty(elevator_index):
            remaining = [
                e for e in self.placement.healthy_elevators()
                if e.index != elevator_index
            ]
            if not remaining and self.mesh.num_layers > 1:
                raise ValueError(
                    f"failing elevator {elevator_index} would leave "
                    f"placement {self.placement.name!r} with no healthy "
                    "elevator; inter-layer traffic could not be routed"
                )
            self.placement.mark_faulty(elevator_index)
        self._set_vertical_links(elevator, enabled=False)
        self.policy.on_topology_change()

    def repair_elevator(self, elevator_index: int) -> None:
        """Repair a failed elevator: selection and vertical links restored."""
        elevator = self.placement.elevator_by_index(elevator_index)
        if self.placement.is_faulty(elevator_index):
            self.placement.clear_fault(elevator_index)
        self._set_vertical_links(elevator, enabled=True)
        self.policy.on_topology_change()

    def restore_all_links(self) -> None:
        """Reconnect every severed elevator column (fault marks untouched)."""
        for index in sorted(self._severed_elevators):
            self._set_vertical_links(
                self.placement.elevator_by_index(index), enabled=True
            )

    def severed_elevators(self) -> Set[int]:
        """Indices of elevators whose vertical links are currently severed."""
        return set(self._severed_elevators)

    def _set_vertical_links(self, elevator, enabled: bool) -> None:
        mesh = self.mesh
        nodes = self.placement.elevator_nodes(elevator)
        for node in nodes:
            coord = mesh.coordinate(node)
            for port in VERTICAL_PORTS:
                dz = 1 if port == Port.UP else -1
                z = coord.z + dz
                neighbor: Optional[int] = None
                if enabled and 0 <= z < mesh.size_z:
                    neighbor = mesh.node_id_xyz(coord.x, coord.y, z)
                self._neighbor[(node, port)] = neighbor
        if enabled:
            self._severed_elevators.discard(elevator.index)
        else:
            self._severed_elevators.add(elevator.index)
        for listener in self._topology_listeners:
            listener(nodes)

    # ------------------------------------------------------------------ #
    # Routing interface used by routers
    # ------------------------------------------------------------------ #
    def route_flit(self, current: int, packet: Packet) -> Port:
        """Output port for a packet at a router (Elevator-First discipline)."""
        return self._route_computation(current, packet)

    def downstream_has_space(self, node_id: int, out_port: Port, vc: int) -> bool:
        """Whether a flit may leave through an output port this cycle."""
        if out_port == Port.LOCAL:
            return True
        neighbor = self._neighbor[(node_id, out_port)]
        if neighbor is None:
            return False
        in_port = OPPOSITE_PORT[out_port]
        return not self.routers[neighbor].buffer(in_port, vc).is_full()

    def deliver_flit(
        self,
        node_id: int,
        in_key: Tuple[Port, int],
        out_port: Port,
        out_vc: int,
        flit: Flit,
        cycle: int,
    ) -> None:
        """Move a granted flit out of a router (ejection or next-hop stage)."""
        packet = flit.packet
        flit_type = flit.flit_type
        stats = self.stats
        stats.record_router_traversal(node_id, packet, cycle)

        # Source-side bookkeeping for AdEle's local latency estimate: the
        # flit is leaving its source router from the LOCAL input port.
        if node_id == packet.source and in_key[0] == Port.LOCAL:
            if flit_type.is_head:
                packet.head_exit_cycle = cycle
            if flit_type.is_tail:
                packet.tail_exit_cycle = cycle
                metric = packet.source_serialization_latency()
                if metric is not None and packet.elevator_index is not None:
                    self.policy.notify_source_latency(
                        packet.source, packet.elevator_index, metric, cycle
                    )

        if out_port == Port.LOCAL:
            stats.record_flit_delivered(packet, cycle)
            if flit_type.is_tail:
                packet.delivery_cycle = cycle
                stats.record_packet_delivered(packet, cycle)
                self._in_flight -= 1
            return

        neighbor = self._neighbor[(node_id, out_port)]
        if neighbor is None:
            raise RuntimeError(
                f"flit routed through missing link: node {node_id}, port {out_port}"
            )
        vertical = out_port in VERTICAL_PORTS
        stats.record_link_traversal(vertical, packet, cycle)
        if flit_type.is_head:
            packet.hops += 1
            if vertical:
                packet.vertical_hops += 1
        in_port = OPPOSITE_PORT[out_port]
        self.routers[neighbor].buffer(in_port, out_vc).stage(flit)
        self._active_routers.add(neighbor)

    # ------------------------------------------------------------------ #
    # Injection
    # ------------------------------------------------------------------ #
    def create_packet(
        self, source: int, destination: int, length: int, cycle: int
    ) -> Packet:
        """Create a packet, run elevator selection and queue its flits."""
        vn = virtual_network_for(self.mesh, source, destination)
        packet = Packet(
            source=source,
            destination=destination,
            length=length,
            creation_cycle=cycle,
            virtual_network=vn,
        )
        elevator = self.policy.select_elevator(
            source, destination, network=self, cycle=cycle
        )
        self.policy.annotate_packet(packet, elevator)
        self.stats.record_packet_created(packet, cycle)
        queue = self._injection_queues[(source, vn)]
        for flit in packet.make_flits():
            queue.append(flit)
        self._live_queues.add((source, vn))
        self._in_flight += 1
        return packet

    def inject(self, cycle: int) -> None:
        """Move pending flits from injection queues into LOCAL input buffers.

        O(active): only queues holding flits are visited, in the same
        (node, vc) order a full scan would visit them.
        """
        if not self._live_queues:
            return
        for key in sorted(self._live_queues):
            queue = self._injection_queues[key]
            node, vc = key
            buf = self.routers[node].buffer(Port.LOCAL, vc)
            staged = False
            while queue and not buf.is_full():
                flit = queue.popleft()
                if flit.is_head and flit.packet.injection_cycle is None:
                    flit.packet.injection_cycle = cycle
                buf.stage(flit)
                staged = True
                self.stats.record_flit_injected(flit.packet, cycle)
            if staged:
                self._active_routers.add(node)
            if not queue:
                self._live_queues.discard(key)

    # ------------------------------------------------------------------ #
    # Per-cycle evaluation
    # ------------------------------------------------------------------ #
    def step(self, cycle: int) -> None:
        """One simulation cycle: route, allocate/traverse, commit arrivals."""
        for router in self.routers:
            router.compute_routes()
        for router in self.routers:
            router.allocate_and_traverse(cycle)
        for router in self.routers:
            router.commit_arrivals()

    def reset(self) -> None:
        """Clear all buffers, queues and policy state for a fresh run."""
        self.restore_all_links()
        for router in self.routers:
            router.reset()
        for queue in self._injection_queues.values():
            queue.clear()
        self._in_flight = 0
        self._active_routers.clear()
        self._live_queues.clear()
        self.policy.reset()
        self.stats = SimulationStats()

    def elevator_nodes_by_index(self) -> Dict[int, List[int]]:
        """Node ids of every elevator column, keyed by elevator index."""
        return {
            elevator.index: self.placement.elevator_nodes(elevator)
            for elevator in self.placement.elevators
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Network(mesh={self.mesh!r}, placement={self.placement.name!r}, "
            f"policy={self.policy.name!r})"
        )
