"""Input-buffered wormhole router model.

Each router has seven ports (LOCAL, EAST, WEST, NORTH, SOUTH, UP, DOWN) and
two virtual channels per port -- the two virtual networks used by the
Elevator-First deadlock-avoidance discipline (ascending packets on VN 0,
descending packets on VN 1).  The router is input-buffered with wormhole
switching:

* Route computation happens when a head flit reaches the front of an input
  VC; the chosen output port is held by that input VC until the tail flit.
* Switch allocation grants at most one flit per output port per cycle,
  round-robin over the competing input VCs.
* A flit only traverses when the downstream input buffer (same VC) has a
  free slot, which gives credit-style backpressure.

The per-cycle evaluation (:meth:`Router.allocate_and_traverse`) is invoked by
:class:`repro.sim.network.Network`; flits arriving during a cycle are staged
into downstream buffers and committed at the end of the cycle so a flit moves
at most one hop per cycle.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.buffer import FlitBuffer
from repro.topology.mesh3d import Coordinate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network


class Port(enum.IntEnum):
    """Router ports.  LOCAL connects to the node's network interface."""

    LOCAL = 0
    EAST = 1
    WEST = 2
    NORTH = 3
    SOUTH = 4
    UP = 5
    DOWN = 6


#: The input port a flit arrives on after leaving through a given output port.
OPPOSITE_PORT: Dict[Port, Port] = {
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.UP: Port.DOWN,
    Port.DOWN: Port.UP,
}

#: Ports that traverse a vertical (TSV) link.
VERTICAL_PORTS = (Port.UP, Port.DOWN)

ChannelKey = Tuple[Port, int]


class Router:
    """A single NoC router.

    Args:
        node_id: The router's node id in the mesh.
        coordinate: The router's coordinate.
        num_vcs: Number of virtual channels (virtual networks) per port.
        buffer_depth: Depth of every input FIFO, in flits.
    """

    def __init__(
        self,
        node_id: int,
        coordinate: Coordinate,
        num_vcs: int = 2,
        buffer_depth: int = 4,
    ) -> None:
        if num_vcs < 1:
            raise ValueError("at least one virtual channel is required")
        self.node_id = node_id
        self.coordinate = coordinate
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.network: Optional["Network"] = None

        self.input_buffers: Dict[ChannelKey, FlitBuffer] = {
            (port, vc): FlitBuffer(buffer_depth)
            for port in Port
            for vc in range(num_vcs)
        }
        # Every buffer keeps its FIFO object for life (``clear`` empties it
        # in place), so the visible-flit count can sum them directly.
        self._fifos = [buf._fifo for buf in self.input_buffers.values()]
        #: Output port currently assigned to each input VC (None = no route).
        self._route: Dict[ChannelKey, Optional[Port]] = {
            key: None for key in self.input_buffers
        }
        #: Which input VC currently owns each (output port, VC) wormhole.
        self._output_owner: Dict[ChannelKey, Optional[ChannelKey]] = {
            (port, vc): None for port in Port for vc in range(num_vcs)
        }
        #: Round-robin pointer per output port for switch allocation.
        self._rr_pointer: Dict[Port, int] = {port: 0 for port in Port}
        #: Ordered input channels, used by the round-robin arbiter.
        self._channel_order: List[ChannelKey] = [
            (port, vc) for port in Port for vc in range(num_vcs)
        ]

    # ------------------------------------------------------------------ #
    # Buffer access helpers
    # ------------------------------------------------------------------ #
    def buffer(self, port: Port, vc: int) -> FlitBuffer:
        """The input buffer of a port / virtual channel."""
        return self.input_buffers[(port, vc)]

    def buffer_occupancy(self, port: Optional[Port] = None) -> int:
        """Total visible flits, optionally restricted to one input port."""
        if port is None:
            # CDA calls this for every router on its candidate paths.
            return sum(map(len, self._fifos))
        return sum(
            buf.occupancy
            for (p, _vc), buf in self.input_buffers.items()
            if p == port
        )

    def total_occupancy(self) -> int:
        """Visible plus staged flits across all input buffers."""
        return sum(buf.total_occupancy for buf in self.input_buffers.values())

    def has_traffic(self) -> bool:
        """True when any input buffer holds or is about to hold a flit."""
        return any(buf.total_occupancy for buf in self.input_buffers.values())

    def commit_arrivals(self) -> None:
        """Commit staged arrivals in all input buffers (end of cycle)."""
        for buf in self.input_buffers.values():
            buf.commit()

    def reset(self) -> None:
        """Clear all buffers and allocation state."""
        for buf in self.input_buffers.values():
            buf.clear()
        for key in self._route:
            self._route[key] = None
        for key in self._output_owner:
            self._output_owner[key] = None
        for port in self._rr_pointer:
            self._rr_pointer[port] = 0

    # ------------------------------------------------------------------ #
    # Per-cycle pipeline
    # ------------------------------------------------------------------ #
    def compute_routes(self) -> None:
        """Assign output ports to input VCs whose front flit is a head flit."""
        assert self.network is not None, "router is not attached to a network"
        for key, buf in self.input_buffers.items():
            if self._route[key] is not None:
                continue
            flit = buf.front()
            if flit is None or not flit.is_head:
                continue
            self._route[key] = self.network.route_flit(self.node_id, flit.packet)

    def allocate_and_traverse(self, cycle: int) -> None:
        """Switch allocation and flit traversal for this cycle.

        At most one flit leaves through each output port.  Granted flits are
        staged into the downstream router's input buffer (or ejected via the
        network for the LOCAL output port).
        """
        assert self.network is not None, "router is not attached to a network"
        network = self.network

        # Collect requests per output port.
        requests: Dict[Port, List[ChannelKey]] = {}
        for key in self._channel_order:
            out_port = self._route[key]
            if out_port is None:
                continue
            buf = self.input_buffers[key]
            flit = buf.front()
            if flit is None:
                continue
            requests.setdefault(out_port, []).append(key)

        for out_port, candidates in requests.items():
            winner = self._arbitrate(out_port, candidates, cycle)
            if winner is None:
                continue
            self._traverse(winner, out_port, cycle)

    def _arbitrate(
        self, out_port: Port, candidates: List[ChannelKey], cycle: int
    ) -> Optional[ChannelKey]:
        """Pick one eligible input VC for an output port (round-robin)."""
        assert self.network is not None
        network = self.network
        order = self._rotated_candidates(out_port, candidates)
        for key in order:
            buf = self.input_buffers[key]
            flit = buf.front()
            if flit is None:
                continue
            out_vc = flit.packet.virtual_network
            owner = self._output_owner[(out_port, out_vc)]
            if flit.is_head:
                # A head flit needs the output VC to be free (or already its own
                # in the degenerate single-flit re-request case).
                if owner is not None and owner != key:
                    continue
            else:
                # Body/tail flits may only follow their own wormhole.
                if owner != key:
                    continue
            if not network.downstream_has_space(self.node_id, out_port, out_vc):
                continue
            return key
        return None

    def _rotated_candidates(
        self, out_port: Port, candidates: List[ChannelKey]
    ) -> List[ChannelKey]:
        """Round-robin ordering of candidate input VCs for an output port."""
        pointer = self._rr_pointer[out_port] % len(self._channel_order)
        ordering = {
            key: (index - pointer) % len(self._channel_order)
            for index, key in enumerate(self._channel_order)
        }
        return sorted(candidates, key=lambda key: ordering[key])

    def _traverse(self, in_key: ChannelKey, out_port: Port, cycle: int) -> None:
        """Move the winning flit one hop and update wormhole state."""
        assert self.network is not None
        network = self.network
        buf = self.input_buffers[in_key]
        flit = buf.pop()
        out_vc = flit.packet.virtual_network

        if flit.is_head:
            self._output_owner[(out_port, out_vc)] = in_key
        if flit.is_tail:
            self._output_owner[(out_port, out_vc)] = None
            self._route[in_key] = None

        # Advance the round-robin pointer past the winner.
        winner_index = self._channel_order.index(in_key)
        self._rr_pointer[out_port] = (winner_index + 1) % len(self._channel_order)

        network.deliver_flit(self.node_id, in_key, out_port, out_vc, flit, cycle)

    def current_route(self, port: Port, vc: int) -> Optional[Port]:
        """The output port currently assigned to an input VC (for tests)."""
        return self._route[(port, vc)]

    def output_owner(self, port: Port, vc: int) -> Optional[ChannelKey]:
        """The input VC currently owning an output VC (for tests)."""
        return self._output_owner[(port, vc)]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Router(node={self.node_id}, coord={self.coordinate})"
