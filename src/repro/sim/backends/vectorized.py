"""The vectorized simulation kernel: flat numpy state, batched cycle phases.

The flat-array layout
    The ``optimized`` active-set kernel makes per-cycle cost proportional
    to the number of buffered flits -- which is exactly what saturates at
    the injection rates of the paper's saturation and Pareto figures.  Near
    saturation every router holds flits, the active set degenerates to the
    whole mesh, and the per-flit Python interpreter overhead dominates.
    This kernel instead holds *all* flit, channel, credit and allocation
    state in flat numpy arrays keyed by router index:

    * input buffers are fixed-depth ring buffers in ``(router, channel,
      slot)`` arrays holding packet indices and flit sequence numbers --
      no ``Flit`` objects exist while the kernel runs;
    * route computation is one batched lookup per cycle through the
      precomputed tables of :class:`repro.routing.base.PrecomputedRoutes`
      (intra-layer table, per-column elevator tables);
    * switch allocation runs the reference discipline -- ascending node
      id, per-output-port round-robin, live credit checks -- over those
      arrays, and staged arrivals commit in one batched add per cycle;
    * the drain-idle check is an O(1) flit-counter comparison.

    How its speed compares with ``optimized`` is recorded in
    ``benchmarks/results/BENCH_perf_kernel.json``.

The replica axis
    The kernel runs R structurally identical networks (*seed replicas*)
    through one shared numpy pass: the node axis of every array is the
    disconnected union of the replicas, global node id ``r * N + local``
    for replica ``r`` of an N-router mesh.  Links never cross replicas
    (each replica's ``nbr`` rows point inside its own block), allocation
    walks global node ids in ascending order -- replica-major, so each
    replica's routers arbitrate in their solo order -- and per-packet
    bookkeeping dispatches to the owning replica's ``Network`` / policy /
    statistics objects.  Each replica therefore observes exactly the event
    sequence of a solo run -- the batched path is bit-identical to R
    independent vectorized runs, per replica (pinned by
    ``tests/test_replica_batch.py``).  The solo case is simply R=1 of the
    same cycle loop (:meth:`_VectorizedKernel.run`); the ``batched``
    backend (:mod:`repro.sim.backends.batched`) drives R>1.

Equivalence
    Packet-level bookkeeping (creation, elevator selection, latency
    recording, AdEle's source-latency feedback) routes through the real
    :class:`~repro.sim.network.Network` / policy / statistics methods, so
    per-packet statistics keep the reference semantics (including the
    latency reservoir's sampling order).  Allocation visits routers in
    ascending node id with live credit checks, so a buffer slot freed this
    cycle is visible to higher-numbered routers within the same cycle,
    exactly as in the sequential kernels.  Results are therefore
    bit-identical to ``reference`` (pinned by the cross-backend identity
    matrix in ``tests/test_backends.py``).

    One bookkeeping difference against the sequential kernels: the
    networks' ``_active_routers`` over-approximation is accumulated in a
    kernel-side touched mask during the run and folded back in
    ``sync_back`` (nothing reads the set while this kernel drives the
    loop), so the *post-run* set is identical to a solo run's.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.routing.base import _AT_COLUMN, ASCEND_VN, DESCEND_VN
from repro.sim.backends import SimulatorBackend, register_backend
from repro.sim.flit import Flit, FlitType, Packet
from repro.sim.router import OPPOSITE_PORT, Port, VERTICAL_PORTS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.probes import ProbeSeries
    from repro.sim.network import Network
    from repro.traffic.generator import PacketSource

_LOCAL = int(Port.LOCAL)
_UP = int(Port.UP)
_DOWN = int(Port.DOWN)
_NUM_PORTS = len(Port)


class _VectorizedKernel:
    """Per-run flat numpy state, the cycle step and the cycle loop.

    Operates on a *list* of structurally identical networks (the replica
    axis, see module docstring); the solo case is a one-element list.
    """

    def __init__(self, networks: Sequence["Network"]) -> None:
        self.networks: List["Network"] = list(networks)
        if not self.networks:
            raise ValueError("need at least one network")
        first = self.networks[0]
        for network in self.networks[1:]:
            if (
                network.mesh.shape != first.mesh.shape
                or network.num_vcs != first.num_vcs
                or network.buffer_depth != first.buffer_depth
            ):
                raise ValueError(
                    "replica networks must be structurally identical "
                    "(mesh shape, virtual channels, buffer depth)"
                )
        self.routes = first._route_computation.tables
        num_vcs = first.num_vcs
        self.num_vcs = num_vcs
        ports = list(Port)
        #: Input channels in arbitration order (port-major, VC-minor) --
        #: identical to ``Router._channel_order``.
        self.channel_keys: List[Tuple[Port, int]] = [
            (port, vc) for port in ports for vc in range(num_vcs)
        ]
        num_channels = len(self.channel_keys)
        self.num_channels = num_channels
        #: Routers per replica (N) and replica count (R); the node axis of
        #: every array below is the disconnected union, R * N rows.
        self.nodes_per_replica = first.mesh.num_nodes
        self.num_replicas = len(self.networks)
        num_nodes = self.num_replicas * self.nodes_per_replica
        self.depth = first.buffer_depth

        # Static routing tables as arrays.  Intra-layer / column tables are
        # indexed by *local* layer position, so one copy serves every
        # replica; the per-node coordinate lookups are tiled R times so a
        # global node id indexes its replica's local coordinates directly.
        base_z = np.asarray(self.routes.node_z, dtype=np.int32)
        base_xy = np.asarray(self.routes.node_xy, dtype=np.int32)
        self.node_z = np.tile(base_z, self.num_replicas)
        self.node_xy = np.tile(base_xy, self.num_replicas)
        self.intra = np.asarray(self.routes.intra, dtype=np.int8)
        nodes_per_layer = self.intra.shape[0]
        self._column_ids: Dict[Tuple[int, int], int] = {}
        self._column_tables = np.empty((0, nodes_per_layer), dtype=np.int8)

        #: Channel-index base of the input port a flit staged through a
        #: given output port lands on (``OPPOSITE_PORT * num_vcs``).
        opp_base = np.zeros(_NUM_PORTS, dtype=np.int16)
        for out_port, in_port in OPPOSITE_PORT.items():
            opp_base[int(out_port)] = int(in_port) * num_vcs
        self.opp_base = opp_base

        # Ring buffers: per (router, channel) a fixed-depth ring of
        # (packet index, flit sequence) pairs, split into a committed
        # (visible) prefix and a staged suffix -- the two-phase arrival
        # discipline of FlitBuffer, as counters.
        shape = (num_nodes, num_channels)
        self.slot_pkt = np.full(shape + (self.depth,), -1, dtype=np.int32)
        self.slot_seq = np.zeros(shape + (self.depth,), dtype=np.int32)
        self.head = np.zeros(shape, dtype=np.int32)
        self.nfifo = np.zeros(shape, dtype=np.int32)
        self.nstaged = np.zeros(shape, dtype=np.int32)

        # Allocation state: claimed output port per input channel (-1 =
        # none), input channel owning each (port, VC) output (-1 = free),
        # round-robin pointer per output port.
        self.route = np.full(shape, -1, dtype=np.int8)
        self.owner = np.full((num_nodes, _NUM_PORTS, num_vcs), -1, dtype=np.int16)
        self.rr = np.zeros((num_nodes, _NUM_PORTS), dtype=np.int16)

        # Link structure: neighbour node id per output port (-1 = no link).
        # Built per replica so links never leave a replica's block and each
        # replica's severed-elevator state stays independent.
        nbr = np.full((num_nodes, _NUM_PORTS), -1, dtype=np.int32)
        for replica, network in enumerate(self.networks):
            base = replica * self.nodes_per_replica
            for node in range(self.nodes_per_replica):
                for port in ports:
                    if port == Port.LOCAL:
                        continue
                    neighbor = network.neighbor(node, port)
                    if neighbor is not None:
                        nbr[base + node, int(port)] = base + neighbor
        self.nbr = nbr

        # Packet registry: the real Packet objects plus the per-packet
        # columns the batched phases read.  Packets keep *local* node ids
        # (source/destination), exactly as in a solo run.
        self.packets: List[Packet] = []
        capacity = 1024
        self.p_dest_xy = np.zeros(capacity, dtype=np.int32)
        self.p_dest_z = np.zeros(capacity, dtype=np.int32)
        self.p_vn = np.zeros(capacity, dtype=np.int8)
        self.p_len = np.zeros(capacity, dtype=np.int32)
        self.p_creation = np.zeros(capacity, dtype=np.int64)
        self.p_col = np.full(capacity, -1, dtype=np.int32)

        #: Pending injections per (global node, vn): deque of mutable
        #: ``[packet, packet_index, next_sequence]`` entries.  The networks'
        #: Flit-object queues stay empty while the kernel runs; ``close``
        #: rematerializes them.
        self.queues: Dict[Tuple[int, int], deque] = {}

        # Batched per-node router-traversal counts, folded into the stats
        # dicts at close (dict equality is content-based, so insertion order
        # does not matter).
        self.rt_acc = np.zeros(num_nodes, dtype=np.int64)
        #: In-network flit counts per replica (the O(1) drain-idle check).
        self.total_flits = np.zeros(self.num_replicas, dtype=np.int64)
        #: Drain cycles each replica has used so far (kept by :meth:`run`).
        self.drain_used: List[int] = [0] * self.num_replicas
        #: Global nodes staged into during the run; folded into each
        #: network's ``_active_routers`` over-approximation at sync_back.
        self._touched = np.zeros(num_nodes, dtype=bool)
        self._occ_cache: Optional[np.ndarray] = None

        self._import_network_state()
        self._listeners: List[Callable] = []
        for replica, network in enumerate(self.networks):
            listener = self._make_topology_listener(replica)
            self._listeners.append(listener)
            network.add_topology_listener(listener)
            network.set_occupancy_provider(self._make_occupancy_provider(replica))

    # ------------------------------------------------------------------ #
    # State import (fresh or left saturated by a previous run)
    # ------------------------------------------------------------------ #
    def _import_network_state(self) -> None:
        """Absorb buffers, allocation and injection queues into the arrays.

        A network handed to ``execute`` may carry in-flight wormholes from
        a previous run (the saturated re-run case); all Flit objects are
        converted to array entries and the object-level containers cleared,
        so ``close`` can rebuild them without double counting.
        """
        key_index = {key: i for i, key in enumerate(self.channel_keys)}
        for replica, network in enumerate(self.networks):
            base = replica * self.nodes_per_replica
            seen: Dict[int, int] = {}
            for local, router in enumerate(network.routers):
                node = base + local
                for ci, key in enumerate(self.channel_keys):
                    buf = router.input_buffers[key]
                    fifo = buf._fifo
                    staged = buf._staged
                    if fifo or staged:
                        pos = 0
                        for flit in fifo:
                            pidx = self._import_packet(flit.packet, seen)
                            self.slot_pkt[node, ci, pos] = pidx
                            self.slot_seq[node, ci, pos] = flit.sequence
                            pos += 1
                        self.nfifo[node, ci] = len(fifo)
                        for flit in staged:
                            pidx = self._import_packet(flit.packet, seen)
                            self.slot_pkt[node, ci, pos] = pidx
                            self.slot_seq[node, ci, pos] = flit.sequence
                            pos += 1
                        self.nstaged[node, ci] = len(staged)
                        self.total_flits[replica] += pos
                        fifo.clear()
                        staged.clear()
                    port_route = router._route[key]
                    if port_route is not None:
                        self.route[node, ci] = int(port_route)
                for port in Port:
                    for vc in range(self.num_vcs):
                        holder = router._output_owner[(port, vc)]
                        if holder is not None:
                            self.owner[node, int(port), vc] = key_index[holder]
                    self.rr[node, int(port)] = router._rr_pointer[port]
            for key, queue in network._injection_queues.items():
                if not queue:
                    continue
                entries: deque = deque()
                current_packet = None
                for flit in queue:
                    if flit.packet is not current_packet:
                        current_packet = flit.packet
                        pidx = self._import_packet(current_packet, seen)
                        entries.append([current_packet, pidx, flit.sequence])
                queue.clear()
                self.queues[(base + key[0], key[1])] = entries

    def _import_packet(self, packet: Packet, seen: Dict[int, int]) -> int:
        pidx = seen.get(id(packet))
        if pidx is None:
            pidx = self._register_packet(packet)
            seen[id(packet)] = pidx
        return pidx

    def _register_packet(self, packet: Packet) -> int:
        pidx = len(self.packets)
        self.packets.append(packet)
        if pidx >= len(self.p_len):
            grow = len(self.p_len) * 2
            for name in ("p_dest_xy", "p_dest_z", "p_vn", "p_len",
                         "p_creation", "p_col"):
                old = getattr(self, name)
                new = np.zeros(grow, dtype=old.dtype)
                new[: len(old)] = old
                setattr(self, name, new)
            self.p_col[pidx:] = -1
        destination = packet.destination
        self.p_dest_xy[pidx] = self.routes.node_xy[destination]
        self.p_dest_z[pidx] = self.routes.node_z[destination]
        self.p_vn[pidx] = packet.virtual_network
        self.p_len[pidx] = packet.length
        self.p_creation[pidx] = packet.creation_cycle
        column = packet.elevator_column
        self.p_col[pidx] = -1 if column is None else self._column_id(column)
        return pidx

    def _column_id(self, column: Tuple[int, int]) -> int:
        cid = self._column_ids.get(column)
        if cid is None:
            table = np.asarray(self.routes.column_table(column), dtype=np.int8)
            cid = len(self._column_ids)
            self._column_ids[column] = cid
            self._column_tables = np.vstack([self._column_tables, table[None, :]])
        return cid

    # ------------------------------------------------------------------ #
    # Network integration
    # ------------------------------------------------------------------ #
    def _make_topology_listener(self, replica: int) -> Callable:
        def _listener(nodes) -> None:
            self._replica_topology_change(replica, nodes)

        return _listener

    def _make_occupancy_provider(self, replica: int) -> Callable[[int], int]:
        base = replica * self.nodes_per_replica

        def _provider(node: int) -> int:
            return self._occupancy(base + node)

        return _provider

    def _replica_topology_change(self, replica: int, nodes) -> None:
        """Rebuild the vertical-link columns of one replica's routers."""
        network = self.networks[replica]
        base = replica * self.nodes_per_replica
        for node in nodes:
            for port in VERTICAL_PORTS:
                neighbor = network.neighbor(node, port)
                self.nbr[base + node, int(port)] = (
                    -1 if neighbor is None else base + neighbor
                )

    def _occupancy(self, node: int) -> int:
        """Visible (committed) flits buffered in a router, for CDA."""
        occ = self._occ_cache
        if occ is None:
            occ = self.nfifo.sum(axis=1)
            self._occ_cache = occ
        return int(occ[node])

    # ------------------------------------------------------------------ #
    # Injection
    # ------------------------------------------------------------------ #
    def create_packet(
        self, replica: int, source: int, destination: int, length: int, cycle: int
    ) -> Packet:
        """Mirror of :meth:`Network.create_packet` minus Flit materialization.

        ``source`` / ``destination`` are local node ids of ``replica``'s
        mesh, exactly as a solo run would pass them.
        """
        network = self.networks[replica]
        node_z = self.routes.node_z
        vn = DESCEND_VN if node_z[destination] < node_z[source] else ASCEND_VN
        packet = Packet(
            source=source,
            destination=destination,
            length=length,
            creation_cycle=cycle,
            virtual_network=vn,
        )
        elevator = network.policy.select_elevator(
            source, destination, network=network, cycle=cycle
        )
        network.policy.annotate_packet(packet, elevator)
        network.stats.record_packet_created(packet, cycle)
        pidx = self._register_packet(packet)
        gkey = (replica * self.nodes_per_replica + source, vn)
        entries = self.queues.get(gkey)
        if entries is None:
            entries = deque()
            self.queues[gkey] = entries
        entries.append([packet, pidx, 0])
        network._live_queues.add((source, vn))
        network._in_flight += 1
        return packet

    def inject(self, cycle: int) -> None:
        """Drain live injection queues into the LOCAL ring buffers.

        Replicas are visited in index order, each with the same queue
        visiting order and per-flit bookkeeping effects as
        :meth:`Network.inject`; flit counters are updated as a batch.
        """
        depth = self.depth
        head = self.head
        nfifo = self.nfifo
        nstaged = self.nstaged
        slot_pkt = self.slot_pkt
        slot_seq = self.slot_seq
        per_replica = self.nodes_per_replica
        gnodes: List[int] = []
        vcs: List[int] = []
        meta: List[Tuple[int, Tuple[int, int]]] = []
        for replica, network in enumerate(self.networks):
            live = network._live_queues
            if not live:
                continue
            base = replica * per_replica
            for key in sorted(live):
                gnodes.append(base + key[0])
                vcs.append(key[1])
                meta.append((replica, key))
        if not gnodes:
            return
        # At saturation most source buffers are full, so gather every live
        # queue's free space in one batched lookup and skip the full ones
        # without touching their queue objects at all.
        spaces = (depth - nfifo[gnodes, vcs] - nstaged[gnodes, vcs]).tolist()
        injected = [0] * self.num_replicas
        dirty = False
        for (replica, key), gnode, space in zip(meta, gnodes, spaces):
            network = self.networks[replica]
            if space <= 0:
                continue
            entries = self.queues.get((gnode, key[1]))
            if not entries:
                network._live_queues.discard(key)
                continue
            measurement_start = network.stats.measurement_start
            vc = key[1]
            # LOCAL is port 0, so the channel index of (LOCAL, vc) is vc.
            base_slot = (int(head[gnode, vc]) + depth - space) % depth
            staged = 0
            while entries and space > 0:
                entry = entries[0]
                packet, pidx, seq = entry
                take = min(space, packet.length - seq)
                for k in range(take):
                    slot = (base_slot + staged + k) % depth
                    slot_pkt[gnode, vc, slot] = pidx
                    slot_seq[gnode, vc, slot] = seq + k
                if seq == 0 and packet.injection_cycle is None:
                    packet.injection_cycle = cycle
                if packet.creation_cycle >= measurement_start:
                    injected[replica] += take
                staged += take
                space -= take
                seq += take
                if seq >= packet.length:
                    entries.popleft()
                else:
                    entry[2] = seq
            if staged:
                nstaged[gnode, vc] += staged
                self.total_flits[replica] += staged
                self._touched[gnode] = True
                dirty = True
            if not entries:
                network._live_queues.discard(key)
        for replica, count in enumerate(injected):
            if count:
                stats = self.networks[replica].stats
                stats.flits_injected += count
                phase = stats._phase
                if phase is not None:
                    phase.flits_injected += count
        if dirty:
            self._occ_cache = None

    def replica_idle(self, replica: int) -> bool:
        """Whether one replica is drained -- O(1) via its flit counter."""
        return (
            not self.networks[replica]._live_queues
            and self.total_flits[replica] == 0
        )

    # ------------------------------------------------------------------ #
    # Route computation
    # ------------------------------------------------------------------ #
    def _compute_routes(self) -> None:
        """Claim output ports for head flits at buffer fronts, batched."""
        need = (self.nfifo > 0) & (self.route < 0)
        if not need.any():
            return
        nodes, channels = np.nonzero(need)
        fronts = self.head[nodes, channels]
        pkt = self.slot_pkt[nodes, channels, fronts]
        is_head = self.slot_seq[nodes, channels, fronts] == 0
        if not is_head.any():
            return
        nodes = nodes[is_head]
        channels = channels[is_head]
        pkt = pkt[is_head]
        cur_xy = self.node_xy[nodes]
        dst_z = self.p_dest_z[pkt]
        same_layer = self.node_z[nodes] == dst_z
        ports = np.empty(len(nodes), dtype=np.int8)
        if same_layer.any():
            ports[same_layer] = self.intra[
                cur_xy[same_layer], self.p_dest_xy[pkt[same_layer]]
            ]
        inter = ~same_layer
        if inter.any():
            columns = self.p_col[pkt[inter]]
            if (columns < 0).any():
                raise ValueError(
                    "inter-layer packet without an assigned elevator column"
                )
            table_port = self._column_tables[columns, cur_xy[inter]]
            ascend = dst_z[inter] > self.node_z[nodes[inter]]
            vertical = np.where(ascend, _UP, _DOWN).astype(np.int8)
            ports[inter] = np.where(table_port == _AT_COLUMN, vertical, table_port)
        self.route[nodes, channels] = ports

    # ------------------------------------------------------------------ #
    # Switch allocation and commit: the reference discipline
    # ------------------------------------------------------------------ #
    def step(self, cycle: int) -> None:
        """One cycle with the reference allocation discipline (live credits)."""
        self._compute_routes()
        head = self.head
        nfifo = self.nfifo
        nstaged = self.nstaged
        slot_pkt = self.slot_pkt
        slot_seq = self.slot_seq
        route = self.route
        depth = self.depth
        num_vcs = self.num_vcs
        num_channels = self.num_channels
        per_replica = self.nodes_per_replica
        p_vn = self.p_vn
        p_len = self.p_len
        opp_base = self.opp_base
        packets = self.packets
        networks = self.networks
        measurement_start = networks[0].stats.measurement_start
        measured = cycle >= measurement_start

        candidate_mask = (route >= 0) & (nfifo > 0)
        active = np.nonzero(candidate_mask.any(axis=1))[0]
        for node in active.tolist():
            replica = node // per_replica
            local = node - replica * per_replica
            network = networks[replica]
            stats = network.stats
            policy = network.policy
            requests: Dict[int, List[int]] = {}
            for ci in np.nonzero(candidate_mask[node])[0].tolist():
                requests.setdefault(int(route[node, ci]), []).append(ci)
            owner = self.owner[node]
            for out_port, channels in requests.items():
                pointer = int(self.rr[node, out_port]) % num_channels
                if len(channels) > 1:
                    channels.sort(key=lambda i: (i - pointer) % num_channels)
                winner = None
                winner_vc = 0
                down_node = -1
                down_chan = -1
                for ci in channels:
                    if nfifo[node, ci] == 0:
                        continue
                    front = int(head[node, ci])
                    pidx = int(slot_pkt[node, ci, front])
                    out_vc = int(p_vn[pidx])
                    holder = int(owner[out_port, out_vc])
                    if slot_seq[node, ci, front] == 0:
                        if holder >= 0 and holder != ci:
                            continue
                    elif holder != ci:
                        continue
                    if out_port != _LOCAL:
                        neighbor = int(self.nbr[node, out_port])
                        if neighbor < 0:
                            continue
                        channel = int(opp_base[out_port]) + out_vc
                        if nfifo[neighbor, channel] + nstaged[neighbor, channel] >= depth:
                            continue
                        down_node = neighbor
                        down_chan = channel
                    winner = ci
                    winner_vc = out_vc
                    break
                if winner is None:
                    continue
                front = int(head[node, winner])
                pidx = int(slot_pkt[node, winner, front])
                seq = int(slot_seq[node, winner, front])
                is_head = seq == 0
                is_tail = seq == int(p_len[pidx]) - 1
                head[node, winner] = (front + 1) % depth
                nfifo[node, winner] -= 1
                if is_head:
                    owner[out_port, winner_vc] = winner
                if is_tail:
                    owner[out_port, winner_vc] = -1
                    route[node, winner] = -1
                self.rr[node, out_port] = (winner + 1) % num_channels

                packet = packets[pidx]
                if measured:
                    self.rt_acc[node] += 1
                    phase = stats._phase
                    if phase is not None:
                        phase.router_traversals += 1
                if local == packet.source and winner < num_vcs:
                    if is_head:
                        packet.head_exit_cycle = cycle
                    if is_tail:
                        packet.tail_exit_cycle = cycle
                        metric = packet.source_serialization_latency()
                        if metric is not None and packet.elevator_index is not None:
                            policy.notify_source_latency(
                                packet.source, packet.elevator_index, metric, cycle
                            )
                if out_port == _LOCAL:
                    stats.record_flit_delivered(packet, cycle)
                    if is_tail:
                        packet.delivery_cycle = cycle
                        stats.record_packet_delivered(packet, cycle)
                        network._in_flight -= 1
                    self.total_flits[replica] -= 1
                else:
                    vertical = out_port in (_UP, _DOWN)
                    stats.record_link_traversal(vertical, packet, cycle)
                    if is_head:
                        packet.hops += 1
                        if vertical:
                            packet.vertical_hops += 1
                    slot = (
                        int(head[down_node, down_chan])
                        + int(nfifo[down_node, down_chan])
                        + int(nstaged[down_node, down_chan])
                    ) % depth
                    slot_pkt[down_node, down_chan, slot] = pidx
                    slot_seq[down_node, down_chan, slot] = seq
                    nstaged[down_node, down_chan] += 1
                    self._touched[down_node] = True

        if nstaged.any():
            nfifo += nstaged
            nstaged.fill(0)
        self._occ_cache = None

    # ------------------------------------------------------------------ #
    # The cycle loop (a solo run is the one-replica case)
    # ------------------------------------------------------------------ #
    def run(
        self,
        sources: Sequence["PacketSource"],
        *,
        injection_end: int,
        drain_cycles: int,
        series: Optional[Sequence["ProbeSeries"]] = None,
    ) -> List[int]:
        """Inject / step / probe until ``injection_end``, then drain.

        ``sources[r]`` feeds replica ``r``; when probing, ``series[r]``
        receives its readings.  Returns each replica's drain cycles: the
        count until *it* went idle (idle is monotone during drain, since
        sources are no longer polled, so a drained replica stays drained
        while stragglers keep stepping).  The counts are kept in
        ``drain_used`` as the loop runs, so they stay readable after an
        exception.  Flit-level state is rematerialized and the networks
        detached on *every* exit path -- a packet source or policy raising
        mid-run must not leave a network unreadable.
        """
        drain_used = self.drain_used
        replicas = range(self.num_replicas)
        inject = self.inject
        step = self.step
        create_packet = self.create_packet

        def _sample(cycle: int) -> None:
            if series is None or not series[0].spec.should_sample(cycle):
                return
            for replica, reading in enumerate(self.probe_readings()):
                series[replica].append(cycle, reading)

        try:
            for cycle in range(injection_end):
                for replica, source in enumerate(sources):
                    for request in source.requests(cycle):
                        create_packet(
                            replica, request.source, request.destination,
                            request.length, cycle,
                        )
                inject(cycle)
                step(cycle)
                _sample(cycle)

            for drain in range(drain_cycles):
                active = [r for r in replicas if not self.replica_idle(r)]
                if not active:
                    break
                cycle = injection_end + drain
                inject(cycle)
                step(cycle)
                for replica in active:
                    drain_used[replica] = drain + 1
                _sample(cycle)
        finally:
            self.sync_back()
            self.close()
        return drain_used

    # ------------------------------------------------------------------ #
    # State export
    # ------------------------------------------------------------------ #
    def _make_flit(self, packet: Packet, sequence: int) -> Flit:
        if packet.length == 1:
            flit_type = FlitType.HEAD_TAIL
        elif sequence == 0:
            flit_type = FlitType.HEAD
        elif sequence == packet.length - 1:
            flit_type = FlitType.TAIL
        else:
            flit_type = FlitType.BODY
        return Flit(packet=packet, flit_type=flit_type, sequence=sequence)

    def sync_back(self) -> None:
        """Rematerialize Flit objects and Router allocation state.

        Run once when a simulation finishes (or aborts): restores, for
        every replica, the invariant that the FlitBuffers, injection queues
        and the routers' ``_route`` / ``_output_owner`` / ``_rr_pointer``
        dicts describe the network's true state, so a network left
        mid-wormhole (e.g. after a saturated run) can be inspected, reset,
        or run again with any backend and behave exactly as under the
        reference kernel.
        """
        packets = self.packets
        channel_keys = self.channel_keys
        num_vcs = self.num_vcs
        per_replica = self.nodes_per_replica
        networks = self.networks
        head = self.head
        nfifo = self.nfifo
        nstaged = self.nstaged
        depth = self.depth
        occupied = np.nonzero((nfifo + nstaged) > 0)
        for node, ci in zip(occupied[0].tolist(), occupied[1].tolist()):
            network = networks[node // per_replica]
            buf = network.routers[node % per_replica].input_buffers[
                channel_keys[ci]
            ]
            base = int(head[node, ci])
            visible = int(nfifo[node, ci])
            for k in range(visible + int(nstaged[node, ci])):
                slot = (base + k) % depth
                flit = self._make_flit(
                    packets[int(self.slot_pkt[node, ci, slot])],
                    int(self.slot_seq[node, ci, slot]),
                )
                if k < visible:
                    buf._fifo.append(flit)
                else:
                    buf._staged.append(flit)
        # Rebuild the source queues.  On a saturated run the backlog can be
        # hundreds of thousands of flits, so this loop builds them with
        # direct slot assignment instead of per-flit constructor dispatch.
        flit_new = Flit.__new__
        head_type = FlitType.HEAD
        body_type = FlitType.BODY
        tail_type = FlitType.TAIL
        head_tail_type = FlitType.HEAD_TAIL
        for (gnode, vn), entries in self.queues.items():
            if not entries:
                continue
            network = networks[gnode // per_replica]
            append = network._injection_queues[(gnode % per_replica, vn)].append
            for packet, _pidx, next_seq in entries:
                length = packet.length
                last = length - 1
                for sequence in range(next_seq, length):
                    flit = flit_new(Flit)
                    flit.packet = packet
                    flit.sequence = sequence
                    if sequence == 0:
                        flit.flit_type = head_tail_type if last == 0 else head_type
                    elif sequence == last:
                        flit.flit_type = tail_type
                    else:
                        flit.flit_type = body_type
                    append(flit)
        for replica, network in enumerate(networks):
            base = replica * per_replica
            for local, router in enumerate(network.routers):
                node = base + local
                route_row = self.route[node]
                for ci, key in enumerate(channel_keys):
                    value = int(route_row[ci])
                    router._route[key] = None if value < 0 else Port(value)
                for port in Port:
                    for vc in range(num_vcs):
                        holder = int(self.owner[node, int(port), vc])
                        router._output_owner[(port, vc)] = (
                            None if holder < 0 else channel_keys[holder]
                        )
                    router._rr_pointer[port] = int(self.rr[node, int(port)])
        # Fold the run's staged-into set and the end-state occupancy into
        # each network's over-approximating active set (identical to the
        # set a solo run accumulates incrementally).
        busy = np.nonzero(
            ((nfifo + nstaged).sum(axis=1) > 0) | self._touched
        )[0]
        for node in busy.tolist():
            networks[node // per_replica]._active_routers.add(
                node % per_replica
            )
        # Fold the batched per-node traversal counts into the stats dicts.
        for node in np.nonzero(self.rt_acc)[0].tolist():
            stats = networks[node // per_replica].stats
            local = node % per_replica
            stats.router_traversals[local] = (
                stats.router_traversals.get(local, 0) + int(self.rt_acc[node])
            )
        self.rt_acc.fill(0)

    def close(self) -> None:
        """Detach from every replica's network (end of run)."""
        for network, listener in zip(self.networks, self._listeners):
            network.set_occupancy_provider(None)
            network.remove_topology_listener(listener)

    # ------------------------------------------------------------------ #
    # Probe sampling (read-only; see repro.obs.probes)
    # ------------------------------------------------------------------ #
    def probe_readings(self) -> List[dict]:
        """One probe reading per replica, via array reductions.

        A handful of whole-array numpy reductions per *sampled* cycle --
        no python-per-node loop -- and strictly read-only, so probing
        cannot perturb the run (the never-perturbs invariant).
        """
        num_replicas = self.num_replicas
        per_replica = self.nodes_per_replica
        num_layers = self.networks[0].mesh.num_layers
        occ = (self.nfifo + self.nstaged).sum(axis=1)
        by_replica = occ.reshape(num_replicas, per_replica)
        active = (by_replica > 0).sum(axis=1)
        in_flight = by_replica.sum(axis=1)
        layer_index = (
            np.repeat(np.arange(num_replicas), per_replica) * num_layers
            + self.node_z
        )
        layer_occ = np.bincount(
            layer_index, weights=occ, minlength=num_replicas * num_layers
        ).astype(np.int64).reshape(num_replicas, num_layers)
        backlog = [0] * num_replicas
        for (gnode, _vn), entries in self.queues.items():
            replica = gnode // per_replica
            backlog[replica] += sum(
                entry[0].length - entry[2] for entry in entries
            )
        return [
            {
                "active_routers": int(active[replica]),
                "in_flight_flits": int(in_flight[replica]),
                "injection_backlog": backlog[replica],
                "layer_occupancy": [
                    int(value) for value in layer_occ[replica]
                ],
            }
            for replica in range(num_replicas)
        ]


@register_backend(
    "vectorized",
    aliases=("numpy", "flat-array"),
    description=(
        "flat-array numpy kernel with a replica axis "
        "(bit-identical to reference)"
    ),
)
class VectorizedBackend(SimulatorBackend):
    """Vectorized flat-array simulation kernel (see module docstring)."""

    name = "vectorized"

    def execute(
        self,
        network: "Network",
        packet_source: "PacketSource",
        *,
        warmup_cycles: int,
        measurement_cycles: int,
        drain_cycles: int,
    ) -> int:
        kernel = _VectorizedKernel([network])
        probe = self._probe_begin()
        [drain_used] = kernel.run(
            [packet_source],
            injection_end=warmup_cycles + measurement_cycles,
            drain_cycles=drain_cycles,
            series=None if probe is None else [probe],
        )
        return drain_used
