"""The optimized simulation kernel: active-set evaluation, flattened state.

Why it is faster
    At the injection rates the paper sweeps (Fig. 4's x-axis tops out
    around 0.012 packets/node/cycle), most routers hold no flit on any
    given cycle -- yet the reference kernel walks every port x VC buffer of
    every router three times per cycle.  This kernel makes per-cycle cost
    proportional to the traffic that actually exists:

    * only routers holding at least one flit (the *active set*) are
      evaluated, in ascending node-id order, and each is visited **once**
      per cycle: the scan that collects switch requests also gives head
      flits their route;
    * each active router iterates only its *occupied* input channels,
      tracked as a 14-bit occupancy mask, instead of all port x VC pairs;
    * each output port's requests are one bitmask of input channels, and
      round-robin arbitration rotates that mask by the port's pointer
      instead of sorting a candidate list;
    * routes come from the precomputed lookup tables of
      :class:`repro.routing.base.PrecomputedRoutes`;
    * a grant does the bookkeeping of :meth:`Network.deliver_flit` and of
      ``FlitBuffer.pop/stage/commit`` inline, on the kernel's flat tables,
      with the measurement-window and phase reads hoisted out of the loop;
    * end-of-cycle commits visit only the buffers that received a staged
      flit this cycle, and the idle check during drain is an O(1) counter
      comparison.

Active-set invariants
    * ``self.active`` *over-approximates* the routers holding flits: a node
      is added the moment a flit is staged into it (injection or link
      traversal) and removed only at end of cycle when its flit counter
      reaches zero.  Skipping a router outside the set is always safe -- it
      has no visible flit to route or arbitrate and nothing staged to
      commit.  The set is mirrored into ``Network._active_routers`` when
      the run ends (:meth:`_ActiveSetKernel.sync_back`), so
      :meth:`Network.is_idle` stays truthful after an optimized run.
    * The per-router channel mask over-approximates occupied channels the
      same way: a bit is set when a flit is staged into the channel and
      cleared when a pop leaves it empty; every consumer re-checks actual
      occupancy before acting.
    * An *empty* router can still hold wormhole allocation state (a body
      flit convoy whose tail has not arrived keeps its input VC's route and
      output-VC ownership).  That state lives in this kernel's flat arrays
      and is deliberately **not** cleared by pruning: when the next flit of
      the convoy arrives, the router re-enters the active set and resumes
      with its allocation intact.

What keeps the one-pass cycle exact
    The reference kernel computes every router's routes, then runs every
    router's allocation, then commits.  This kernel fuses the first two
    phases per router; the rules below keep every result bit-identical.

    * Routers are visited in ascending node order, over the active set as
      it stood at the start of the cycle -- the order of the reference
      kernel's full scan.  Evaluation order is observable through
      downstream buffer occupancy (credit backpressure) and the order
      statistics accumulate, so it is part of the semantics.
    * Folding routing into allocation is exact because router *i*'s
      allocation pops only its own FIFOs and stages only into other
      routers' ``_staged`` lists, which no route computation reads: the
      FIFO fronts and routes router *j* > *i* sees are the ones it would
      have seen before any allocation ran.
    * Requests are collected in ascending channel order, and output ports
      are granted in the order they were first requested (dict insertion
      order), as in :meth:`Router.allocate_and_traverse`.  That order
      decides the order of AdEle's ``notify_source_latency`` calls and of
      ejections into the latency reservoir.
    * Round-robin candidates are tried in ascending
      ``(idx - pointer) % num_channels``, the order
      :meth:`Router._rotated_candidates` sorts them into; a single
      candidate needs no rotation.
    * ``cycle >= stats.measurement_start`` and ``stats._phase`` are read
      once per :meth:`_ActiveSetKernel.step`.  Both change only between
      steps: the scenario runtime fires its events inside
      ``packet_source.requests``, before injection.
    * The grant's downstream-space test is the precondition of
      :meth:`FlitBuffer.stage`, so staging by ``append`` keeps the
      flow-control invariant; ``stage()`` keeps its ``OverflowError`` for
      every other caller.

Equivalence
    Packet creation still routes through :meth:`Network.create_packet`.
    Injection mirrors :meth:`Network.inject` line for line (including the
    queue visiting order), and a grant mirrors
    :meth:`Network.deliver_flit` and ``FlitBuffer.pop/stage/commit`` step
    for step, so the kernel can keep its counters in the same pass; those
    methods stay the ``reference`` kernel's.  The cross-backend matrix in
    ``tests/test_backends.py`` asserts bit-identical results.  One caveat:
    allocation state lives in this kernel's flat arrays, so the
    per-:class:`~repro.sim.router.Router` introspection dicts
    (``current_route`` / ``output_owner``) are stale *while* an optimized
    run executes; the kernel writes them back when the run completes
    (:meth:`_ActiveSetKernel.sync_back`), so a finished network -- even one
    left saturated with in-flight wormholes -- can be inspected, reset, or
    run again with either backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.sim.backends import SimulatorBackend, register_backend
from repro.sim.router import OPPOSITE_PORT, Port, VERTICAL_PORTS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.buffer import FlitBuffer
    from repro.sim.network import Network
    from repro.traffic.generator import PacketSource


class _ActiveSetKernel:
    """Per-run flattened state + the one-pass active-set cycle step."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.routes = network._route_computation.tables
        num_vcs = network.num_vcs
        self.num_vcs = num_vcs
        ports = list(Port)
        #: Input channels in arbitration order -- identical to
        #: ``Router._channel_order`` (port-major, VC-minor).
        self.channel_keys = [(port, vc) for port in ports for vc in range(num_vcs)]
        self.num_channels = len(self.channel_keys)
        #: Per output port: channel-index base of the input port a flit
        #: staged through it lands on (``OPPOSITE_PORT * num_vcs``).
        self.opp_base = [
            OPPOSITE_PORT[port] * num_vcs if port in OPPOSITE_PORT else 0
            for port in ports
        ]
        #: Per output port: whether it crosses a vertical (TSV) link.
        self.vertical = [port in VERTICAL_PORTS for port in ports]

        #: Per router: input buffers in channel order, and their FIFOs.
        self.buffers: List[List["FlitBuffer"]] = []
        self.fifos = []
        #: Per router: downstream input buffer per (output port, VC), or
        #: ``None`` when the link is missing (LOCAL entries are unused --
        #: ejection needs no space check).
        self.down: List[List[List[Optional["FlitBuffer"]]]] = []
        #: Per router: neighbour node id per output port (None = no link).
        self.neighbor_id: List[List[Optional[int]]] = []
        for router in network.routers:
            bufs = [router.input_buffers[key] for key in self.channel_keys]
            self.buffers.append(bufs)
            self.fifos.append([buf._fifo for buf in bufs])
            per_port: List[List[Optional["FlitBuffer"]]] = []
            neighbors: List[Optional[int]] = []
            for port in ports:
                neighbor = (
                    None
                    if port == Port.LOCAL
                    else network.neighbor(router.node_id, port)
                )
                neighbors.append(neighbor)
                if neighbor is None:
                    per_port.append([None] * num_vcs)
                else:
                    in_port = OPPOSITE_PORT[port]
                    per_port.append(
                        [
                            network.routers[neighbor].buffer(in_port, vc)
                            for vc in range(num_vcs)
                        ]
                    )
            self.down.append(per_port)
            self.neighbor_id.append(neighbors)

        # Flat allocation state, seeded from the routers so a reset (or
        # fresh) network starts from the same blank slate the reference
        # kernel would.
        key_index = {key: i for i, key in enumerate(self.channel_keys)}
        self.route: List[List[Optional[Port]]] = []
        self.owner: List[List[Optional[int]]] = []
        self.rr: List[List[int]] = []
        for router in network.routers:
            self.route.append([router._route[key] for key in self.channel_keys])
            owners: List[Optional[int]] = [None] * self.num_channels
            for port in ports:
                for vc in range(num_vcs):
                    holder = router._output_owner[(port, vc)]
                    if holder is not None:
                        owners[port * num_vcs + vc] = key_index[holder]
            self.owner.append(owners)
            self.rr.append([router._rr_pointer[port] for port in ports])

        # Occupancy tracking: flits per router, occupied-channel bitmask
        # per router, total flits buffered network-wide, and the buffers
        # that received staged flits this cycle (commit worklist).
        self.count: List[int] = []
        self.mask: List[int] = []
        for bufs in self.buffers:
            mask = 0
            flits = 0
            for idx, buf in enumerate(bufs):
                occupancy = buf.total_occupancy
                if occupancy:
                    mask |= 1 << idx
                    flits += occupancy
            self.mask.append(mask)
            self.count.append(flits)
        self.total_flits = sum(self.count)
        self.active = {node for node, flits in enumerate(self.count) if flits}
        self.staged_buffers: List["FlitBuffer"] = []

        # Scenario topology events (elevator fault/repair) change vertical
        # links mid-run; the network notifies this kernel so the flattened
        # downstream tables are rebuilt incrementally -- only the affected
        # routers, only their vertical ports.
        network.add_topology_listener(self._on_topology_change)

    def close(self) -> None:
        """Detach from the network (end of run)."""
        self.network.remove_topology_listener(self._on_topology_change)

    def _on_topology_change(self, nodes) -> None:
        """Rebuild the cached vertical-link structure of changed routers.

        Only ``down`` (downstream input buffers per output port/VC) and
        ``neighbor_id`` depend on link existence; allocation state, routes
        and occupancy counters describe flits, which a topology event never
        touches -- flits cut off from their path simply stall until a
        repair, exactly as under the reference kernel.
        """
        network = self.network
        num_vcs = self.num_vcs
        routers = network.routers
        for node in nodes:
            for port in VERTICAL_PORTS:
                neighbor = network.neighbor(node, port)
                self.neighbor_id[node][port] = neighbor
                if neighbor is None:
                    self.down[node][port] = [None] * num_vcs
                else:
                    in_port = OPPOSITE_PORT[port]
                    self.down[node][port] = [
                        routers[neighbor].buffer(in_port, vc)
                        for vc in range(num_vcs)
                    ]

    # ------------------------------------------------------------------ #
    def inject(self, cycle: int) -> None:
        """Drain live injection queues into LOCAL buffers (O(active)).

        Mirrors :meth:`repro.sim.network.Network.inject` exactly --
        same queue visiting order, same per-flit bookkeeping -- while
        updating the kernel's occupancy counters in the same pass (the
        network's active-router set is brought up to date by
        :meth:`sync_back`).
        """
        network = self.network
        live = network._live_queues
        if not live:
            return
        stats = network.stats
        queues = network._injection_queues
        for key in sorted(live):
            queue = queues[key]
            node, vc = key
            # LOCAL is port 0, so the channel index of (LOCAL, vc) is vc.
            buf = self.buffers[node][vc]
            fifo = buf._fifo
            staged_flits = buf._staged
            depth = buf.depth
            staged = 0
            while queue and len(fifo) + len(staged_flits) < depth:
                flit = queue.popleft()
                packet = flit.packet
                if flit.flit_type.is_head and packet.injection_cycle is None:
                    packet.injection_cycle = cycle
                staged_flits.append(flit)
                staged += 1
                stats.record_flit_injected(packet, cycle)
            if staged:
                self.count[node] += staged
                self.total_flits += staged
                self.mask[node] |= 1 << vc
                self.active.add(node)
                self.staged_buffers.append(buf)
            if not queue:
                live.discard(key)

    def idle(self) -> bool:
        """Whether the network is drained -- O(1) via the flit counters.

        Decision-equivalent to :meth:`Network.is_idle`: no live injection
        queue and no flit buffered anywhere.
        """
        return not self.network._live_queues and self.total_flits == 0

    def probe_reading(self) -> dict:
        """Sample the probe channels from the kernel's own counters.

        Read-only by construction (the never-perturbs invariant): one scan
        of the exact per-router flit counts, no pruning, no allocation
        state touched.  Definitionally identical to
        :func:`repro.obs.probes.network_reading` at the same cycle.
        """
        network = self.network
        mesh = network.mesh
        nodes_per_layer = mesh.nodes_per_layer
        per_layer = [0] * mesh.num_layers
        active = 0
        for node, flits in enumerate(self.count):
            if flits:
                active += 1
                per_layer[node // nodes_per_layer] += flits
        queues = network._injection_queues
        backlog = sum(len(queues[key]) for key in network._live_queues)
        return {
            "active_routers": active,
            "in_flight_flits": self.total_flits,
            "injection_backlog": backlog,
            "layer_occupancy": per_layer,
        }

    def step(self, cycle: int) -> None:
        """One cycle: route + allocate/traverse per router, then commit.

        The loops read and append to FlitBuffer internals (``_fifo`` /
        ``_staged``) directly: this is the hottest code in the repository,
        and the rules that keep it exact are in the module docstring.
        """
        network = self.network
        stats = network.stats
        measurement_start = stats.measurement_start
        measuring = cycle >= measurement_start
        phase = stats._phase
        traversals = stats.router_traversals
        notify = network.policy.notify_source_latency
        port_for = self.routes.port_for
        num_vcs = self.num_vcs
        num_channels = self.num_channels
        all_channels = (1 << num_channels) - 1
        all_fifos = self.fifos
        all_buffers = self.buffers
        all_routes = self.route
        all_owners = self.owner
        all_rr = self.rr
        all_down = self.down
        all_neighbors = self.neighbor_id
        opp_base = self.opp_base
        vertical = self.vertical
        count = self.count
        mask = self.mask
        active_set = self.active
        staged_buffers = self.staged_buffers
        active = sorted(active_set)
        ejected = 0

        for node in active:
            node_mask = mask[node]
            fifos = all_fifos[node]
            route = all_routes[node]

            # Route computation folded into request collection: a head
            # flit at a FIFO front claims its output port (held until its
            # tail traverses), then every routed front requests that port.
            requests = None
            bits = node_mask
            while bits:
                low = bits & -bits
                bits ^= low
                idx = low.bit_length() - 1
                fifo = fifos[idx]
                if not fifo:
                    continue
                out_port = route[idx]
                if out_port is None:
                    flit = fifo[0]
                    if not flit.flit_type.is_head:
                        continue
                    packet = flit.packet
                    out_port = route[idx] = port_for(
                        node, packet.destination, packet.elevator_column
                    )
                if requests is None:
                    requests = {out_port: low}
                elif out_port in requests:
                    requests[out_port] |= low
                else:
                    requests[out_port] = low
            if requests is None:
                continue

            # Switch allocation and traversal: one flit per output port,
            # round-robin over the requesting input channels.
            owner = all_owners[node]
            rr = all_rr[node]
            down = all_down[node]
            bufs = all_buffers[node]
            moved = 0
            for out_port, candidates in requests.items():
                if candidates & (candidates - 1):
                    # Rotate right by the pointer: bit j of the rotated
                    # mask is channel (j + pointer) % num_channels, so
                    # ascending bits are ascending round-robin distance.
                    pointer = rr[out_port] % num_channels
                    candidates = (
                        (candidates >> pointer)
                        | (candidates << (num_channels - pointer))
                    ) & all_channels
                else:
                    pointer = 0
                out_base = out_port * num_vcs
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    idx = low.bit_length() - 1 + pointer
                    if idx >= num_channels:
                        idx -= num_channels
                    flit = fifos[idx][0]
                    flit_type = flit.flit_type
                    packet = flit.packet
                    out_vc = packet.virtual_network
                    holder = owner[out_base + out_vc]
                    # A head flit needs the output VC free (or already its
                    # own in the single-flit re-request case); body/tail
                    # flits only follow their own wormhole.
                    if holder != idx and (
                        holder is not None or not flit_type.is_head
                    ):
                        continue
                    if out_port:  # every port but LOCAL checks for space
                        downstream = down[out_port][out_vc]
                        if downstream is None or (
                            len(downstream._fifo) + len(downstream._staged)
                            >= downstream.depth
                        ):
                            continue
                    break
                else:
                    continue  # no requester is eligible this cycle

                # Grant ``idx``: FlitBuffer.pop plus wormhole state.
                fifo = fifos[idx]
                fifo.popleft()
                if flit_type.is_head:
                    owner[out_base + out_vc] = idx
                if flit_type.is_tail:
                    owner[out_base + out_vc] = None
                    route[idx] = None
                rr[out_port] = idx + 1 if idx + 1 < num_channels else 0
                moved += 1
                if not (fifo or bufs[idx]._staged):
                    node_mask &= ~(1 << idx)

                # Network.deliver_flit, step for step.
                if measuring:
                    traversals[node] = traversals.get(node, 0) + 1
                    if phase is not None:
                        phase.router_traversals += 1
                # Source-side bookkeeping for AdEle's local latency
                # estimate: the flit leaves its source from a LOCAL input
                # channel (indices below num_vcs).
                if idx < num_vcs and node == packet.source:
                    if flit_type.is_head:
                        packet.head_exit_cycle = cycle
                    if flit_type.is_tail:
                        packet.tail_exit_cycle = cycle
                        metric = packet.source_serialization_latency()
                        if metric is not None and packet.elevator_index is not None:
                            notify(packet.source, packet.elevator_index, metric, cycle)
                if out_port:
                    is_vertical = vertical[out_port]
                    if measuring:
                        if is_vertical:
                            stats.vertical_link_traversals += 1
                            if phase is not None:
                                phase.vertical_link_traversals += 1
                        else:
                            stats.horizontal_link_traversals += 1
                            if phase is not None:
                                phase.horizontal_link_traversals += 1
                    if flit_type.is_head:
                        packet.hops += 1
                        if is_vertical:
                            packet.vertical_hops += 1
                    # FlitBuffer.stage, its space check already passed.
                    downstream._staged.append(flit)
                    staged_buffers.append(downstream)
                    neighbor = all_neighbors[node][out_port]
                    count[neighbor] += 1
                    mask[neighbor] |= 1 << (opp_base[out_port] + out_vc)
                    active_set.add(neighbor)
                else:
                    ejected += 1
                    if packet.creation_cycle >= measurement_start:
                        stats.flits_delivered += 1
                        if phase is not None:
                            phase.flits_delivered += 1
                    if flit_type.is_tail:
                        packet.delivery_cycle = cycle
                        stats.record_packet_delivered(packet, cycle)
                        network._in_flight -= 1
            if moved:
                count[node] -= moved
                mask[node] = node_mask
        self.total_flits -= ejected

        # FlitBuffer.commit of every buffer that received a staged flit
        # this cycle, then prune routers whose flit counter dropped to zero
        # (only routers active at the start of the cycle can have).
        # Pruning only drops iteration work -- allocation state survives in
        # the flat arrays (see the module docstring's invariants).
        if staged_buffers:
            for buf in staged_buffers:
                buf._fifo.extend(buf._staged)
                buf._staged.clear()
            staged_buffers.clear()
        for node in active:
            if not count[node]:
                active_set.discard(node)

    def sync_back(self) -> None:
        """Write the flat allocation state back into the Router dicts.

        Run once when a simulation finishes: it restores the invariant that
        ``Router._route`` / ``_output_owner`` / ``_rr_pointer`` describe the
        network's true allocation state, so a network left mid-wormhole
        (e.g. after a saturated run) can be inspected or run again with
        either backend and behave exactly as it would have under the
        reference kernel.  The routers still holding flits join
        ``Network._active_routers``, which the kernel does not update
        while it runs.
        """
        channel_keys = self.channel_keys
        num_vcs = self.num_vcs
        for node, router in enumerate(self.network.routers):
            route = self.route[node]
            for idx, key in enumerate(channel_keys):
                router._route[key] = route[idx]
            owner = self.owner[node]
            rr = self.rr[node]
            for port in Port:
                base = port * num_vcs
                for vc in range(num_vcs):
                    holder = owner[base + vc]
                    router._output_owner[(port, vc)] = (
                        None if holder is None else channel_keys[holder]
                    )
                router._rr_pointer[port] = rr[port]
        self.network._active_routers.update(self.active)


# ``vectorized`` named a deleted flat-array kernel; the benchmark's
# ``pm_knee`` and ``seed_replicas`` specs still spell it, so it stays an
# alias.
@register_backend(
    "optimized",
    aliases=("active-set", "active_set", "vectorized"),
    description="active-set kernel: skips idle routers, precomputed routes (default)",
)
class OptimizedBackend(SimulatorBackend):
    """Active-set simulation kernel (see module docstring)."""

    name = "optimized"

    def execute(
        self,
        network: "Network",
        packet_source: "PacketSource",
        *,
        warmup_cycles: int,
        measurement_cycles: int,
        drain_cycles: int,
    ) -> int:
        kernel = _ActiveSetKernel(network)
        step = kernel.step
        inject = kernel.inject
        create_packet = network.create_packet
        probe = self._probe_begin()
        injection_end = warmup_cycles + measurement_cycles
        # The finally clause keeps the routers' introspection dicts truthful
        # on *every* exit path -- a packet source or policy that raises
        # mid-run must not leave the network allocation state stale.
        try:
            for cycle in range(injection_end):
                for request in packet_source.requests(cycle):
                    create_packet(
                        request.source, request.destination, request.length, cycle
                    )
                inject(cycle)
                step(cycle)
                if probe is not None and probe.spec.should_sample(cycle):
                    probe.append(cycle, kernel.probe_reading())

            drain_used = 0
            for drain in range(drain_cycles):
                if kernel.idle():
                    break
                cycle = injection_end + drain
                inject(cycle)
                step(cycle)
                drain_used = drain + 1
                if probe is not None and probe.spec.should_sample(cycle):
                    probe.append(cycle, kernel.probe_reading())
        finally:
            kernel.sync_back()
            kernel.close()
        return drain_used
