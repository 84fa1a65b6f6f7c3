"""Simulation statistics.

The statistics object counts the events the paper's evaluation is built on:

* packet latency (creation to tail delivery) -> Figs. 4, 7, Table II;
* per-router forwarded-flit load -> Fig. 5;
* link/router/TSV traversal counts -> energy per flit (Fig. 6, Table II)
  via :mod:`repro.energy.model`;
* injection / delivery counts -> throughput and saturation detection.

A *measurement window* can be set so that warm-up traffic does not pollute
the measurements: only packets created at or after ``measurement_start`` are
counted for latency, and only events at or after that cycle contribute to
load and traversal counters.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.flit import Packet

#: Number of individual latency samples kept exactly before the collector
#: switches to fixed-size reservoir sampling (Algorithm R).  Headline
#: metrics (average latency, throughput, ...) are streamed exactly
#: regardless; only :meth:`SimulationStats.latency_percentile` becomes an
#: estimate past this many delivered packets.
DEFAULT_LATENCY_RESERVOIR_SIZE = 4096

#: Fixed seed of the reservoir's replacement RNG.  Determinism matters more
#: than independence here: two runs delivering the same packets in the same
#: order (e.g. the reference and optimized simulation kernels) must keep
#: bit-identical samples.
_RESERVOIR_SEED = 0x5EED


def _reservoir_observe(stats, value: float) -> None:
    """Add one latency sample to a bounded reservoir (Algorithm R).

    Shared by :class:`SimulationStats` and :class:`PhaseStats`, which carry
    identically named ``latencies`` / ``latency_samples_seen`` /
    ``latency_reservoir_size`` / ``_reservoir_rng`` attributes.  The first
    ``latency_reservoir_size`` samples are stored exactly; afterwards sample
    ``i`` replaces a uniformly random stored slot with probability
    ``capacity / i``.  The replacement RNG is seeded by a fixed constant, so
    identical delivery sequences keep identical samples.
    """
    stats.latency_samples_seen += 1
    if len(stats.latencies) < stats.latency_reservoir_size:
        stats.latencies.append(value)
        return
    slot = stats._reservoir_rng.randrange(stats.latency_samples_seen)
    if slot < stats.latency_reservoir_size:
        stats.latencies[slot] = value


def _latency_percentile(stats, percentile: float) -> float:
    """Latency percentile over a collector's (possibly sampled) latencies.

    Uses the nearest-rank definition: the p-th percentile of N ordered
    samples is the one at rank ``ceil(p/100 * N)`` (1-based), i.e. the
    smallest sample with at least ``p`` percent of the data at or below
    it.  Percentile 0 maps to the minimum, 100 to the maximum.  Unlike
    the previous ``round()``-based index, this is monotone in ``p`` and
    free of banker's-rounding flips at ``.5`` boundaries.
    """
    if not stats.latencies:
        return float("inf")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    ordered = sorted(stats.latencies)
    index = max(0, math.ceil((percentile / 100.0) * len(ordered)) - 1)
    return ordered[index]


@dataclass
class PhaseStats:
    """Event counters of one scenario measurement window.

    A *phase* is a half-open cycle window ``[start_cycle, end_cycle)`` opened
    by a scenario event (or the implicit ``baseline`` window).  Every
    measured simulation event is attributed to the phase active at the cycle
    it happens -- so a packet created in one phase but delivered in the next
    counts its creation in the first and its delivery (and latency) in the
    second.  All counters respect the parent collector's measurement window:
    warm-up traffic never pollutes a phase.

    Attributes:
        label: Human-readable window name (from the opening event).
        start_cycle: First cycle of the window.
        end_cycle: First cycle *past* the window (``None`` while open).
        packets_created: Measured packets created during the window.
        packets_delivered: Measured packets delivered during the window.
        flits_injected: Measured flits entering source routers.
        flits_delivered: Measured flits ejected at destinations.
        total_latency: Sum of latencies of packets delivered in the window.
        total_hops: Sum of hop counts of packets delivered in the window.
        router_traversals: Flits forwarded by any router during the window.
        horizontal_link_traversals: Flits crossing horizontal links.
        vertical_link_traversals: Flits crossing vertical (TSV) links.
        latencies: Reservoir-bounded individual latencies (Algorithm R,
            fixed seed -- the same discipline as
            :attr:`SimulationStats.latencies`).
        latency_samples_seen: Latencies offered to the reservoir.
        latency_reservoir_size: Capacity of the reservoir.
        energy_j: Optional per-phase energy in Joules, filled in by the
            simulation driver when an energy model is configured.
    """

    label: str
    start_cycle: int
    end_cycle: Optional[int] = None
    packets_created: int = 0
    packets_delivered: int = 0
    flits_injected: int = 0
    flits_delivered: int = 0
    total_latency: float = 0.0
    total_hops: int = 0
    router_traversals: int = 0
    horizontal_link_traversals: int = 0
    vertical_link_traversals: int = 0
    latencies: List[float] = field(default_factory=list)
    latency_samples_seen: int = 0
    latency_reservoir_size: int = DEFAULT_LATENCY_RESERVOIR_SIZE
    energy_j: Optional[float] = None
    _reservoir_rng: random.Random = field(
        default_factory=lambda: random.Random(_RESERVOIR_SEED),
        repr=False,
        compare=False,
    )

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def average_latency(self) -> float:
        """Mean latency of packets delivered in the window (inf if none)."""
        if self.packets_delivered == 0:
            return float("inf")
        return self.total_latency / self.packets_delivered

    @property
    def delivery_ratio(self) -> float:
        """Delivered / created packets within the window (1.0 when empty)."""
        if self.packets_created == 0:
            return 1.0
        return self.packets_delivered / self.packets_created

    @property
    def cycles(self) -> Optional[int]:
        """Window length in cycles (``None`` while the window is open)."""
        if self.end_cycle is None:
            return None
        return self.end_cycle - self.start_cycle

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile over the window's delivered packets."""
        return _latency_percentile(self, percentile)

    def _observe_latency(self, value: float) -> None:
        _reservoir_observe(self, value)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def to_summary(self) -> Dict[str, object]:
        """JSON-native summary row of the window (for caches and tables)."""
        summary: Dict[str, object] = {
            "label": self.label,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "packets_created": self.packets_created,
            "packets_delivered": self.packets_delivered,
            "flits_injected": self.flits_injected,
            "flits_delivered": self.flits_delivered,
            "total_latency": self.total_latency,
            "total_hops": self.total_hops,
            "router_traversals": self.router_traversals,
            "horizontal_link_traversals": self.horizontal_link_traversals,
            "vertical_link_traversals": self.vertical_link_traversals,
            "average_latency": self.average_latency,
            "delivery_ratio": self.delivery_ratio,
            "latency_samples_seen": self.latency_samples_seen,
        }
        if self.energy_j is not None:
            summary["energy_j"] = self.energy_j
        return summary


@dataclass
class SimulationStats:
    """Event counters collected during a simulation run.

    Attributes:
        measurement_start: First cycle that counts toward measurements.
        packets_created: Packets handed to the network by the traffic source
            within the measurement window.
        packets_delivered: Measured packets whose tail flit reached its
            destination.
        flits_injected: Head/body/tail flits of measured packets that entered
            a source router.
        flits_delivered: Flits of measured packets ejected at destinations.
        total_latency: Sum of end-to-end latencies of delivered measured
            packets.
        total_network_latency: Sum of network (injection-to-delivery)
            latencies of delivered measured packets.
        total_hops: Sum of head-flit hop counts of delivered measured packets.
        total_vertical_hops: Sum of head-flit vertical hops of delivered
            measured packets.
        router_traversals: Flits forwarded per router (includes ejection).
        horizontal_link_traversals: Flits crossing horizontal links.
        vertical_link_traversals: Flits crossing vertical (TSV) links.
        elevator_assignments: Packets assigned per elevator index.
        elevator_flit_load: Flits forwarded per router restricted to routers
            sitting on elevator columns (keyed by node id).
        latencies: Individual packet latencies kept for percentile /
            distribution analysis.  Exact for the first
            ``latency_reservoir_size`` delivered packets, then a fixed-size
            uniform reservoir (Algorithm R) so memory stays bounded on
            arbitrarily long runs.
        latency_samples_seen: Total latencies offered to the reservoir
            (``>= len(latencies)``; equality means the samples are exact).
        latency_reservoir_size: Capacity of the latency reservoir.
    """

    measurement_start: int = 0
    packets_created: int = 0
    packets_delivered: int = 0
    flits_injected: int = 0
    flits_delivered: int = 0
    total_latency: float = 0.0
    total_network_latency: float = 0.0
    total_hops: int = 0
    total_vertical_hops: int = 0
    router_traversals: Dict[int, int] = field(default_factory=dict)
    horizontal_link_traversals: int = 0
    vertical_link_traversals: int = 0
    elevator_assignments: Dict[int, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    latency_samples_seen: int = 0
    latency_reservoir_size: int = DEFAULT_LATENCY_RESERVOIR_SIZE
    phases: List[PhaseStats] = field(default_factory=list)
    _reservoir_rng: random.Random = field(
        default_factory=lambda: random.Random(_RESERVOIR_SEED),
        repr=False,
        compare=False,
    )
    _phase: Optional[PhaseStats] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Phase windows (scenario runs)
    # ------------------------------------------------------------------ #
    def begin_phase(self, label: str, cycle: int) -> None:
        """Open a new measurement window, closing the current one at ``cycle``.

        Subsequent measured events are attributed to the new window (in
        addition to the whole-run counters) until the next ``begin_phase``
        or :meth:`end_phase`.  Scenario runs open an implicit ``baseline``
        window at cycle 0, so a boundary at any later cycle always closes a
        well-defined predecessor -- possibly an empty one, e.g. when the
        first event fires exactly at the end of warm-up.
        """
        if self._phase is not None:
            self._phase.end_cycle = cycle
        phase = PhaseStats(label=label, start_cycle=cycle)
        self.phases.append(phase)
        self._phase = phase

    def end_phase(self, cycle: int) -> None:
        """Close the current measurement window at ``cycle`` (if any)."""
        if self._phase is not None:
            self._phase.end_cycle = cycle
            self._phase = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_packet_created(self, packet: Packet, cycle: int) -> None:
        """A packet was created by the traffic source."""
        if cycle < self.measurement_start:
            return
        self.packets_created += 1
        if packet.elevator_index is not None:
            self.elevator_assignments[packet.elevator_index] = (
                self.elevator_assignments.get(packet.elevator_index, 0) + 1
            )
        phase = self._phase
        if phase is not None:
            phase.packets_created += 1

    def record_flit_injected(self, packet: Packet, cycle: int) -> None:
        """A flit entered its source router."""
        if packet.creation_cycle >= self.measurement_start:
            self.flits_injected += 1
            phase = self._phase
            if phase is not None:
                phase.flits_injected += 1

    def record_router_traversal(self, node_id: int, packet: Packet, cycle: int) -> None:
        """A flit was forwarded by (left) a router."""
        if cycle < self.measurement_start:
            return
        self.router_traversals[node_id] = self.router_traversals.get(node_id, 0) + 1
        phase = self._phase
        if phase is not None:
            phase.router_traversals += 1

    def record_link_traversal(self, vertical: bool, packet: Packet, cycle: int) -> None:
        """A flit crossed a router-to-router link."""
        if cycle < self.measurement_start:
            return
        phase = self._phase
        if vertical:
            self.vertical_link_traversals += 1
            if phase is not None:
                phase.vertical_link_traversals += 1
        else:
            self.horizontal_link_traversals += 1
            if phase is not None:
                phase.horizontal_link_traversals += 1

    def record_flit_delivered(self, packet: Packet, cycle: int) -> None:
        """A flit was ejected at its destination."""
        if packet.creation_cycle >= self.measurement_start:
            self.flits_delivered += 1
            phase = self._phase
            if phase is not None:
                phase.flits_delivered += 1

    def record_packet_delivered(self, packet: Packet, cycle: int) -> None:
        """A packet's tail flit was ejected at its destination."""
        if packet.creation_cycle < self.measurement_start:
            return
        self.packets_delivered += 1
        latency = packet.latency
        if latency is not None:
            self.total_latency += latency
            self._observe_latency(float(latency))
        network_latency = packet.network_latency
        if network_latency is not None:
            self.total_network_latency += network_latency
        self.total_hops += packet.hops
        self.total_vertical_hops += packet.vertical_hops
        phase = self._phase
        if phase is not None:
            phase.packets_delivered += 1
            if latency is not None:
                phase.total_latency += latency
                phase._observe_latency(float(latency))
            phase.total_hops += packet.hops

    def _observe_latency(self, value: float) -> None:
        """Add one latency sample, switching to reservoir sampling at capacity.

        Classic Algorithm R: the first ``latency_reservoir_size`` samples are
        stored exactly; afterwards sample ``i`` replaces a uniformly random
        stored slot with probability ``capacity / i``.  The replacement RNG
        is seeded by a fixed constant, so identical delivery sequences keep
        identical samples.
        """
        _reservoir_observe(self, value)

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def average_latency(self) -> float:
        """Mean end-to-end packet latency in cycles (inf if nothing delivered)."""
        if self.packets_delivered == 0:
            return float("inf")
        return self.total_latency / self.packets_delivered

    @property
    def average_network_latency(self) -> float:
        """Mean injection-to-delivery latency in cycles."""
        if self.packets_delivered == 0:
            return float("inf")
        return self.total_network_latency / self.packets_delivered

    @property
    def average_hops(self) -> float:
        """Mean hop count of delivered packets."""
        if self.packets_delivered == 0:
            return 0.0
        return self.total_hops / self.packets_delivered

    @property
    def delivery_ratio(self) -> float:
        """Delivered / created packets (1.0 when the network fully drained)."""
        if self.packets_created == 0:
            return 1.0
        return self.packets_delivered / self.packets_created

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile over delivered packets (e.g. 99.0).

        Exact while fewer than ``latency_reservoir_size`` latencies have
        been observed; a uniform-reservoir estimate afterwards (compare
        ``latency_samples_seen`` with ``len(latencies)`` to tell).
        """
        return _latency_percentile(self, percentile)

    def throughput(self, measurement_cycles: int, num_nodes: int) -> float:
        """Accepted traffic in flits per node per cycle."""
        if measurement_cycles <= 0 or num_nodes <= 0:
            return 0.0
        return self.flits_delivered / (measurement_cycles * num_nodes)

    def router_load(self, node_id: int) -> int:
        """Flits forwarded by one router during the measurement window."""
        return self.router_traversals.get(node_id, 0)

    def normalized_elevator_load(self, elevator_nodes: Dict[int, List[int]]) -> Dict[int, float]:
        """Per-elevator router load normalized to elevator-less routers.

        Args:
            elevator_nodes: Mapping of elevator index to the node ids of its
                column routers.

        Returns:
            ``{elevator_index: normalized_load}`` where loads are divided by
            the mean load of routers that do not sit on any elevator column
            (the paper's Fig. 5 normalization).
        """
        elevator_node_set = {
            node for nodes in elevator_nodes.values() for node in nodes
        }
        plain_loads = [
            load
            for node, load in self.router_traversals.items()
            if node not in elevator_node_set
        ]
        baseline = sum(plain_loads) / len(plain_loads) if plain_loads else 1.0
        if baseline == 0:
            baseline = 1.0
        result: Dict[int, float] = {}
        for index, nodes in elevator_nodes.items():
            load = sum(self.router_traversals.get(node, 0) for node in nodes)
            result[index] = (load / len(nodes)) / baseline if nodes else 0.0
        return result
