"""Packet sources: when and what to inject into the network.

The simulator polls a :class:`PacketSource` once per node per cycle; the
source decides whether that node injects a new packet this cycle and, if so,
returns a :class:`PacketRequest` describing the packet.  Two modes are
supported:

* *Pattern mode* (Table I of the paper): a Bernoulli process with a
  configurable flit injection rate per node per cycle and a random packet
  length between 10 and 30 flits, destinations drawn from a
  :class:`~repro.traffic.patterns.TrafficPattern`.
* *Trace mode*: replay of a :class:`~repro.traffic.trace.TrafficTrace`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.traffic.patterns import TrafficPattern
from repro.traffic.trace import TrafficTrace


@dataclass(frozen=True)
class PacketRequest:
    """A request to inject one packet at a source node.

    Attributes:
        source: Source node id.
        destination: Destination node id.
        length: Packet length in flits.
    """

    source: int
    destination: int
    length: int


class PacketSource:
    """Base class: produces injection requests for every node each cycle."""

    def requests(self, cycle: int) -> List[PacketRequest]:
        """Packets that become ready for injection at the given cycle."""
        raise NotImplementedError

    def reset(self) -> None:
        """Reset the source to its initial state (for reuse across runs)."""
        raise NotImplementedError


class BernoulliPacketSource(PacketSource):
    """Open-loop Bernoulli injection driven by a traffic pattern.

    Args:
        pattern: Destination-selection pattern.
        injection_rate: *Packet* injection rate per node per cycle -- the
            probability that a node creates a new packet in a given cycle.
            This matches the x-axis of the paper's Fig. 4 ("Packet injection
            rate", 0 to ~0.012 depending on the configuration).
        min_packet_length: Minimum packet length in flits (Table I: 10).
        max_packet_length: Maximum packet length in flits (Table I: 30).
        seed: RNG seed for injection timing and packet lengths.
    """

    def __init__(
        self,
        pattern: TrafficPattern,
        injection_rate: float,
        min_packet_length: int = 10,
        max_packet_length: int = 30,
        seed: int = 0,
    ) -> None:
        if injection_rate < 0:
            raise ValueError("injection_rate must be non-negative")
        if min_packet_length < 1 or max_packet_length < min_packet_length:
            raise ValueError("invalid packet length bounds")
        self.pattern = pattern
        self.injection_rate = injection_rate
        self.min_packet_length = min_packet_length
        self.max_packet_length = max_packet_length
        self._seed = seed
        self.rng = random.Random(seed)

    def requests(self, cycle: int) -> List[PacketRequest]:
        requests: List[PacketRequest] = []
        for source in self.pattern.mesh.nodes():
            if self.rng.random() < self.injection_rate:
                destination = self.pattern.destination(source)
                length = self.rng.randint(
                    self.min_packet_length, self.max_packet_length
                )
                requests.append(
                    PacketRequest(source=source, destination=destination, length=length)
                )
        return requests

    def reset(self) -> None:
        self.rng = random.Random(self._seed)
        self.pattern.reseed(self._seed)


class TracePacketSource(PacketSource):
    """Replay of a recorded :class:`TrafficTrace`.

    Args:
        trace: The trace to replay.
        repeat: When ``True``, the trace wraps around after its last event so
            long simulations keep receiving traffic.
    """

    def __init__(self, trace: TrafficTrace, repeat: bool = False) -> None:
        self.trace = trace
        self.repeat = repeat
        self._by_cycle: Dict[int, List[PacketRequest]] = {}
        for event in trace:
            self._by_cycle.setdefault(event.cycle, []).append(
                PacketRequest(
                    source=event.source,
                    destination=event.destination,
                    length=event.length,
                )
            )
        self._period = trace.duration + 1 if len(trace) else 0

    def requests(self, cycle: int) -> List[PacketRequest]:
        if self._period == 0:
            return []
        lookup = cycle % self._period if self.repeat else cycle
        return list(self._by_cycle.get(lookup, []))

    def reset(self) -> None:
        # Trace playback is stateless; nothing to do.
        return None


class CompositePacketSource(PacketSource):
    """Combine several packet sources (e.g. background plus hotspot load)."""

    def __init__(self, sources: List[PacketSource]) -> None:
        if not sources:
            raise ValueError("at least one source is required")
        self.sources = list(sources)

    def requests(self, cycle: int) -> List[PacketRequest]:
        requests: List[PacketRequest] = []
        for source in self.sources:
            requests.extend(source.requests(cycle))
        return requests

    def reset(self) -> None:
        for source in self.sources:
            source.reset()


def make_packet_source(
    pattern: Optional[TrafficPattern] = None,
    injection_rate: float = 0.0,
    trace: Optional[TrafficTrace] = None,
    min_packet_length: int = 10,
    max_packet_length: int = 30,
    seed: int = 0,
) -> PacketSource:
    """Build a packet source from either a pattern or a trace.

    Exactly one of ``pattern`` or ``trace`` must be supplied.
    """
    if (pattern is None) == (trace is None):
        raise ValueError("supply exactly one of pattern or trace")
    if trace is not None:
        return TracePacketSource(trace)
    assert pattern is not None
    return BernoulliPacketSource(
        pattern,
        injection_rate,
        min_packet_length=min_packet_length,
        max_packet_length=max_packet_length,
        seed=seed,
    )
