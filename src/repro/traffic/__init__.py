"""Traffic generation substrate.

Traffic in this reproduction is described at two levels:

* A :class:`~repro.traffic.patterns.TrafficPattern` describes *where* packets
  go: given a source node it yields destination nodes, and it can export an
  expected traffic matrix ``f_ij`` used by AdEle's offline optimization
  (Eq. 1 of the paper).
* A :class:`~repro.traffic.generator.PacketSource` describes *when* packets
  are injected (Bernoulli flit-injection process, packet length 10-30 flits
  as in Table I) and drives the simulator.

Real-application traffic (SPLASH-2 / PARSEC, gem5-extracted in the paper) is
substituted by :mod:`repro.traffic.applications`: synthetic application
communication graphs with the load levels and spatial non-uniformity
described in Section IV-C.  Recorded traces can be replayed through
:mod:`repro.traffic.trace`.
"""

from repro.traffic.patterns import (
    PATTERN_REGISTRY,
    BitComplementTraffic,
    HotspotTraffic,
    NeighborTraffic,
    ShuffleTraffic,
    TrafficPattern,
    TransposeTraffic,
    UniformTraffic,
    available_patterns,
    make_pattern,
    register_pattern,
)
from repro.traffic.applications import (
    APPLICATION_NAMES,
    APPLICATION_REGISTRY,
    ApplicationSpec,
    ApplicationTraffic,
    application_spec,
    available_applications,
    make_application_traffic,
    register_application,
)
from repro.traffic.trace import TraceEvent, TrafficTrace
from repro.traffic.generator import PacketRequest, PacketSource


__all__ = [
    "TrafficPattern",
    "UniformTraffic",
    "ShuffleTraffic",
    "TransposeTraffic",
    "BitComplementTraffic",
    "HotspotTraffic",
    "NeighborTraffic",
    "PATTERN_REGISTRY",
    "register_pattern",
    "available_patterns",
    "make_pattern",
    "APPLICATION_NAMES",
    "APPLICATION_REGISTRY",
    "register_application",
    "available_applications",
    "ApplicationSpec",
    "ApplicationTraffic",
    "application_spec",
    "make_application_traffic",
    "TraceEvent",
    "TrafficTrace",
    "PacketRequest",
    "PacketSource",
]
