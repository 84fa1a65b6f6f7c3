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


def build_traffic_pattern(name, mesh, seed=0, options=None) -> TrafficPattern:
    """Instantiate a registered pattern *or* application model by name.

    The name-resolution rule behind :meth:`repro.spec.TrafficSpec.build`:
    application models win when a name is registered in both registries,
    applications accept no options, and unknown names raise the registry's
    did-you-mean ``ValueError`` over the union of both namespaces.

    Raises:
        repro.registry.UnknownComponentError: When the name is neither a
            registered pattern nor a registered application.
        ValueError: When options are passed with an application name.
    """
    from repro.registry import UnknownComponentError

    options = dict(options or {})
    if name in APPLICATION_REGISTRY:
        if options:
            raise ValueError(
                f"application traffic {name!r} accepts no options, "
                f"got {sorted(options)}"
            )
        return make_application_traffic(name, mesh, seed=seed)
    if name in PATTERN_REGISTRY:
        return PATTERN_REGISTRY.create(name, mesh, seed=seed, **options)
    raise UnknownComponentError(
        "traffic pattern or application",
        name,
        sorted(set(PATTERN_REGISTRY.names()) | set(APPLICATION_REGISTRY.names())),
    )


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
    "build_traffic_pattern",
]
