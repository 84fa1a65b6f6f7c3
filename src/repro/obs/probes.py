"""Opt-in per-cycle kernel probes (congestion gauges over time).

A :class:`ProbeSpec` asks the simulation kernel to sample a selection of
congestion channels every ``interval`` cycles into a bounded
:class:`ProbeSeries`:

====================== ==================================================
Channel                Meaning at the sampled cycle
====================== ==================================================
``active_routers``     routers currently holding at least one flit
``in_flight_flits``    flits resident in any router buffer
``injection_backlog``  packets queued at network interfaces, not injected
``layer_occupancy``    per-layer list of buffered flits (TSV pressure)
====================== ==================================================

Both kernels fill the same channels -- the reference kernel by scanning
the :class:`~repro.sim.network.Network`, the active-set kernel from its
own incremental counters.

A probe is a **run argument**, never a spec field: it is threaded through
``Simulator(probe=...)`` / ``run_experiment(probe=...)`` to the backend,
and it never enters canonical serialization, ``config_key``,
``derive_seed`` or a cached summary row.
Kernels only *read* state when sampling, so a probed run is bit-identical
to an unprobed one (pinned by ``tests/test_obs_neutrality.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

__all__ = [
    "PROBE_CHANNELS",
    "ProbeSpec",
    "ProbeSeries",
    "network_reading",
    "series_document",
]

#: Every channel a kernel can fill, in canonical order.
PROBE_CHANNELS: Tuple[str, ...] = (
    "active_routers",
    "in_flight_flits",
    "injection_backlog",
    "layer_occupancy",
)


@dataclass(frozen=True)
class ProbeSpec:
    """What to sample and how often; bounded so long runs stay bounded."""

    interval: int = 100
    channels: Tuple[str, ...] = PROBE_CHANNELS
    max_samples: int = 4096

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("probe interval must be >= 1 cycle")
        if self.max_samples < 1:
            raise ValueError("probe max_samples must be >= 1")
        channels = tuple(self.channels)
        unknown = [c for c in channels if c not in PROBE_CHANNELS]
        if unknown:
            raise ValueError(
                f"unknown probe channel(s) {unknown}; "
                f"known: {list(PROBE_CHANNELS)}"
            )
        if not channels:
            raise ValueError("probe needs at least one channel")
        object.__setattr__(self, "channels", channels)

    def should_sample(self, cycle: int) -> bool:
        return cycle % self.interval == 0

    def series(self) -> "ProbeSeries":
        return ProbeSeries(spec=self)

    @classmethod
    def parse_channels(cls, text: str) -> Tuple[str, ...]:
        """``"active_routers,layer_occupancy"`` -> validated tuple."""
        names = tuple(part.strip() for part in text.split(",") if part.strip())
        cls(channels=names)  # validates
        return names


@dataclass
class ProbeSeries:
    """One run's sampled time-series."""

    spec: ProbeSpec
    cycles: List[int] = field(default_factory=list)
    values: Dict[str, List[Any]] = field(default_factory=dict)
    dropped: int = 0

    def __post_init__(self) -> None:
        for channel in self.spec.channels:
            self.values.setdefault(channel, [])

    @property
    def full(self) -> bool:
        return len(self.cycles) >= self.spec.max_samples

    def append(self, cycle: int, reading: Dict[str, Any]) -> None:
        """Record one sample; silently counts (never grows) past the bound."""
        if self.full:
            self.dropped += 1
            return
        self.cycles.append(cycle)
        for channel in self.spec.channels:
            self.values[channel].append(reading[channel])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "interval": self.spec.interval,
            "channels": list(self.spec.channels),
            "cycles": list(self.cycles),
            "values": {c: list(v) for c, v in self.values.items()},
            "samples": len(self.cycles),
            "dropped": self.dropped,
        }

    def rows(self) -> List[Dict[str, Any]]:
        """One dict per sample -- the ``repro probe`` JSONL row shape."""
        out: List[Dict[str, Any]] = []
        for index, cycle in enumerate(self.cycles):
            row: Dict[str, Any] = {"cycle": cycle}
            for channel in self.spec.channels:
                row[channel] = self.values[channel][index]
            out.append(row)
        return out


def series_document(series: Sequence[ProbeSeries]) -> Dict[str, Any]:
    """The ``--json`` probe block: one entry per series."""
    return {
        "series": [s.to_dict() for s in series],
    }


def network_reading(network: Any) -> Dict[str, Any]:
    """Sample every channel from a :class:`~repro.sim.network.Network`.

    One pass over the over-approximating active-router set (read-only: no
    pruning, no state change), used by the ``reference`` kernel; the
    active-set kernel samples its own counters instead.
    """
    mesh = network.mesh
    nodes_per_layer = mesh.nodes_per_layer
    per_layer = [0] * mesh.num_layers
    active = 0
    occupancy_of = network.buffer_occupancy
    for node in list(network.active_routers()):
        occupancy = occupancy_of(node)
        if occupancy > 0:
            active += 1
            per_layer[node // nodes_per_layer] += occupancy
    return {
        "active_routers": active,
        "in_flight_flits": sum(per_layer),
        "injection_backlog": network.pending_injections(),
        "layer_occupancy": per_layer,
    }
