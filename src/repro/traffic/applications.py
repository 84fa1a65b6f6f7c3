"""Synthetic real-application traffic (SPLASH-2 / PARSEC substitution).

The paper extracts traces of six SPLASH-2/PARSEC benchmarks (canneal, fft,
fluidanimate, lu, radix, water) with gem5 and replays them in the NoC
simulator.  gem5 and the original traces are not available offline, so this
module substitutes each benchmark with a synthetic application model that
preserves the properties the paper's evaluation actually relies on
(Section IV-C):

* the *load level*: canneal, fft, radix and water are "applications with
  higher traffic loads", fluidanimate and lu are "applications with lower
  traffic loads" whose latency stays near zero-load latency;
* the *spatial structure*: each benchmark communicates over a sparse,
  non-uniform communication graph (not uniform random), which is what makes
  elevator congestion benchmark-dependent.

Each :class:`ApplicationSpec` carries a relative load factor and parameters
of a deterministic communication-graph generator; :class:`ApplicationTraffic`
turns the graph into a :class:`~repro.traffic.patterns.TrafficPattern` that
can drive the simulator and export a traffic matrix for offline optimization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.registry import Registry
from repro.topology.mesh3d import Mesh3D
from repro.traffic.patterns import TrafficMatrix, TrafficPattern

#: Registry of application traffic models.  Entries are
#: :class:`ApplicationSpec` instances; register your own with
#: :func:`register_application` and it becomes usable by name (like any
#: synthetic pattern) in :class:`~repro.spec.TrafficSpec`, benches and the
#: CLI.
APPLICATION_REGISTRY: Registry = Registry("application")


@dataclass(frozen=True)
class ApplicationSpec:
    """Parameters of a synthetic application communication model.

    Attributes:
        name: Benchmark name (e.g. ``"fft"``).
        load_factor: Relative injection-rate multiplier; ``1.0`` corresponds
            to the heaviest benchmark in the suite.
        partners_per_node: Mean number of destination partners per node in
            the communication graph.
        hotspot_nodes: Number of globally shared nodes (directory / barrier /
            reduction hubs) that attract extra traffic.
        hotspot_share: Fraction of each node's traffic sent to hotspot nodes.
        locality: Fraction of partner selection biased toward nearby nodes
            (in 3D Manhattan distance); the rest are chosen uniformly.
        zipf_exponent: Skew of the per-partner weight distribution; larger
            values concentrate traffic on fewer partners.
    """

    name: str
    load_factor: float
    partners_per_node: int
    hotspot_nodes: int
    hotspot_share: float
    locality: float
    zipf_exponent: float

    def __post_init__(self) -> None:
        if self.load_factor <= 0:
            raise ValueError("load_factor must be positive")
        if self.partners_per_node < 1:
            raise ValueError("partners_per_node must be >= 1")
        if not 0.0 <= self.hotspot_share < 1.0:
            raise ValueError("hotspot_share must be in [0, 1)")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError("locality must be in [0, 1]")


#: Application models for the six benchmarks in the paper's Fig. 7.  Load
#: factors encode the paper's high-load (canneal, fft, radix, water) versus
#: low-load (fluidanimate, lu) grouping; graph parameters reflect the
#: qualitative communication structure of each benchmark.
_APPLICATION_SPECS: Dict[str, ApplicationSpec] = {
    "canneal": ApplicationSpec(
        name="canneal",
        load_factor=1.00,
        partners_per_node=10,
        hotspot_nodes=4,
        hotspot_share=0.25,
        locality=0.2,
        zipf_exponent=1.1,
    ),
    "fft": ApplicationSpec(
        name="fft",
        load_factor=0.90,
        partners_per_node=6,
        hotspot_nodes=2,
        hotspot_share=0.15,
        locality=0.1,
        zipf_exponent=0.8,
    ),
    "fluidanimate": ApplicationSpec(
        name="fluidanimate",
        load_factor=0.18,
        partners_per_node=4,
        hotspot_nodes=1,
        hotspot_share=0.10,
        locality=0.8,
        zipf_exponent=1.0,
    ),
    "lu": ApplicationSpec(
        name="lu",
        load_factor=0.22,
        partners_per_node=5,
        hotspot_nodes=2,
        hotspot_share=0.20,
        locality=0.6,
        zipf_exponent=1.2,
    ),
    "radix": ApplicationSpec(
        name="radix",
        load_factor=0.95,
        partners_per_node=12,
        hotspot_nodes=3,
        hotspot_share=0.20,
        locality=0.1,
        zipf_exponent=0.7,
    ),
    "water": ApplicationSpec(
        name="water",
        load_factor=0.85,
        partners_per_node=8,
        hotspot_nodes=2,
        hotspot_share=0.15,
        locality=0.5,
        zipf_exponent=1.0,
    ),
}

#: Benchmark names in the order they appear in the paper's Fig. 7.
APPLICATION_NAMES: Tuple[str, ...] = (
    "canneal",
    "fft",
    "fluidanimate",
    "lu",
    "radix",
    "water",
)

#: Aliases for benchmark names -- "fluid." is the abbreviated spelling the
#: paper's Fig. 7 uses for fluidanimate.
_APPLICATION_ALIASES: Dict[str, Tuple[str, ...]] = {
    "fluidanimate": ("fluid.", "fluid"),
}

for _name, _spec in _APPLICATION_SPECS.items():
    _load = "high" if _spec.load_factor >= 0.5 else "low"
    APPLICATION_REGISTRY.add(
        _name,
        _spec,
        aliases=_APPLICATION_ALIASES.get(_name, ()),
        description=f"SPLASH-2/PARSEC {_name} substitute ({_load} traffic load)",
        load_factor=_spec.load_factor,
    )
del _name, _spec, _load


def register_application(
    spec: ApplicationSpec, *, aliases: Tuple[str, ...] = (), description: str = ""
) -> ApplicationSpec:
    """Register a custom application traffic model under ``spec.name``."""
    return APPLICATION_REGISTRY.add(
        spec.name,
        spec,
        aliases=aliases,
        description=description or f"user application model {spec.name}",
        load_factor=spec.load_factor,
    )


def available_applications() -> List[str]:
    """Sorted canonical names of every registered application model."""
    return APPLICATION_REGISTRY.names()


def application_spec(name: str) -> ApplicationSpec:
    """Return the :class:`ApplicationSpec` registered under a name or alias.

    Raises:
        repro.registry.UnknownComponentError: (a :class:`ValueError`) for
            unknown application names, listing the registered names.
    """
    return APPLICATION_REGISTRY.get(name)


class ApplicationTraffic(TrafficPattern):
    """Traffic pattern generated from a synthetic application model.

    The constructor deterministically builds a per-source destination
    distribution from the :class:`ApplicationSpec`; the same
    ``(spec, mesh, seed)`` triple always produces the same communication
    graph, so experiments are reproducible.

    Args:
        mesh: Target mesh.
        spec: Application model parameters.
        seed: Seed controlling both graph construction and online sampling.
    """

    name = "application"

    def __init__(self, mesh: Mesh3D, spec: ApplicationSpec, seed: int = 0) -> None:
        super().__init__(mesh, seed)
        self.spec = spec
        self._matrix = self._build_matrix(seed)
        self._per_source: Dict[int, Tuple[List[int], List[float]]] = {}
        for src in mesh.nodes():
            destinations = []
            weights = []
            for (s, d), w in self._matrix.items():
                if s == src:
                    destinations.append(d)
                    weights.append(w)
            self._per_source[src] = (destinations, weights)

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def _build_matrix(self, seed: int) -> TrafficMatrix:
        spec = self.spec
        mesh = self.mesh
        # A string seed hashes with SHA-512, so the graph is the same in
        # every process; Python salts ``hash()`` of strings per process.
        graph_rng = random.Random(f"{seed}:{spec.name}:graph")
        n = mesh.num_nodes

        hotspots = self._pick_hotspots(graph_rng)
        matrix: TrafficMatrix = {}
        for src in range(n):
            partners = self._pick_partners(src, graph_rng)
            weights = self._zipf_weights(len(partners), graph_rng)
            partner_share = 1.0 - (spec.hotspot_share if hotspots else 0.0)
            for partner, weight in zip(partners, weights):
                matrix[(src, partner)] = (
                    matrix.get((src, partner), 0.0) + partner_share * weight
                )
            if hotspots:
                eligible = [h for h in hotspots if h != src]
                if eligible:
                    per_hot = spec.hotspot_share / len(eligible)
                    for hot in eligible:
                        matrix[(src, hot)] = matrix.get((src, hot), 0.0) + per_hot
                else:
                    # A hotspot node redistributes its own hotspot share.
                    for partner, weight in zip(partners, weights):
                        matrix[(src, partner)] += spec.hotspot_share * weight
        return matrix

    def _pick_hotspots(self, rng: random.Random) -> List[int]:
        count = min(self.spec.hotspot_nodes, self.mesh.num_nodes)
        if count <= 0:
            return []
        return rng.sample(range(self.mesh.num_nodes), count)

    def _pick_partners(self, src: int, rng: random.Random) -> List[int]:
        mesh = self.mesh
        spec = self.spec
        count = min(spec.partners_per_node, mesh.num_nodes - 1)
        others = [node for node in mesh.nodes() if node != src]
        # Local candidates sorted by 3D distance; ties shuffled for variety.
        rng.shuffle(others)
        by_distance = sorted(others, key=lambda node: mesh.manhattan_3d(src, node))
        partners: List[int] = []
        for _ in range(count):
            pool = [node for node in by_distance if node not in partners]
            if not pool:
                break
            if rng.random() < spec.locality:
                partners.append(pool[0])
            else:
                partners.append(rng.choice(pool))
        return partners

    def _zipf_weights(self, count: int, rng: random.Random) -> List[float]:
        if count == 0:
            return []
        raw = [1.0 / ((rank + 1) ** self.spec.zipf_exponent) for rank in range(count)]
        # Small jitter keeps different sources from having identical shapes.
        raw = [w * (0.8 + 0.4 * rng.random()) for w in raw]
        total = sum(raw)
        return [w / total for w in raw]

    # ------------------------------------------------------------------ #
    # TrafficPattern interface
    # ------------------------------------------------------------------ #
    def destination(self, source: int) -> int:
        destinations, weights = self._per_source[source]
        if not destinations:
            # Fallback: uniform target (can only happen for degenerate meshes).
            dst = self.rng.randrange(self.mesh.num_nodes - 1)
            return dst + 1 if dst >= source else dst
        return self.rng.choices(destinations, weights=weights, k=1)[0]

    def traffic_matrix(self) -> TrafficMatrix:
        return dict(self._matrix)

    @property
    def load_factor(self) -> float:
        """Relative injection-rate multiplier of the modelled benchmark."""
        return self.spec.load_factor

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ApplicationTraffic({self.spec.name!r}, mesh={self.mesh!r})"


def make_application_traffic(
    name: str, mesh: Mesh3D, seed: int = 0
) -> ApplicationTraffic:
    """Create the synthetic traffic model for a named benchmark."""
    return ApplicationTraffic(mesh, application_spec(name), seed=seed)
