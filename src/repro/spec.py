"""Typed, declarative experiment specifications (the ``repro.api`` data model).

An :class:`ExperimentSpec` describes one simulated configuration as four
composable, validated pieces:

* :class:`PlacementSpec` -- *where* the elevators are: a registered placement
  name (``PS1``-``PS3``, ``PM``, or anything added via
  :func:`repro.topology.elevators.register_placement`) or an explicit
  structural placement (mesh shape + elevator columns);
* :class:`PolicySpec` -- *which* elevator-selection policy runs, by
  registered name, plus free-form policy options (e.g. AdEle's
  ``max_subset_size`` / ``low_traffic_threshold``, which no longer leak into
  unrelated experiments);
* :class:`TrafficSpec` -- *what* traffic drives the network: a registered
  synthetic pattern or application model by name, injection rate and packet
  lengths;
* :class:`SimSpec` -- *how long* and *how* the simulator runs (cycles,
  buffer depth, seed).

Every spec validates on construction and round-trips losslessly through
``to_dict()`` / ``from_dict()``; the dictionary form is the **single
canonical serialization** of an experiment -- the parallel engine's cache
keys and derived seeds (:func:`repro.exec.cache.config_key` /
:func:`~repro.exec.cache.derive_seed`) and the CLI's ``--spec`` files are
all built from it.  Structural placements are captured by mesh shape and
columns, so two different custom placements sharing a name can never alias
each other in the cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.registry import UnknownComponentError
from repro.scenario.spec import ScenarioSpec
from repro.sim.backends import DEFAULT_BACKEND
from repro.topology.elevators import PLACEMENT_REGISTRY, ElevatorPlacement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.applications import APPLICATION_REGISTRY, make_application_traffic
from repro.traffic.patterns import PATTERN_REGISTRY, TrafficPattern

#: Version tag of the canonical dictionary serialization.
SPEC_FORMAT = 1

#: Default subset-size cap of AdEle's offline stage (paper Table I).
DEFAULT_ADELE_MAX_SUBSET_SIZE = 4
#: Default low-traffic minimal-path-override threshold of AdEle's online
#: policy (mirrors ``repro.routing.adele.DEFAULT_LOW_TRAFFIC_THRESHOLD``).
DEFAULT_ADELE_LOW_TRAFFIC_THRESHOLD = 0.25

#: Policy names whose construction requires AdEle's offline design stage.
ADELE_POLICY_NAMES = ("adele", "adele_rr")


# ---------------------------------------------------------------------- #
# Validation helpers
# ---------------------------------------------------------------------- #
def check_json_native(value: Any, where: str) -> Any:
    """Validate (and normalize tuples in) a JSON-native value.

    Free-form option mappings must stay JSON-native, because the canonical
    dictionary serialization feeds cache keys, derived seeds and ``--spec``
    files.

    Args:
        value: The value to validate; mappings and sequences are walked
            recursively, tuples normalize to lists.
        where: Human-readable location used in error messages.

    Raises:
        ValueError: For non-string mapping keys or any value outside
            ``str``/``int``/``float``/``bool``/``None``/list/dict.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [check_json_native(item, where) for item in value]
    if isinstance(value, Mapping):
        result = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValueError(f"{where} keys must be strings, got {key!r}")
            result[key] = check_json_native(item, where)
        return result
    raise ValueError(
        f"{where} values must be JSON-native (str/int/float/bool/None/"
        f"list/dict), got {type(value).__name__}: {value!r}"
    )


def _options_dict(options: Optional[Mapping[str, Any]], where: str) -> Dict[str, Any]:
    if options is None:
        return {}
    if not isinstance(options, Mapping):
        raise ValueError(f"{where} must be a mapping, got {type(options).__name__}")
    return dict(check_json_native(options, where))


def _require_name(name: Any, what: str) -> str:
    if not isinstance(name, str) or not name:
        raise ValueError(f"{what} must be a non-empty string, got {name!r}")
    return name


def _reject_unknown_keys(data: Mapping[str, Any], allowed: Tuple[str, ...], what: str) -> None:
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {what} field(s): {', '.join(unknown)}; "
            f"expected a subset of {sorted(allowed)}"
        )


# ---------------------------------------------------------------------- #
# Placement
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlacementSpec:
    """Where the elevators are.

    Either a *named* placement (``mesh``/``columns`` omitted -- resolved
    through the global placement registry) or a *structural* one (both
    ``mesh`` and ``columns`` given -- rebuilt from scratch wherever the
    experiment runs, worker processes included).

    Attributes:
        name: Registered placement name, or a label for a structural one.
        mesh: ``(x, y, z)`` mesh shape of a structural placement.
        columns: ``((x, y), ...)`` elevator columns of a structural
            placement, in elevator-index order.
    """

    name: str = "PS1"
    mesh: Optional[Tuple[int, int, int]] = None
    columns: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        _require_name(self.name, "placement name")
        if (self.mesh is None) != (self.columns is None):
            raise ValueError(
                "structural placements need both mesh and columns; "
                "named placements neither"
            )
        if self.mesh is not None:
            mesh = tuple(int(d) for d in self.mesh)
            if len(mesh) != 3 or any(d < 1 for d in mesh):
                raise ValueError(f"mesh must be three positive dimensions, got {self.mesh!r}")
            columns = tuple(
                (int(c[0]), int(c[1])) for c in self.columns  # type: ignore[union-attr]
            )
            object.__setattr__(self, "mesh", mesh)
            object.__setattr__(self, "columns", columns)

    @property
    def is_structural(self) -> bool:
        """Whether the spec carries its own mesh shape and columns."""
        return self.mesh is not None

    @classmethod
    def from_placement(
        cls, placement: ElevatorPlacement, name: Optional[str] = None
    ) -> "PlacementSpec":
        """Capture an existing placement object structurally."""
        return cls(
            name=name or placement.name,
            mesh=tuple(placement.mesh.shape),
            columns=tuple(placement.columns()),
        )

    def resolve(self) -> ElevatorPlacement:
        """Build (structural) or look up (named) the placement object.

        Structural specs return a *fresh* :class:`ElevatorPlacement` on each
        call; construction validates columns against the mesh.

        Raises:
            repro.registry.UnknownComponentError: For unknown named
                placements.
        """
        if self.is_structural:
            return ElevatorPlacement(
                Mesh3D(*self.mesh),  # type: ignore[misc]
                list(self.columns or ()),
                name=self.name,
            )
        return PLACEMENT_REGISTRY.get(self.name)()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native canonical form."""
        return {
            "name": self.name,
            "mesh": None if self.mesh is None else list(self.mesh),
            "columns": None
            if self.columns is None
            else [list(column) for column in self.columns],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlacementSpec":
        """Rebuild from the canonical form (unknown keys rejected)."""
        _reject_unknown_keys(data, ("name", "mesh", "columns"), "placement spec")
        mesh = data.get("mesh")
        columns = data.get("columns")
        return cls(
            name=data.get("name", "PS1"),
            mesh=None if mesh is None else tuple(mesh),
            columns=None
            if columns is None
            else tuple(tuple(column) for column in columns),
        )


# ---------------------------------------------------------------------- #
# Policy
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PolicySpec:
    """Which elevator-selection policy runs, with its options.

    Attributes:
        name: Registered policy name (``elevator_first``, ``cda``,
            ``adele``, ``adele_rr``, ``minimal``, or anything added via
            :func:`repro.routing.base.register_policy`).
        options: JSON-native policy options forwarded to the policy factory
            (for AdEle: ``max_subset_size`` and ``low_traffic_threshold``,
            consumed by the offline/online stages instead).
    """

    name: str = "adele"
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_name(self.name, "policy name")
        object.__setattr__(self, "options", _options_dict(self.options, "policy options"))

    @property
    def needs_design(self) -> bool:
        """Whether this policy requires AdEle's offline design stage."""
        return self.name.lower() in ADELE_POLICY_NAMES

    def option(self, key: str, default: Any = None) -> Any:
        """One option value with a default."""
        return self.options.get(key, default)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native canonical form."""
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicySpec":
        """Rebuild from the canonical form (unknown keys rejected)."""
        _reject_unknown_keys(data, ("name", "options"), "policy spec")
        return cls(name=data.get("name", "adele"), options=dict(data.get("options") or {}))


# ---------------------------------------------------------------------- #
# Traffic
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TrafficSpec:
    """What traffic drives the network.

    Attributes:
        pattern: Registered synthetic-pattern name (``uniform``, ...) or
            application name (``fft``, ...); applications win when a name is
            registered in both registries.
        injection_rate: Packet injection rate per node per cycle.
        min_packet_length: Minimum packet length in flits (Table I: 10).
        max_packet_length: Maximum packet length in flits (Table I: 30).
        options: Extra keyword arguments for the pattern constructor (e.g.
            ``hotspot_fraction``); must be empty for application traffic.
    """

    pattern: str = "uniform"
    injection_rate: float = 0.004
    min_packet_length: int = 10
    max_packet_length: int = 30
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_name(self.pattern, "traffic pattern name")
        if not isinstance(self.injection_rate, (int, float)) or self.injection_rate < 0:
            raise ValueError(f"injection_rate must be >= 0, got {self.injection_rate!r}")
        if self.min_packet_length < 1:
            raise ValueError("min_packet_length must be >= 1")
        if self.max_packet_length < self.min_packet_length:
            raise ValueError("max_packet_length must be >= min_packet_length")
        object.__setattr__(self, "injection_rate", float(self.injection_rate))
        object.__setattr__(
            self, "options", _options_dict(self.options, "traffic options")
        )

    def build(self, placement: ElevatorPlacement, seed: int = 0) -> TrafficPattern:
        """Instantiate the traffic pattern on a placement's mesh.

        Application models win when a name is registered as both an
        application and a pattern, and applications accept no options.

        Raises:
            repro.registry.UnknownComponentError: When the name is neither a
                registered pattern nor a registered application (the
                did-you-mean message lists both namespaces).
            ValueError: When options are passed with an application name.
        """
        name = self.pattern
        if name in APPLICATION_REGISTRY:
            if self.options:
                raise ValueError(
                    f"application traffic {name!r} accepts no options, "
                    f"got {sorted(self.options)}"
                )
            return make_application_traffic(name, placement.mesh, seed=seed)
        if name in PATTERN_REGISTRY:
            return PATTERN_REGISTRY.create(
                name, placement.mesh, seed=seed, **self.options
            )
        raise UnknownComponentError(
            "traffic pattern or application",
            name,
            sorted(set(PATTERN_REGISTRY.names()) | set(APPLICATION_REGISTRY.names())),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native canonical form."""
        return {
            "pattern": self.pattern,
            "injection_rate": self.injection_rate,
            "min_packet_length": self.min_packet_length,
            "max_packet_length": self.max_packet_length,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrafficSpec":
        """Rebuild from the canonical form (unknown keys rejected)."""
        _reject_unknown_keys(
            data,
            (
                "pattern",
                "injection_rate",
                "min_packet_length",
                "max_packet_length",
                "options",
            ),
            "traffic spec",
        )
        defaults = cls()
        return cls(
            pattern=data.get("pattern", defaults.pattern),
            injection_rate=data.get("injection_rate", defaults.injection_rate),
            min_packet_length=data.get("min_packet_length", defaults.min_packet_length),
            max_packet_length=data.get("max_packet_length", defaults.max_packet_length),
            options=dict(data.get("options") or {}),
        )


# ---------------------------------------------------------------------- #
# Simulation
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SimSpec:
    """How the simulator runs.

    Attributes:
        warmup_cycles: Unmeasured warm-up cycles.
        measurement_cycles: Measured cycles.
        drain_cycles: Maximum drain cycles after injection stops.
        buffer_depth: Input buffer depth in flits (Table I: 4).
        seed: Seed for traffic and policy randomness.
        backend: Simulation kernel executing the cycle loop (a name in
            :data:`repro.sim.backends.BACKEND_REGISTRY`).  Backends are
            result-equivalent, so the canonical serialization *omits* this
            field when it equals the default -- cache keys (and cached
            results) predating the field stay valid, and picking the
            default backend explicitly never splits the cache.
        bit_exact: Selects nothing: every kernel is bit-identical to
            ``reference``.  Still accepted and round-tripped (serialized
            only when set) so older spec files load; cache keys ignore its
            value (see :func:`repro.exec.cache.canonical_config`).
    """

    warmup_cycles: int = 300
    measurement_cycles: int = 1500
    drain_cycles: int = 800
    buffer_depth: int = 4
    seed: int = 0
    backend: str = DEFAULT_BACKEND
    bit_exact: bool = False

    def __post_init__(self) -> None:
        for name in ("warmup_cycles", "measurement_cycles", "drain_cycles"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if not isinstance(self.buffer_depth, int) or self.buffer_depth < 1:
            raise ValueError(f"buffer_depth must be >= 1, got {self.buffer_depth!r}")
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.backend, str) or not self.backend.strip():
            raise ValueError(
                f"backend must be a non-empty string, got {self.backend!r}"
            )
        object.__setattr__(self, "backend", self.backend.strip().lower())
        if not isinstance(self.bit_exact, bool):
            raise ValueError(
                f"bit_exact must be a boolean, got {self.bit_exact!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native canonical form.

        The ``backend`` key appears only when non-default (see the class
        docstring for why).
        """
        data = {
            "warmup_cycles": self.warmup_cycles,
            "measurement_cycles": self.measurement_cycles,
            "drain_cycles": self.drain_cycles,
            "buffer_depth": self.buffer_depth,
            "seed": self.seed,
        }
        if self.backend != DEFAULT_BACKEND:
            data["backend"] = self.backend
        if self.bit_exact:
            data["bit_exact"] = True
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimSpec":
        """Rebuild from the canonical form (unknown keys rejected)."""
        allowed = (
            "warmup_cycles",
            "measurement_cycles",
            "drain_cycles",
            "buffer_depth",
            "seed",
            "backend",
            "bit_exact",
        )
        _reject_unknown_keys(data, allowed, "sim spec")
        defaults = cls()
        return cls(**{key: data.get(key, getattr(defaults, key)) for key in allowed})


# ---------------------------------------------------------------------- #
# Offline design
# ---------------------------------------------------------------------- #
#: Selection strategies accepted by :class:`DesignSpec` (mirrors
#: :data:`repro.core.selection.SELECTION_STRATEGIES`; duplicated as a plain
#: tuple so the spec layer stays import-light).
DESIGN_SELECTIONS = ("knee", "latency", "energy")

#: Default number of representative (S0...) solutions exposed from the
#: archive (S0-S5 in the paper corresponds to 6).
DEFAULT_NUM_REPRESENTATIVES = 6


@dataclass(frozen=True)
class DesignSpec:
    """The offline design-space-exploration stage, declaratively.

    Describes one invocation of the paper's offline stage (Fig. 1): which
    placement is optimized, which assumed traffic pattern drives the
    objectives, which registered optimizer searches the subset space with
    which options, and which archive-selection strategy picks the deployed
    solution.  The canonical ``to_dict`` form keys the design cache (the
    ``designs`` table of a cache directory's store, see
    :func:`repro.exec.cache.open_caches`), and nested into an
    :class:`ExperimentSpec` it overrides how AdEle policies obtain their
    offline design.

    Attributes:
        placement: Placement to optimize (ignored when the spec is nested
            in an :class:`ExperimentSpec` -- the experiment's placement
            wins, and the nested serialization omits this field).
        traffic: Registered traffic-pattern name assumed by the offline
            objectives (``uniform`` -- the paper's pessimistic default --
            or any registered synthetic pattern; built with seed 0).
        optimizer: Registered optimizer name (``amosa``, ``random-search``,
            ``greedy-swap``, or anything added via
            :func:`repro.core.optimizers.register_optimizer`).
        options: Optimizer options (for ``amosa``: overrides applied over
            the offline defaults).
        max_subset_size: Cap on each router's subset size; ``None`` =
            unlimited.
        selection: Archive-selection strategy for the deployed solution
            (``knee``, ``latency`` or ``energy``).
        weight_distance_by_traffic: Weight the distance objective by the
            assumed traffic matrix instead of counting inter-layer pairs
            equally.  Omitted from the canonical serialization at its
            default (``False``), so pre-existing design-cache keys stay
            valid.
        num_representatives: How many spread (S0...) solutions to expose
            from the archive.  Like ``selection``, this only *reads* the
            archive: it is re-applied after every cache fetch and never
            splits the cache; omitted from the canonical serialization at
            its default.
    """

    placement: PlacementSpec = field(default_factory=PlacementSpec)
    traffic: str = "uniform"
    optimizer: str = "amosa"
    options: Dict[str, Any] = field(default_factory=dict)
    max_subset_size: Optional[int] = DEFAULT_ADELE_MAX_SUBSET_SIZE
    selection: str = "knee"
    weight_distance_by_traffic: bool = False
    num_representatives: int = DEFAULT_NUM_REPRESENTATIVES

    def __post_init__(self) -> None:
        if not isinstance(self.placement, PlacementSpec):
            raise ValueError(f"placement must be a PlacementSpec, got {self.placement!r}")
        _require_name(self.traffic, "design traffic pattern")
        _require_name(self.optimizer, "optimizer name")
        object.__setattr__(self, "optimizer", self.optimizer.strip().lower())
        object.__setattr__(self, "options", _options_dict(self.options, "optimizer options"))
        if self.max_subset_size is not None:
            if not isinstance(self.max_subset_size, int) or self.max_subset_size < 1:
                raise ValueError(
                    f"max_subset_size must be a positive integer or None, "
                    f"got {self.max_subset_size!r}"
                )
        selection = str(self.selection).lower()
        if selection not in DESIGN_SELECTIONS:
            raise ValueError(
                f"unknown selection strategy {self.selection!r}; "
                f"expected one of {sorted(DESIGN_SELECTIONS)}"
            )
        object.__setattr__(self, "selection", selection)
        if not isinstance(self.weight_distance_by_traffic, bool):
            raise ValueError(
                f"weight_distance_by_traffic must be a boolean, "
                f"got {self.weight_distance_by_traffic!r}"
            )
        if (
            isinstance(self.num_representatives, bool)
            or not isinstance(self.num_representatives, int)
            or self.num_representatives < 1
        ):
            raise ValueError(
                f"num_representatives must be a positive integer, "
                f"got {self.num_representatives!r}"
            )

    def with_(self, **changes: Any) -> "DesignSpec":
        """A copy with some fields replaced (same validation)."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)

    def to_dict(self, include_placement: bool = True) -> Dict[str, Any]:
        """JSON-native canonical form.

        Args:
            include_placement: ``False`` when nesting inside an
                :class:`ExperimentSpec`, whose placement is authoritative.
        """
        data: Dict[str, Any] = {
            "traffic": self.traffic,
            "optimizer": self.optimizer,
            "options": dict(self.options),
            "max_subset_size": self.max_subset_size,
            "selection": self.selection,
        }
        # Both knobs predate no one: they entered the spec after the design
        # cache existed, so they appear only when non-default -- keys of
        # every previously cached design stay byte-identical.
        if self.weight_distance_by_traffic:
            data["weight_distance_by_traffic"] = True
        if self.num_representatives != DEFAULT_NUM_REPRESENTATIVES:
            data["num_representatives"] = self.num_representatives
        if include_placement:
            data["placement"] = self.placement.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DesignSpec":
        """Rebuild from the canonical form (unknown keys rejected)."""
        _reject_unknown_keys(
            data,
            (
                "placement",
                "traffic",
                "optimizer",
                "options",
                "max_subset_size",
                "selection",
                "weight_distance_by_traffic",
                "num_representatives",
            ),
            "design spec",
        )
        defaults = cls()
        placement_data = data.get("placement")
        return cls(
            placement=PlacementSpec.from_dict(placement_data)
            if placement_data is not None
            else PlacementSpec(),
            traffic=data.get("traffic", defaults.traffic),
            optimizer=data.get("optimizer", defaults.optimizer),
            options=dict(data.get("options") or {}),
            max_subset_size=data.get("max_subset_size", defaults.max_subset_size),
            selection=data.get("selection", defaults.selection),
            weight_distance_by_traffic=data.get(
                "weight_distance_by_traffic", defaults.weight_distance_by_traffic
            ),
            num_representatives=data.get(
                "num_representatives", defaults.num_representatives
            ),
        )


# ---------------------------------------------------------------------- #
# The experiment spec
# ---------------------------------------------------------------------- #
#: Flat convenience keys accepted by :meth:`ExperimentSpec.with_`, mapped to
#: their nested (sub-spec, field) location.
_FLAT_FIELDS: Dict[str, Tuple[str, str]] = {
    "injection_rate": ("traffic", "injection_rate"),
    "pattern": ("traffic", "pattern"),
    "min_packet_length": ("traffic", "min_packet_length"),
    "max_packet_length": ("traffic", "max_packet_length"),
    "warmup_cycles": ("sim", "warmup_cycles"),
    "measurement_cycles": ("sim", "measurement_cycles"),
    "drain_cycles": ("sim", "drain_cycles"),
    "buffer_depth": ("sim", "buffer_depth"),
    "seed": ("sim", "seed"),
    "backend": ("sim", "backend"),
    "bit_exact": ("sim", "bit_exact"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully described experiment: placement + policy + traffic + sim.

    The canonical currency of the public API: builders
    (:func:`repro.analysis.runner.run_experiment`), the parallel engine
    (:class:`repro.exec.batch.ExperimentBatch`), cache keys and the CLI all
    consume this type.  Instances are immutable; derive variants with
    :meth:`with_`.

    The optional ``design`` field pins the offline stage of AdEle policies
    to an explicit :class:`DesignSpec` (optimizer, options, assumed
    traffic, selection); its placement field is ignored -- the experiment's
    placement is authoritative.  The optional ``scenario`` field attaches a
    :class:`~repro.scenario.spec.ScenarioSpec` timeline of elevator faults
    and repairs executed while the simulation runs; it must end before
    injection stops (warm-up + measurement cycles).  Both enter the canonical
    serialization (and therefore cache keys and derived seeds) **only when
    set**, so every pre-existing cache entry stays valid and plain
    experiments hash exactly as before.
    """

    placement: PlacementSpec = field(default_factory=PlacementSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    sim: SimSpec = field(default_factory=SimSpec)
    design: Optional[DesignSpec] = None
    scenario: Optional[ScenarioSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.placement, PlacementSpec):
            raise ValueError(f"placement must be a PlacementSpec, got {self.placement!r}")
        if not isinstance(self.policy, PolicySpec):
            raise ValueError(f"policy must be a PolicySpec, got {self.policy!r}")
        if not isinstance(self.traffic, TrafficSpec):
            raise ValueError(f"traffic must be a TrafficSpec, got {self.traffic!r}")
        if not isinstance(self.sim, SimSpec):
            raise ValueError(f"sim must be a SimSpec, got {self.sim!r}")
        if self.design is not None and not isinstance(self.design, DesignSpec):
            raise ValueError(f"design must be a DesignSpec or None, got {self.design!r}")
        if self.scenario is not None:
            if not isinstance(self.scenario, ScenarioSpec):
                raise ValueError(
                    f"scenario must be a ScenarioSpec or None, got {self.scenario!r}"
                )
            self.scenario.check_injection_window(
                self.sim.warmup_cycles + self.sim.measurement_cycles
            )

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def with_(self, **changes: Any) -> "ExperimentSpec":
        """A copy with some pieces replaced.

        Accepts the four sub-spec fields (``placement``, ``policy``,
        ``traffic``, ``sim`` -- as spec objects, or name strings for
        placement/policy/traffic, or an :class:`ElevatorPlacement` for
        placement) plus the flat convenience keys ``injection_rate``,
        ``pattern``, ``seed``, ``backend``, ``warmup_cycles``,
        ``measurement_cycles``, ``drain_cycles``, ``buffer_depth``,
        ``min_packet_length`` and ``max_packet_length``.  Changing the policy *name* resets the policy
        options (options rarely transfer between policies); pass a full
        :class:`PolicySpec` to control them explicitly.
        """
        placement, policy, traffic, sim, design, scenario = (
            self.placement,
            self.policy,
            self.traffic,
            self.sim,
            self.design,
            self.scenario,
        )
        for key, value in changes.items():
            if key == "placement":
                if isinstance(value, PlacementSpec):
                    placement = value
                elif isinstance(value, ElevatorPlacement):
                    placement = PlacementSpec.from_placement(value)
                elif isinstance(value, str):
                    placement = PlacementSpec(name=value)
                else:
                    raise ValueError(f"cannot derive a placement from {value!r}")
            elif key == "policy":
                if isinstance(value, PolicySpec):
                    policy = value
                elif isinstance(value, str):
                    keep = policy.options if value.lower() == policy.name.lower() else {}
                    policy = PolicySpec(name=value, options=keep)
                else:
                    raise ValueError(f"cannot derive a policy from {value!r}")
            elif key == "policy_options":
                policy = PolicySpec(name=policy.name, options=value)
            elif key == "traffic":
                if isinstance(value, TrafficSpec):
                    traffic = value
                elif isinstance(value, str):
                    traffic = replace(traffic, pattern=value, options={})
                else:
                    raise ValueError(f"cannot derive traffic from {value!r}")
            elif key == "sim":
                if not isinstance(value, SimSpec):
                    raise ValueError(f"sim must be a SimSpec, got {value!r}")
                sim = value
            elif key == "design":
                if value is not None and not isinstance(value, DesignSpec):
                    raise ValueError(f"design must be a DesignSpec or None, got {value!r}")
                design = value
            elif key == "scenario":
                if value is not None and not isinstance(value, ScenarioSpec):
                    raise ValueError(
                        f"scenario must be a ScenarioSpec or None, got {value!r}"
                    )
                scenario = value
            elif key in _FLAT_FIELDS:
                holder, attr = _FLAT_FIELDS[key]
                if holder == "traffic":
                    traffic = replace(traffic, **{attr: value})
                else:
                    sim = replace(sim, **{attr: value})
            else:
                raise ValueError(f"unknown ExperimentSpec field {key!r}")
        return ExperimentSpec(
            placement=placement,
            policy=policy,
            traffic=traffic,
            sim=sim,
            design=design,
            scenario=scenario,
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON-native dictionary of this experiment.

        This is the serialization cache keys, derived seeds and ``--spec``
        files are built from; it round-trips losslessly through
        :meth:`from_dict`.  The ``design`` key appears only when an
        explicit :class:`DesignSpec` is set (and without its placement --
        the experiment's placement is authoritative), and the ``scenario``
        key only when a :class:`~repro.scenario.spec.ScenarioSpec` is
        attached, so pre-existing cache entries stay valid.
        """
        data = {
            "format": SPEC_FORMAT,
            "placement": self.placement.to_dict(),
            "policy": self.policy.to_dict(),
            "traffic": self.traffic.to_dict(),
            "sim": self.sim.to_dict(),
        }
        if self.design is not None:
            data["design"] = self.design.to_dict(include_placement=False)
        if self.scenario is not None:
            data["scenario"] = self.scenario.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from its canonical dictionary.

        Raises:
            ValueError: On unknown fields, a bad ``format`` tag, or any
                value failing sub-spec validation.
        """
        _reject_unknown_keys(
            data,
            ("format", "placement", "policy", "traffic", "sim", "design", "scenario"),
            "experiment spec",
        )
        version = data.get("format", SPEC_FORMAT)
        if version != SPEC_FORMAT:
            raise ValueError(
                f"unsupported experiment spec format {version!r} "
                f"(this version reads format {SPEC_FORMAT})"
            )
        design_data = data.get("design")
        scenario_data = data.get("scenario")
        return cls(
            placement=PlacementSpec.from_dict(data.get("placement") or {}),
            policy=PolicySpec.from_dict(data.get("policy") or {}),
            traffic=TrafficSpec.from_dict(data.get("traffic") or {}),
            sim=SimSpec.from_dict(data.get("sim") or {}),
            design=None if design_data is None else DesignSpec.from_dict(design_data),
            scenario=None
            if scenario_data is None
            else ScenarioSpec.from_dict(scenario_data),
        )

    def to_json(self) -> str:
        """Canonical JSON string (sorted keys, no spaces)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, blob: str) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(blob))


def as_spec(spec: Any) -> ExperimentSpec:
    """Type guard for caller input: an :class:`ExperimentSpec` passes through.

    Raises:
        TypeError: For anything else (e.g. a plain ``dict``; rebuild one with
            :meth:`ExperimentSpec.from_dict`).
    """
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"expected ExperimentSpec, got {type(spec).__name__}")
    return spec
