"""Typed, serializable scenario events: elevator faults and repairs.

A scenario event is a point on a simulation's cycle timeline where an
elevator column fails (:class:`ElevatorFault`) or is repaired
(:class:`ElevatorRepair`) -- the dynamic case of the paper's Section V
note that AdEle "can be easily adjusted to consider faults".

Events are frozen dataclasses whose ``kind`` string names them in the
dictionary form.  Every event round-trips losslessly through
``to_dict()`` / :func:`event_from_dict`; the dictionary form is what a
:class:`~repro.scenario.spec.ScenarioSpec` embeds into the canonical
experiment serialization (and therefore into cache keys and derived seeds).

Semantics shared by both kinds:

* ``cycle`` is the simulation cycle the event fires at.  Events are applied
  at the *start* of their cycle, before any packet of that cycle is
  created, injected or moved -- on every simulation backend, which is what
  keeps scenario runs bit-identical across kernels.
* Events may only fire during the injection window (warm-up + measurement
  cycles); :class:`~repro.spec.ExperimentSpec` and the runtime reject
  timelines that extend into the drain phase.
* Every event opens a new per-phase measurement window
  (:class:`~repro.sim.stats.PhaseStats`) labelled by
  :meth:`ScenarioEvent.phase_label`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING, Any, ClassVar, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network


def _require_index(value: Any, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class ScenarioEvent:
    """Base class of the elevator events (see module docstring).

    Attributes:
        cycle: Simulation cycle the event fires at (applied at the start of
            that cycle, before any traffic of the cycle exists).
        elevator: Dense elevator index within the experiment's placement.
        label: Optional label of the measurement window the event opens.
        kind: The event's kind string in the dictionary form.
    """

    cycle: int = 0
    elevator: int = 0
    label: Optional[str] = None

    kind: ClassVar[str] = "event"
    #: Prefix of the default phase label (``fault:e0@50``).
    label_prefix: ClassVar[str] = "event"

    def __post_init__(self) -> None:
        _require_index(self.cycle, f"{self.kind} event cycle")
        _require_index(self.elevator, "elevator index")
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError(
                f"{self.kind} event label must be a string or null, "
                f"got {self.label!r}"
            )

    def apply(self, network: "Network") -> None:
        """Apply the event's effect to the network under test."""
        raise NotImplementedError

    def phase_label(self) -> str:
        """Label of the measurement window this event opens."""
        if self.label:
            return self.label
        return f"{self.label_prefix}:e{self.elevator}@{self.cycle}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native canonical form (``kind`` + every dataclass field)."""
        data: Dict[str, Any] = {"kind": self.kind}
        for spec_field in dataclass_fields(self):
            data[spec_field.name] = getattr(self, spec_field.name)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioEvent":
        """Rebuild an event from its canonical form (unknown keys rejected)."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"{cls.kind} event must be a mapping, got {type(data).__name__}"
            )
        allowed = {spec_field.name for spec_field in dataclass_fields(cls)}
        payload = {key: value for key, value in data.items() if key != "kind"}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ValueError(
                f"unknown {cls.kind} event field(s): {', '.join(unknown)}; "
                f"expected a subset of {sorted(allowed)}"
            )
        return cls(**payload)


@dataclass(frozen=True)
class ElevatorFault(ScenarioEvent):
    """Mark an elevator column faulty at a cycle.

    The elevator is excluded from all subsequent selections (AdEle routers
    rebuild their subset tables, keeping the learned costs of surviving
    elevators) and its vertical TSV links are severed.  Packets assigned to
    the elevator *before* the fault stall at the column until a matching
    :class:`ElevatorRepair` -- a network that cannot re-route them will not
    drain, which shows up as a dropped delivery ratio, exactly like a real
    mid-operation fault.  Failing the *last* healthy elevator of a
    multi-layer mesh is rejected with a :class:`ValueError` -- inter-layer
    packets could not even be assigned an elevator, so the degenerate
    network cannot be simulated.
    """

    kind: ClassVar[str] = "elevator-fault"
    label_prefix: ClassVar[str] = "fault"

    def apply(self, network: "Network") -> None:
        network.fail_elevator(self.elevator)


@dataclass(frozen=True)
class ElevatorRepair(ScenarioEvent):
    """Restore a faulty elevator column at a cycle.

    The inverse of :class:`ElevatorFault`: the elevator re-enters selection
    (AdEle routers rebuild their subset tables) and its vertical links are
    reconnected, so flits stalled at the column resume.
    """

    kind: ClassVar[str] = "elevator-repair"
    label_prefix: ClassVar[str] = "repair"

    def apply(self, network: "Network") -> None:
        network.repair_elevator(self.elevator)


#: The event classes by their ``kind`` string.
EVENT_KINDS = {cls.kind: cls for cls in (ElevatorFault, ElevatorRepair)}


def event_from_dict(data: Mapping[str, Any]) -> ScenarioEvent:
    """Rebuild an elevator event from its canonical dictionary.

    Raises:
        ValueError: For a kind other than ``elevator-fault`` /
            ``elevator-repair`` and for malformed event payloads.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"scenario event must be a mapping, got {type(data).__name__}")
    kind = data.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ValueError(f"scenario event needs a 'kind' string, got {kind!r}")
    if kind not in EVENT_KINDS:
        raise ValueError(
            f"unknown scenario event kind {kind!r}; expected one of "
            f"{', '.join(repr(name) for name in EVENT_KINDS)}"
        )
    return EVENT_KINDS[kind].from_dict(data)
