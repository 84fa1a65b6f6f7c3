"""The typed scenario timeline (:class:`ScenarioSpec`).

A :class:`ScenarioSpec` is an ordered timeline of elevator faults and
repairs (:class:`~repro.scenario.events.ScenarioEvent` values) applied
while the simulation runs.  It nests optionally into
:class:`repro.spec.ExperimentSpec` (``scenario`` field) and enters the
canonical experiment serialization -- and therefore cache keys and derived
seeds -- **only when set**, so every spec without a scenario keeps the
exact serialization (and cache entries) it has today.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.scenario.events import ScenarioEvent, event_from_dict


@dataclass(frozen=True)
class ScenarioSpec:
    """An ordered, serializable timeline of scenario events.

    Attributes:
        events: The timeline, ordered by non-decreasing cycle.  Events
            sharing a cycle are applied in listed order.  An *empty*
            timeline is allowed and still meaningful: it produces a single
            ``baseline`` measurement window covering the whole run.
    """

    events: Tuple[ScenarioEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        previous = -1
        for event in events:
            if not isinstance(event, ScenarioEvent):
                raise ValueError(
                    f"scenario events must be ScenarioEvent instances, "
                    f"got {event!r}"
                )
            if event.cycle < previous:
                raise ValueError(
                    "scenario events must be ordered by non-decreasing "
                    f"cycle; {event.kind}@{event.cycle} follows cycle "
                    f"{previous}"
                )
            previous = event.cycle
        object.__setattr__(self, "events", events)

    # ------------------------------------------------------------------ #
    # Derivation and queries
    # ------------------------------------------------------------------ #
    def last_cycle(self) -> int:
        """The largest event cycle of the timeline (0 when empty)."""
        return max((event.cycle for event in self.events), default=0)

    def check_injection_window(self, injection_end: int) -> None:
        """Reject a timeline with an event at or past ``injection_end``.

        ``injection_end`` is warm-up + measurement cycles.  Events cannot
        fire during the drain phase: no backend polls the packet source
        there.  :class:`~repro.spec.ExperimentSpec` checks this when it is
        built, and the runtime again for direct
        :class:`~repro.sim.engine.Simulator` use.

        Raises:
            ValueError: When the last event fires at or after
                ``injection_end``.
        """
        last = self.last_cycle()
        if self.events and last >= injection_end:
            raise ValueError(
                f"scenario timeline reaches cycle {last} but injection "
                f"stops at cycle {injection_end}; events cannot fire "
                "during the drain phase"
            )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-native canonical form."""
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild from the canonical form (unknown keys rejected).

        Raises:
            ValueError: On unknown fields, event kinds other than
                ``elevator-fault`` / ``elevator-repair`` or any event
                failing validation.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"scenario spec must be a mapping, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"events"})
        if unknown:
            raise ValueError(
                f"unknown scenario spec field(s): {', '.join(unknown)}; "
                f"expected a subset of ['events']"
            )
        events_data = data.get("events") or []
        if not isinstance(events_data, (list, tuple)):
            raise ValueError(
                f"scenario events must be a list, got {type(events_data).__name__}"
            )
        return cls(events=tuple(event_from_dict(item) for item in events_data))
