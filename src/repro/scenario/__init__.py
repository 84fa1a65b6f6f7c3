"""Runtime fault injection: elevator faults and repairs on a timeline.

The paper's evaluation runs each configuration on one static, healthy
network.  This subsystem makes the *dynamic* case -- "AdEle can be easily
adjusted to consider faults, which is of great interest in PC-3DNoCs"
(Section V) -- a first-class, typed, cacheable part of the experiment
model:

* :mod:`repro.scenario.events` -- the two event kinds,
  :class:`ElevatorFault` and :class:`ElevatorRepair`;
* :mod:`repro.scenario.spec` -- :class:`ScenarioSpec`, the ordered timeline
  that nests into :class:`repro.spec.ExperimentSpec` and enters canonical
  serialization (cache keys, derived seeds) only when set;
* :mod:`repro.scenario.runtime` -- the cycle-indexed dispatcher threading
  events through every simulation backend via the packet source, with
  per-phase measurement windows (:class:`repro.sim.stats.PhaseStats`).
"""

from repro.scenario.events import (
    ElevatorFault,
    ElevatorRepair,
    ScenarioEvent,
    event_from_dict,
)
from repro.scenario.runtime import (
    BASELINE_PHASE_LABEL,
    ScenarioPacketSource,
    ScenarioRuntime,
)
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "BASELINE_PHASE_LABEL",
    "ScenarioEvent",
    "ScenarioSpec",
    "ScenarioRuntime",
    "ScenarioPacketSource",
    "ElevatorFault",
    "ElevatorRepair",
    "event_from_dict",
]
