"""Parallel offline-design batches (DesignSpec grids over worker processes).

Offline designs were computed serially -- one :func:`design_for` call at a
time -- even though a placement study wants a whole grid of
:class:`~repro.spec.DesignSpec` values (placements x optimizers x subset
caps).  :class:`DesignBatch` mirrors :class:`~repro.exec.batch.ExperimentBatch`
for that grid:

* uncached designs fan out over a ``ProcessPoolExecutor`` (serial fallback
  at ``workers=1``), deduplicated by design-cache key;
* workers return the *persisted record form*
  (:func:`repro.exec.cache.design_to_record` -- plain JSON-native dicts, so
  nothing unpicklable crosses the process boundary) and the parent rebuilds
  and caches the designs;
* with a batch-level ``base_seed``, each design's optimizer seed is
  *derived* from the canonical design key plus the base seed
  (:func:`derive_design_seed`), so -- exactly like experiment batches --
  two batches with the same base seed assign identical seeds to identical
  designs regardless of worker count or submission order.

Determinism: a design batch produces bit-identical archives whether it runs
serially, with N workers, or from a warm design cache (pinned by
``tests/test_design_batch.py``).
"""

from __future__ import annotations

import hashlib
import importlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.runner import (
    DesignCache,
    DesignKey,
    design_for,
    design_key_for,
)
from repro.core.optimizers import OPTIMIZER_REGISTRY, canonical_optimizer_options
from repro.core.pipeline import AdEleDesign
from repro.exec.cache import (
    SEED_SPACE,
    _jsonify,
    design_from_record,
    design_to_record,
)
from repro.spec import DesignSpec


def derive_design_seed(spec: DesignSpec, base_seed: int) -> int:
    """Deterministic per-design optimizer seed from the canonical key.

    The spec's own ``options["seed"]`` is *replaced* by ``base_seed``
    before hashing (the analogue of :func:`repro.exec.cache.derive_seed`),
    so the derived seed depends only on *what* is optimized plus the
    batch-level base seed.
    """
    canonical = OPTIMIZER_REGISTRY.entry(spec.optimizer).name
    options = canonical_optimizer_options(canonical, spec.options)
    options["seed"] = int(base_seed)
    key = design_key_for(spec.with_(options=options))
    blob = json.dumps(_jsonify(key), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % SEED_SPACE


@dataclass(frozen=True)
class _DesignTask:
    """One design shipped to a worker (spec already seed-derived)."""

    spec: DesignSpec
    plugins: Tuple[str, ...] = ()


@dataclass
class DesignOutcome:
    """Result of one batched offline design.

    Attributes:
        spec: The effective design spec (seed already derived).
        key: The design-cache key.
        design: The completed design (archive, representatives, selected).
        from_cache: ``True`` when no search ran for this spec.
    """

    spec: DesignSpec
    key: DesignKey
    design: AdEleDesign
    from_cache: bool


def _execute_design(task: _DesignTask) -> Dict[str, Any]:
    """Run one offline design end to end (module-level so it pickles)."""
    for module in task.plugins:
        importlib.import_module(module)
    # A fresh cache: the worker must not consult its own process-wide
    # default (inherited under fork), or warm parent state would make
    # "executed" outcomes silently cache-dependent.
    placement = task.spec.placement.resolve()
    design = design_for(task.spec, placement, cache=DesignCache())
    return design_to_record(design_key_for(task.spec, placement), design)


class DesignBatch:
    """Run a grid of :class:`DesignSpec` values, in parallel and cached.

    Args:
        specs: Design specs (any iterable; order preserved in outcomes).
        workers: Process count (``1`` = serial fallback, no subprocess).
        cache: Design cache consulted before and populated after execution;
            defaults to a fresh in-memory cache (which still deduplicates
            identical specs within the batch).  Pass the design cache of
            :func:`~repro.exec.cache.open_caches` to persist.
        base_seed: When given, each spec's optimizer seed is replaced by
            :func:`derive_design_seed`; when ``None``, specs keep their
            own seeds.
        plugins: Module names imported inside workers before specs resolve
            (custom placements/patterns/optimizers under ``spawn``).
    """

    def __init__(
        self,
        specs: Iterable[DesignSpec],
        workers: int = 1,
        cache: Optional[DesignCache] = None,
        base_seed: Optional[int] = None,
        plugins: Sequence[str] = (),
    ) -> None:
        self.specs: List[DesignSpec] = list(specs)
        for spec in self.specs:
            if not isinstance(spec, DesignSpec):
                raise TypeError(f"expected DesignSpec, got {type(spec).__name__}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.cache = cache if cache is not None else DesignCache()
        self.base_seed = base_seed
        self.plugins: Tuple[str, ...] = tuple(plugins)
        #: Number of searches actually executed by the last ``run()``.
        self.last_executed = 0
        #: Number of outcomes served from cache by the last ``run()``.
        self.last_cached = 0

    def effective_specs(self) -> List[DesignSpec]:
        """Specs with batch-level seed derivation applied."""
        if self.base_seed is None:
            return list(self.specs)
        effective = []
        for spec in self.specs:
            canonical = OPTIMIZER_REGISTRY.entry(spec.optimizer).name
            options = canonical_optimizer_options(canonical, spec.options)
            options["seed"] = derive_design_seed(spec, self.base_seed)
            effective.append(spec.with_(options=options))
        return effective

    def run(self) -> List[DesignOutcome]:
        """Execute the batch and return outcomes in input order."""
        specs = self.effective_specs()
        keys = [design_key_for(spec) for spec in specs]
        outcomes: List[Optional[DesignOutcome]] = [None] * len(specs)

        pending: Dict[DesignKey, _DesignTask] = {}
        for index, (spec, key) in enumerate(zip(specs, keys)):
            if key in pending:
                continue  # deduplicated: identical design already queued
            design = self.cache.get(key)
            if design is not None:
                outcomes[index] = DesignOutcome(
                    spec=spec, key=key, design=design, from_cache=True
                )
            else:
                pending[key] = _DesignTask(spec=spec, plugins=self.plugins)

        executed: Dict[DesignKey, AdEleDesign] = {}
        if pending:
            tasks = list(pending.values())
            if self.workers == 1 or len(tasks) == 1:
                records = [_execute_design(task) for task in tasks]
            else:
                with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(tasks))
                ) as pool:
                    records = list(pool.map(_execute_design, tasks))
            for key, record in zip(pending, records):
                design = design_from_record(record)
                executed[key] = design
                self.cache.put(key, design)

        self.last_executed = len(executed)
        self.last_cached = 0
        freshly_reported: set = set()
        for index, (spec, key) in enumerate(zip(specs, keys)):
            if outcomes[index] is not None:
                self.last_cached += 1
                continue
            if key in executed and key not in freshly_reported:
                freshly_reported.add(key)
                outcomes[index] = DesignOutcome(
                    spec=spec, key=key, design=executed[key], from_cache=False
                )
            else:
                # Duplicate of an earlier identical spec in this batch.
                design = self.cache.get(key)
                assert design is not None
                outcomes[index] = DesignOutcome(
                    spec=spec, key=key, design=design, from_cache=True
                )
                self.last_cached += 1
        return [outcome for outcome in outcomes if outcome is not None]


def run_design_batch(
    specs: Iterable[DesignSpec],
    workers: int = 1,
    cache: Optional[DesignCache] = None,
    base_seed: Optional[int] = None,
    plugins: Sequence[str] = (),
) -> List[DesignOutcome]:
    """Convenience wrapper: build a :class:`DesignBatch` and run it."""
    batch = DesignBatch(
        specs, workers=workers, cache=cache, base_seed=base_seed, plugins=plugins
    )
    return batch.run()


__all__ = [
    "derive_design_seed",
    "DesignOutcome",
    "DesignBatch",
    "run_design_batch",
]
